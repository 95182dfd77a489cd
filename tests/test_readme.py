"""The README's library examples run as written."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_examples_run():
    # the blocks run in order in one namespace, as a reader would paste them
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    with redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    # the first block prints yo13's theta, given in its comment as 11.666667
    assert f"{float(out.getvalue().split()[0]):.6f}" == "11.666667"
