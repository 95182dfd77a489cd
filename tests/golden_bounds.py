"""The golden ``bounds`` artifacts: the ``*_bounds.json`` text that
``sicbell bounds`` writes for yo13, ks18, ks21 and the direct sums
yo13+ks18 and ks18+ks21 (built by ``test_bounds.direct_sum``), stored
whole in ``golden_bounds.json`` with the numpy version and machine that
wrote them.  ``test_golden_bounds.py`` holds the artifacts to it.

    PYTHONPATH=src python tests/golden_bounds.py          # compare
    PYTHONPATH=src python tests/golden_bounds.py --write  # regenerate

Either way each field that differs from the stored file is printed as
``<artifact>: <field> <old> -> <new>``; a compare exits 1 if any does.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy

from sicbell.catalog import get_set, save_set
from sicbell.cli import main
from test_bounds import direct_sum

GOLDEN = Path(__file__).with_name("golden_bounds.json")
SETS = (("yo13",), ("ks18",), ("ks21",), ("yo13", "ks18"), ("ks18", "ks21"))


def platform_key() -> dict:
    """The versions a byte-for-byte match is expected on."""
    return {"numpy": numpy.__version__, "machine": platform.machine()}


def artifacts() -> dict:
    """``{file name: text}`` of each set's ``bounds`` artifact, in JSON."""
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for names in SETS:
            if len(names) == 1:
                arg = names[0]
            else:
                sic = direct_sum(*(get_set(name) for name in names))
                arg = str(out / f"{sic.name}.json")
                save_set(sic, arg)
            with contextlib.redirect_stdout(io.StringIO()):
                if main(["bounds", arg, "--out", str(out)]) != 0:
                    raise RuntimeError(f"bounds {arg} failed")
            name = f"{'+'.join(names)}_bounds.json"
            texts[name] = (out / name).read_text(encoding="utf-8")
    return texts


def changes(old: dict, new: dict) -> list:
    """``<artifact>: <field> <old> -> <new>`` for each differing field."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        before = json.loads(old[name]) if name in old else {}
        after = json.loads(new[name]) if name in new else {}
        lines += [f"{name}: {key} {before.get(key)!r} -> {after.get(key)!r}"
                  for key in sorted(before.keys() | after.keys())
                  if before.get(key) != after.get(key)]
    return lines


def run(write: bool) -> int:
    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"artifacts": {}}
    texts = artifacts()
    for line in changes(stored["artifacts"], texts):
        print(line)
    if write:
        GOLDEN.write_text(json.dumps({**platform_key(), "artifacts": texts},
                                     indent=2, sort_keys=True) + "\n")
        return 0
    return int(texts != stored["artifacts"])


if __name__ == "__main__":
    sys.exit(run("--write" in sys.argv[1:]))
