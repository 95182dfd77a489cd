"""The golden artifacts, stored whole in ``golden_bounds.json`` with the
numpy version and machine that wrote them:

* the ``*_bounds.json`` text that ``sicbell bounds`` writes for yo13,
  ks18, ks21 and the direct sums yo13+ks18 and ks18+ks21 (built by
  ``test_bounds.direct_sum``);
* the ``bounds`` artifacts of yo13, ks18 and ks21 in their CSV form too;
* the report and counts of ``sicbell simulate`` on ks21 at seed 3 and on
  yo13 at the config's default seed, and the ks21 run's figure CSV;
* the CSV report of ``sicbell simulate`` on ks21 at ``--seed 0``;
* the report, in both forms, and counts of ``sicbell simulate`` on ks18
  at seed 3 with visibility 0.97, crosstalk 0.01 and 2000 pairs per
  setting, a run whose violation (about 3.7 sigma) does not saturate its
  p-values;
* the ideal ``sicbell predict`` table of ks18 and ks21 (ks21's in both
  forms), and yo13's, in both forms, at visibility 0.97, crosstalk 0.01
  and spectrum width 4.

``test_golden_bounds.py`` holds the artifacts to it.

    PYTHONPATH=src python tests/golden_bounds.py          # compare
    PYTHONPATH=src python tests/golden_bounds.py --write  # regenerate

Either way each field that differs from the stored file is printed as
``<artifact>: <field> <old> -> <new>``, a table field row by row as
``<field>[<row>]`` and a CSV's rows as ``rows[<row>]``; a compare exits 1
if any does.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy

from sicbell.catalog import get_set
from sicbell.cli import main
from test_bounds import direct_sum, set_doc

GOLDEN = Path(__file__).with_name("golden_bounds.json")
SETS = (("yo13",), ("ks18",), ("ks21",), ("yo13", "ks18"), ("ks18", "ks21"))
# the config files the runs name, as "{<key>}"
CONFIGS = {
    "noisy": {"visibility": 0.97, "crosstalk": 0.01, "spectrum_width": 4},
    "short": {"visibility": 0.97, "crosstalk": 0.01, "exposure": 2000},
}
# (arguments, the artifacts of the run that are stored)
RUNS = (
    (["bounds", "yo13", "--format", "csv"], ("yo13_bounds.csv",)),
    (["bounds", "ks18", "--format", "csv"], ("ks18_bounds.csv",)),
    (["bounds", "ks21", "--format", "csv"], ("ks21_bounds.csv",)),
    # an explicit seed of 0 overrides like any other, and is no default
    (["simulate", "--set", "ks21", "--seed", "0", "--format", "csv"],
     ("ks21_report.csv",)),
    (["simulate", "--set", "ks21", "--seed", "3"],
     ("ks21_report.json", "ks21_counts.json", "ks21_figure.csv")),
    (["simulate", "--set", "yo13"], ("yo13_report.json", "yo13_counts.json")),
    (["simulate", "--set", "ks18", "--seed", "3", "--config", "{short}"],
     ("ks18_report.json", "ks18_counts.json")),
    (["simulate", "--set", "ks18", "--seed", "3", "--config", "{short}",
      "--format", "csv"], ("ks18_report.csv",)),
    (["predict", "--set", "yo13", "--config", "{noisy}", "--format", "json"],
     ("yo13_prediction.json",)),
    (["predict", "--set", "yo13", "--config", "{noisy}"], ("yo13_prediction.csv",)),
    (["predict", "--set", "ks18", "--format", "json"], ("ks18_prediction.json",)),
    (["predict", "--set", "ks21", "--format", "json"], ("ks21_prediction.json",)),
    (["predict", "--set", "ks21"], ("ks21_prediction.csv",)),
)


def platform_key() -> dict:
    """The versions a byte-for-byte match is expected on."""
    return {"numpy": numpy.__version__, "machine": platform.machine()}


def artifacts() -> dict:
    """``{file name: text}`` of each set's ``bounds`` artifact and each
    stored artifact of ``RUNS``."""
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        configs = {key: out / f"{key}.json" for key in CONFIGS}
        for key, path in configs.items():
            path.write_text(json.dumps(CONFIGS[key]))
        runs = []
        for names in SETS:
            if len(names) == 1:
                arg = names[0]
            else:
                sic = direct_sum(*(get_set(name) for name in names))
                arg = str(out / f"{sic.name}.json")
                Path(arg).write_text(json.dumps(set_doc(sic)))
            runs.append((["bounds", arg], (f"{'+'.join(names)}_bounds.json",)))
        for argv, names in runs + list(RUNS):
            argv = [a.format(**configs) for a in argv] + ["--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                if main(argv) != 0:
                    raise RuntimeError(f"{' '.join(argv)} failed")
            texts.update({name: (out / name).read_text(encoding="utf-8")
                          for name in names})
    return texts


def document(name: str, text: str) -> dict:
    """An artifact as JSON values: a JSON file as parsed, a CSV file as
    ``{"rows": [...]}``, each row a dict of its cells read as JSON, or
    kept as text where a cell is no JSON value, such as a set name."""
    if not name.endswith(".csv"):
        return json.loads(text)
    rows = csv.DictReader(io.StringIO(text, newline=""))
    return {"rows": [{key: _cell(cell) for key, cell in row.items()}
                     for row in rows]}


def _cell(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def fields(name: str, text: str) -> dict:
    """An artifact's fields, each row of a table as ``<field>[<row>]``."""
    flat = {}
    for key, value in document(name, text).items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            flat.update({f"{key}[{k}]": row for k, row in enumerate(value)})
        else:
            flat[key] = value
    return flat


def changes(old: dict, new: dict) -> list:
    """``<artifact>: <field> <old> -> <new>`` for each differing field."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        before = fields(name, old[name]) if name in old else {}
        after = fields(name, new[name]) if name in new else {}
        lines += [f"{name}: {key} {before.get(key)!r} -> {after.get(key)!r}"
                  for key in dict.fromkeys([*before, *after])
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
