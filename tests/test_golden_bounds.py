"""The ``bounds``, ``simulate`` and ``predict`` artifacts against their
stored text (``golden_bounds.py``).

On the numpy version and machine that wrote them they must match byte
for byte.  Elsewhere a LAPACK build may round differently, so ints and
strings must still match exactly and floats within ``REL_TOL`` relative,
or ``ABS_TOL`` absolute: the closed-form gaps, about 1e-13 wide, are
made of rounding alone."""

import json
import math

import pytest

from golden_bounds import GOLDEN, artifacts, document, platform_key

REL_TOL = 1e-9
ABS_TOL = 1e-12

STORED = json.loads(GOLDEN.read_text())
BOUNDS = sorted(name for name in STORED["artifacts"] if "_bounds." in name)


def _close(new, old) -> bool:
    """Floats within tolerance, lists entry by entry, the rest equal."""
    if isinstance(old, float):
        return isinstance(new, float) and math.isclose(new, old, rel_tol=REL_TOL,
                                                       abs_tol=ABS_TOL)
    if isinstance(old, list):
        return (isinstance(new, list) and len(new) == len(old)
                and all(map(_close, new, old)))
    if isinstance(old, dict):
        return (isinstance(new, dict) and sorted(new) == sorted(old)
                and all(_close(new[key], value) for key, value in old.items()))
    return type(new) is type(old) and new == old


@pytest.fixture(scope="module")
def texts():
    return artifacts()


def assert_golden(texts, name):
    new, old = texts[name], STORED["artifacts"][name]
    if platform_key() == {key: STORED[key] for key in ("numpy", "machine")}:
        assert new == old
    else:
        new_doc, old_doc = document(name, new), document(name, old)
        assert sorted(new_doc) == sorted(old_doc)
        for key, value in old_doc.items():
            assert _close(new_doc[key], value), (key, new_doc[key], value)


def test_the_stored_sets_are_the_artifacts(texts):
    assert sorted(texts) == sorted(STORED["artifacts"]) == [
        "ks18+ks21_bounds.json", "ks18_bounds.csv", "ks18_bounds.json",
        "ks18_counts.json", "ks18_prediction.json", "ks18_report.csv",
        "ks18_report.json", "ks21_bounds.csv", "ks21_bounds.json",
        "ks21_counts.json", "ks21_figure.csv", "ks21_prediction.csv",
        "ks21_prediction.json", "ks21_report.csv", "ks21_report.json",
        "yo13+ks18_bounds.json", "yo13_bounds.csv", "yo13_bounds.json",
        "yo13_counts.json", "yo13_prediction.csv", "yo13_prediction.json",
        "yo13_report.json"]


def test_one_stored_report_is_not_saturated():
    # ks18's short run violates by about 3.7 sigma, so its stored bytes
    # pin the Poisson tail, where the default-exposure reports read 0.0
    doc = json.loads(STORED["artifacts"]["ks18_report.json"])
    assert 3.0 < doc["sigmas_of_violation"] < 4.0
    assert 1e-5 < doc["poisson_p_value"] < 1e-3


@pytest.mark.parametrize("name", BOUNDS)
def test_bounds_artifact_is_golden(texts, name):
    assert_golden(texts, name)


@pytest.mark.parametrize("name", sorted(set(STORED["artifacts"]) - set(BOUNDS)))
def test_run_artifact_is_golden(texts, name):
    # simulate's counts, report and figure at a given and at the default
    # seed, and predict's table ideal and under every kind of noise
    assert_golden(texts, name)


def test_off_the_platform_floats_take_the_tolerance():
    doc = json.loads(STORED["artifacts"]["yo13+ks18_bounds.json"])
    theta, iterations = doc["theta_graph"], doc["theta_graph_iterations"]
    assert _close(theta * (1 + REL_TOL / 2), theta)
    assert not _close(theta * (1 + 2 * REL_TOL), theta)
    assert not _close(iterations + 1, iterations)
    assert not _close(float(iterations), iterations)
    rows = json.loads(STORED["artifacts"]["yo13_prediction.json"])["settings"]
    row = rows[0]
    assert _close({**row, "p_hat": row["p_hat"] * (1 + REL_TOL / 2)}, row)
    assert not _close({**row, "p_hat": row["p_hat"] * (1 + 2 * REL_TOL)}, row)
    assert not _close({**row, "index": row["index"] + 1}, row)
    assert not _close({**row, "extra": 0}, row)
    # a CSV cell is read as JSON, so an int count stays an int
    figure = document("ks21_figure.csv", STORED["artifacts"]["ks21_figure.csv"])
    cells = figure["rows"][0]
    assert type(cells["count"]) is int and type(cells["p_hat"]) is float
    assert not _close({**cells, "count": float(cells["count"])}, cells)
    # and a cell that is no JSON value stays text
    row, = document("yo13_bounds.csv", STORED["artifacts"]["yo13_bounds.csv"])["rows"]
    assert row["set"] == "yo13" and row["alpha"] == 11
