"""Tests for the command-line interface."""

import csv
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sicbell.bounds import ThetaNonConvergence, ThetaResult, bounds_report
from sicbell.catalog import get_set
from sicbell.cli import (OUTDIR_ENV, CliError, RunConfig,
                         load_run_config, main, resolve_set)
import sicbell
from sicbell import cli as cli_module
from sicbell import montecarlo
from sicbell.noise import default_modes, spiral_spectrum

from test_catalog import DATA, bundled


def write_config(path: Path, **fields) -> str:
    path.write_text(json.dumps(fields))
    return str(path)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def read_strict_json(path: Path):
    """The artifact at ``path``, which must be strict JSON (no NaN or
    infinity) laid out exactly as ``json.dumps(doc, indent=2,
    sort_keys=True)`` lays it out, plus a newline."""
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    text = path.read_text(encoding="utf-8")
    doc = json.loads(text, parse_constant=refuse)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return doc


def _zero_in_context(doc):
    doc["vectors"][2] = [[0, 0]] * 4


def _zero_outside_contexts(doc):
    doc["vectors"].append([[0, 0]] * 4)
    doc["weights"].append(1)


def _repeated_index(doc):
    doc["contexts"][0] = [0, 0, 2, 3]


def _short_vector(doc):
    doc["vectors"][0] = doc["vectors"][0][:3]


def _later_pair(doc):
    # ray 14 becomes (0, 2, -1, 0): of its context (8, 10, 13, 14) only
    # the first and last rays, not the first pair, lose orthogonality
    doc["vectors"][14][1] = [2, 0]


def _rows(header, *rows):
    return "".join(f"{line}\n" for line in (header, *rows))


# `sicbell catalog` output on corrupted copies of ks18, byte for byte:
# the cases where context_identity, derived from the other checks, could
# drift from the exact projector sum it stands for
_PINNED_CATALOG = [
    (_zero_in_context, _rows(
        "ks18: 18 vectors, d=4, 73 edges, weights 1x18, 9 contexts",
        "  [FAIL] nonzero_vectors", "  [ok] vector_dimension",
        "  [ok] positive_weights", "  [ok] context_shape",
        "  [ok] context_orthogonality", "  [FAIL] context_identity")),
    (_zero_outside_contexts, _rows(
        "ks18: 19 vectors, d=4, 81 edges, weights 1x19, 9 contexts",
        "  [FAIL] nonzero_vectors", "  [ok] vector_dimension",
        "  [ok] positive_weights", "  [ok] context_shape",
        "  [ok] context_orthogonality", "  [ok] context_identity")),
    (_repeated_index, _rows(
        "ks18: 18 vectors, d=4, 63 edges, weights 1x18, 9 contexts",
        "  [ok] nonzero_vectors", "  [ok] vector_dimension",
        "  [ok] positive_weights", "  [ok] context_shape",
        "  [FAIL] context_orthogonality: vectors 0 and 0 not orthogonal",
        "  [FAIL] context_identity", "  [ok] edge_count",
        "  [ok] exact_float_agreement")),
    (_short_vector, _rows(
        "ks18: 18 vectors, d=4, weights 1x18, 9 contexts",
        "  [FAIL] nonzero_vectors", "  [FAIL] vector_dimension: d=4, n=18",
        "  [ok] positive_weights", "  [ok] context_shape",
        "  [FAIL] context_orthogonality", "  [FAIL] context_identity")),
    (_later_pair, _rows(
        "ks18: 18 vectors, d=4, 59 edges, weights 1x18, 9 contexts",
        "  [ok] nonzero_vectors", "  [ok] vector_dimension",
        "  [ok] positive_weights", "  [ok] context_shape",
        "  [FAIL] context_orthogonality: vectors 8 and 14 not orthogonal",
        "  [FAIL] context_identity", "  [FAIL] edge_count: found 59, expected 63",
        "  [ok] exact_float_agreement")),
]


class TestCatalog:
    def test_builtin_sets_are_valid(self, capsys):
        for name, blurb in (("yo13", "13 vectors, d=3, 24 edges"),
                            ("ks18", "18 vectors, d=4"),
                            ("ks21", "21 vectors, d=6")):
            assert main(["catalog", name]) == 0
            out = capsys.readouterr().out
            assert blurb in out
            assert "FAIL" not in out

    def test_context_counts_reported(self, capsys):
        main(["catalog", "ks18"])
        assert "9 contexts" in capsys.readouterr().out
        main(["catalog", "ks21"])
        assert "7 contexts" in capsys.readouterr().out
        main(["catalog", "yo13"])
        assert "0 contexts" in capsys.readouterr().out

    def test_weight_summary(self, capsys):
        main(["catalog", "yo13"])
        assert "weights 3x9/2x4" in capsys.readouterr().out

    def test_unknown_set(self, capsys):
        assert main(["catalog", "nope"]) == 1
        assert "unknown set" in capsys.readouterr().err

    def test_missing_json_path(self, capsys):
        assert main(["catalog", "missing.json"]) == 1
        assert "no such set file" in capsys.readouterr().err

    def test_set_from_json_file(self, tmp_path, capsys):
        path = tmp_path / "custom.json"
        path.write_bytes((DATA / "yo13.json").read_bytes())
        assert main(["catalog", str(path)]) == 0
        assert "13 vectors" in capsys.readouterr().out

    def test_zero_weight_is_itemised(self, tmp_path, capsys):
        doc = bundled("yo13")
        doc["weights"][0] = 0
        path = tmp_path / "zero_weight.json"
        path.write_text(json.dumps(doc))
        assert main(["catalog", str(path)]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] positive_weights" in captured.out
        assert "error:" not in captured.err

    def test_wrong_length_vector_is_itemised(self, tmp_path, capsys):
        doc = bundled("ks18")
        doc["vectors"][0] = doc["vectors"][0][:3]
        path = tmp_path / "short_vector.json"
        path.write_text(json.dumps(doc))
        assert main(["catalog", str(path)]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] vector_dimension" in captured.out
        assert "[FAIL] context_orthogonality" in captured.out
        assert "error:" not in captured.err

    @pytest.mark.parametrize("corrupt, expected", _PINNED_CATALOG,
                             ids=["zero_in_context", "zero_outside_contexts",
                                  "repeated_index", "short_vector", "later_pair"])
    def test_corrupted_set_output_is_pinned(self, tmp_path, capsys,
                                            corrupt, expected):
        doc = bundled("ks18")
        corrupt(doc)
        path = tmp_path / "corrupted.json"
        path.write_text(json.dumps(doc))
        assert main(["catalog", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == "ks18: INVALID\n"

    @pytest.mark.parametrize("context", [[0, 4, 8, 18], [0, 4, 8]],
                             ids=["index_n", "size_d_minus_1"])
    def test_context_shape_needs_both_range_and_size(self, tmp_path, capsys,
                                                      context):
        # ks18 with its first context given one index equal to n, or only
        # d - 1 in-range indices: either half alone fails the check
        doc = bundled("ks18")
        doc["contexts"][0] = context
        path = tmp_path / "context.json"
        path.write_text(json.dumps(doc))
        assert main(["catalog", str(path)]) == 1
        out = capsys.readouterr().out
        assert "  [FAIL] context_shape: 9 contexts of size 4\n" in out


class TestBounds:
    def test_ks18_bounds(self, tmp_path, capsys):
        assert main(["bounds", "ks18", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "alpha=4" in out
        doc = json.loads((tmp_path / "ks18_bounds.json").read_text())
        assert doc["alpha"] == 4
        assert doc["theta"] == pytest.approx(4.5, abs=1e-4)
        assert doc["beta_ideal"] == pytest.approx(4.5, abs=1e-10)
        assert doc["margin_quantum"] == pytest.approx(0.5, abs=1e-4)
        # the set's own certificate closes the bracket before the ADMM runs
        assert doc["theta_graph_iterations"] == 0
        assert doc["theta_graph_gap"] <= 1e-12
        assert doc["theta_graph"] <= 4.5 <= doc["theta_graph"] + doc["theta_graph_gap"]

    def test_csv_format(self, tmp_path):
        assert main(["bounds", "ks21", "--out", str(tmp_path),
                     "--format", "csv"]) == 0
        rows = read_rows(tmp_path / "ks21_bounds.csv")
        assert len(rows) == 1
        assert float(rows[0]["alpha"]) == 3.0
        assert float(rows[0]["theta"]) == pytest.approx(3.5, abs=1e-4)
        assert list(rows[0])[-1] == "theta_graph_iterations"
        assert int(rows[0]["theta_graph_iterations"]) == 0
        # yo13 has no contexts, so its column shows a real ADMM count
        assert main(["bounds", "yo13", "--out", str(tmp_path),
                     "--format", "csv"]) == 0
        rows = read_rows(tmp_path / "yo13_bounds.csv")
        assert int(rows[0]["theta_graph_iterations"]) >= 1

    @pytest.mark.parametrize("name", ["yo13", "ks18", "ks21"])
    def test_summary_interval_holds_theta_graph_bracket(self, tmp_path,
                                                        capsys, name):
        assert main(["bounds", name, "--out", str(tmp_path)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        low, high = line.split("theta_graph=[")[1].rstrip("]").split(", ")
        assert len(low.split(".")[1]) == len(high.split(".")[1]) == 6
        doc = json.loads((tmp_path / f"{name}_bounds.json").read_text())
        lower = doc["theta_graph"]
        assert float(low) <= lower <= lower + doc["theta_graph_gap"] <= float(high)

    @pytest.mark.parametrize("name, ideal, exact", [
        ("yo13", 35 / 3, Fraction(35, 3)), ("ks18", 18 / 4, Fraction(9, 2)),
        ("ks21", 21 / 6, Fraction(7, 2))])
    def test_artifact_brackets_hold_the_exact_values(self, tmp_path, name, ideal,
                                                     exact):
        # read off the JSON floats without rounding: the quantum ceiling's
        # bracket holds 35/3, 9/2 or 7/2, and so does theta_graph's on
        # ks18 and ks21, which certify it in closed form with no iteration
        assert main(["bounds", name, "--out", str(tmp_path)]) == 0
        doc = read_strict_json(tmp_path / f"{name}_bounds.json")
        assert doc["beta_ideal"] == ideal
        assert doc["theta_graph_gap"] <= 1e-6
        keys = ["theta"]
        if name != "yo13":
            assert doc["theta_graph_iterations"] == 0
            assert doc["theta_graph_gap"] <= 1e-12
            keys.append("theta_graph")
        for key in keys:
            lower = Fraction(doc[key])
            assert lower <= exact <= lower + Fraction(doc[key + "_gap"])

    def test_direct_sum_file_takes_yo13s_brackets(self, tmp_path):
        # yo13 (+) ks18 as a custom set file, every ray zero-padded into its
        # own block: alpha is yo13's 11, beta_ideal (35 + 18) / 7, and the
        # theta_graph and ceiling brackets are yo13's bit for bit, at
        # yo13's iterations: ks18's block closes in closed form
        a, b = (bundled(name) for name in ("yo13", "ks18"))
        da, db = a["dimension"], b["dimension"]
        path = tmp_path / "yo13_ks18.json"
        path.write_text(json.dumps({
            "name": "yo13_ks18", "dimension": da + db,
            "vectors": ([v + [[0, 0]] * db for v in a["vectors"]]
                        + [[[0, 0]] * da + v for v in b["vectors"]]),
            "weights": a["weights"] + b["weights"]}))
        assert main(["bounds", str(path), "--out", str(tmp_path)]) == 0
        assert main(["bounds", "yo13", "--out", str(tmp_path)]) == 0
        total = read_strict_json(tmp_path / "yo13_ks18_bounds.json")
        yo13 = read_strict_json(tmp_path / "yo13_bounds.json")
        assert total["alpha"] == 11
        assert total["beta_ideal"] == (35 + 18) / 7
        assert total["theta_graph_gap"] <= 1e-6
        for key in ("theta_graph", "theta_graph_gap", "theta", "theta_gap"):
            assert total[key] == yo13[key]
        assert total["theta_graph_iterations"] == yo13["theta_graph_iterations"]
        lower = Fraction(total["theta"])
        assert lower <= Fraction(35, 3) <= lower + Fraction(total["theta_gap"])

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tolerance_rejected(self, tmp_path, capsys, tol):
        assert main(["bounds", "ks18", "--tol", tol, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: tol must be a positive finite number")
        assert err.count("\n") == 1

    def test_tol_default_is_bounds_reports(self):
        # `bounds` with no --tol certifies what bounds_report does by default
        default = inspect.signature(bounds_report).parameters["tol"].default
        assert cli_module.build_parser().parse_args(["bounds", "ks18"]).tol == default

    def test_huge_tolerance_is_valid(self, tmp_path, capsys):
        # any positive finite tol is valid: ks18's closed form is within it
        assert main(["bounds", "ks18", "--tol", "1e300", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert read_strict_json(tmp_path / "ks18_bounds.json")["alpha"] == 4

    def test_stalled_bracket_exits_two_quickly(self, tmp_path, capsys):
        # ks18's certified bracket stops narrowing near 4.7e-13
        start = time.perf_counter()
        assert main(["bounds", "ks18", "--tol", "3e-13",
                     "--out", str(tmp_path)]) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: solver did not converge")
        assert int(err.split(" after ")[1].split()[0]) < 5_000

    @pytest.mark.parametrize("tol", ["1e-13", "5e-324"])
    def test_tol_below_the_rounding_floor_exits_one(self, tmp_path, capsys, tol):
        # no certificate on ks18 is narrower than its rounding floor,
        # about 1.5e-13, so a tol below it is bad input, refused at once
        start = time.perf_counter()
        assert main(["bounds", "ks18", "--tol", tol,
                     "--out", str(tmp_path)]) == 1
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: tol {tol} is below")
        assert "rounding floor 1.52e-13" in err and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_large_entry_gives_catalog_bounds(self, tmp_path):
        # ray 1 scaled by 10**30 is the same ray, with a squared norm
        # beyond int64
        doc = bundled("yo13")
        doc["vectors"][0][0] = [10**30, 0]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["bounds", str(path), "--out", str(tmp_path / "big")]) == 0
        assert main(["bounds", "yo13", "--out", str(tmp_path / "ref")]) == 0
        big = json.loads((tmp_path / "big" / "yo13_bounds.json").read_text())
        ref = json.loads((tmp_path / "ref" / "yo13_bounds.json").read_text())
        for key in ("alpha", "theta", "beta_ideal"):
            assert big[key] == ref[key]

    @pytest.mark.parametrize("name, corrupt, message", [
        ("yo13", lambda doc: doc["weights"].__setitem__(0, 2.9), "weight"),
        ("yo13", lambda doc: doc["weights"].__setitem__(0, True), "weight"),
        ("yo13", lambda doc: doc["weights"].__setitem__(0, "3"), "weight"),
        ("yo13", lambda doc: doc["vectors"][0].__setitem__(0, [1.5, 0]),
         "vector entry"),
        ("yo13", lambda doc: doc.__setitem__("dimension", 3.7), "dimension"),
        ("yo13", lambda doc: doc.__setitem__("dimension", 3.0), "dimension"),
        ("ks18", lambda doc: doc["contexts"][0].__setitem__(0, 0.0),
         "context index"),
        ("ks18", lambda doc: doc.__setitem__("expected_edges", "73"),
         "expected_edges"),
    ], ids=["fractional_weight", "bool_weight", "string_weight",
            "fractional_entry", "fractional_dimension", "float_dimension",
            "float_context_index", "string_edge_count"])
    def test_non_integer_set_number_is_refused(self, tmp_path, capsys,
                                               name, corrupt, message):
        doc = bundled(name)
        corrupt(doc)
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["bounds", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load set from {path}: "
                              f"malformed set definition: {message} "
                              "must be a JSON integer, not ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def explode(sic, tol=1e-6):
            zeros = np.zeros((sic.n, sic.n))
            raise ThetaNonConvergence(ThetaResult(4.0, 1.0, 5.0, zeros, 30, zeros))
        monkeypatch.setattr(cli_module, "bounds_report", explode)
        assert main(["bounds", "ks18", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == ("error: solver did not converge "
                                           "(bracket [4.0, 5.0] after 30 iterations)\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_infinite_report_field_is_refused(self, tmp_path, monkeypatch,
                                              capsys, fmt):
        report = dataclasses.replace(bounds_report(get_set("ks18")),
                                     theta_gap=math.inf)
        monkeypatch.setattr(cli_module, "bounds_report",
                            lambda sic, tol=1e-6: report)
        assert main(["bounds", "ks18", "--format", fmt,
                     "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: report field theta_gap is inf, "
                                "which no artifact can hold\n")
        assert list(tmp_path.iterdir()) == []


class TestPredict:
    def test_ideal_figure_columns(self, tmp_path, capsys):
        assert main(["predict", "--set", "yo13", "--out", str(tmp_path)]) == 0
        assert "expected beta = 11.666667" in capsys.readouterr().out
        rows = read_rows(tmp_path / "yo13_prediction.csv")
        assert len(rows) == 61
        for row in rows[:13]:
            assert float(row["p_ideal"]) == pytest.approx(1.0 / 3.0, abs=1e-12)
            assert float(row["p_hat"]) == pytest.approx(1.0 / 3.0, abs=1e-12)
        for row in rows[13:]:
            assert float(row["p_ideal"]) == pytest.approx(0.0, abs=1e-12)

    def test_noise_config_feeds_in(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", set="yo13", visibility=0.5)
        assert main(["predict", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "visibility=0.5" in out
        beta = float(out.split("expected beta = ")[1].split()[0])
        assert beta == pytest.approx(0.5 * 35.0 / 3.0 + 0.5 * (-37.0 / 9.0),
                                     abs=1e-6)

    def test_json_format(self, tmp_path):
        assert main(["predict", "--set", "ks18", "--out", str(tmp_path),
                     "--format", "json"]) == 0
        doc = json.loads((tmp_path / "ks18_prediction.json").read_text())
        assert doc["beta_expected"] == pytest.approx(4.5, abs=1e-10)
        assert len(doc["settings"]) == 18 + 2 * 63

    @pytest.mark.parametrize("noise", [
        {}, {"visibility": 0.97, "crosstalk": 0.01, "spectrum_width": 4},
    ], ids=["ideal", "noisy"])
    @pytest.mark.parametrize("name", ["yo13", "ks18", "ks21"])
    def test_json_is_its_canonical_dump(self, tmp_path, name, noise):
        cfg = write_config(tmp_path / "c.json", set=name, **noise)
        assert main(["predict", "--config", cfg, "--format", "json",
                     "--out", str(tmp_path)]) == 0
        doc = read_strict_json(tmp_path / f"{name}_prediction.json")
        # the n diagonal settings, then both orientations of each edge
        assert len(doc["settings"]) == {"yo13": 61, "ks18": 144, "ks21": 231}[name]


class TestSimulate:
    def test_figure_row_counts(self, tmp_path):
        for name, rows in (("yo13", 61), ("ks18", 144), ("ks21", 231)):
            cfg = write_config(tmp_path / f"{name}.json", set=name,
                               exposure=1000.0)
            assert main(["simulate", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
            table = read_rows(tmp_path / f"{name}_figure.csv")
            assert len(table) == rows
            assert list(table[0].keys()) == [
                "index", "alice", "bob", "count", "exposure",
                "p_hat", "sigma", "p_ideal"]
            assert [int(r["index"]) for r in table] == list(range(1, rows + 1))

    def test_fixed_seed_outputs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", set="ks18", seed=7,
                           exposure=5e4)
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["simulate", "--config", cfg, "--out", str(first)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(second)]) == 0
        for stem in ("ks18_report.json", "ks18_figure.csv", "ks18_counts.json"):
            assert (first / stem).read_bytes() == (second / stem).read_bytes()

    @pytest.mark.parametrize("name", ["yo13", "ks18", "ks21"])
    def test_counts_file_is_json_dumps_of_the_record(self, tmp_path, name):
        assert main(["simulate", "--set", name, "--seed", "5",
                     "--out", str(tmp_path)]) == 0
        doc = read_strict_json(tmp_path / f"{name}_counts.json")
        sic, cfg = get_set(name), RunConfig(set_name=name)
        record, _, _ = montecarlo.run_experiment(
            sic, cfg.noise_config(sic.dimension), cfg.exposure, 5)
        assert doc == {"set": name, "exposure": record.exposure, "seed": 5,
                       "counts": [{"alice": i, "bob": j, "count": c}
                                  for (i, j), c in zip(sic.settings,
                                                       record.counts)]}

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", set="yo13", seed=1,
                           exposure=1e4)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--seed", "2",
                     "--out", str(b)]) == 0
        doc_a = json.loads((a / "yo13_counts.json").read_text())
        doc_b = json.loads((b / "yo13_counts.json").read_text())
        assert doc_a["seed"] == 1
        assert doc_b["seed"] == 2
        assert doc_a["counts"] != doc_b["counts"]

    def test_operating_point_band(self, tmp_path, capsys):
        # At the fitted visibility and matched exposure, the estimate
        # stays inside the 3 sigma band around 11.573 for nearly every
        # seed.
        cfg_path = tmp_path / "c.json"
        hits = 0
        for seed in range(12):
            write_config(cfg_path, set="yo13", visibility=0.994063,
                         exposure=224144.0,
                         seed=seed)
            assert main(["simulate", "--config", str(cfg_path),
                         "--out", str(tmp_path)]) == 0
            doc = json.loads((tmp_path / "yo13_report.json").read_text())
            hits += 11.537 <= doc["beta_hat"] <= 11.609
        capsys.readouterr()
        assert hits >= 11

    def test_csv_report_is_the_json_report(self, tmp_path):
        # the format changes the report's file alone: the counts and the
        # figure are the same bytes
        for fmt in ("json", "csv"):
            assert main(["simulate", "--set", "ks21", "--seed", "3", "--format", fmt,
                         "--out", str(tmp_path / fmt)]) == 0
        for name in ("ks21_counts.json", "ks21_figure.csv"):
            assert ((tmp_path / "json" / name).read_bytes()
                    == (tmp_path / "csv" / name).read_bytes())
        doc = read_strict_json(tmp_path / "json" / "ks21_report.json")
        with open(tmp_path / "csv" / "ks21_report.csv", newline="") as handle:
            header, *rows = list(csv.reader(handle))
        assert header == sorted(doc)
        assert rows == [[str(doc[key]) for key in header]]

    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_outside_64_bits_is_refused(self, tmp_path, capsys, seed):
        assert main(["simulate", "--set", "yo13", "--seed", seed,
                     "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must fit in 64 bits\n"
        assert not any(tmp_path.iterdir())

    def test_report_carries_significance(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", set="ks21", seed=3,
                           exposure=1e6)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "ks21_report.json").read_text())
        assert doc["alpha"] == 3.0
        assert doc["sigmas_of_violation"] > 5.0
        assert doc["poisson_p_value"] == 0.0
        assert "p_value" not in doc

    def test_low_counts_still_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", set="ks21",
                           exposure=1000.0)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()


class TestFit:
    def test_fit_prints_visibility(self, capsys):
        assert main(["fit", "--set", "yo13", "--target-beta", "11.573"]) == 0
        out = capsys.readouterr().out
        v = float(out.split("visibility = ")[1].split()[0])
        assert v == pytest.approx(0.994063, abs=1e-5)

    def test_fit_with_sigma_target(self, tmp_path, capsys):
        assert main(["fit", "--set", "yo13", "--target-beta", "11.573",
                     "--sigma-target", "0.012"]) == 0
        out = capsys.readouterr().out
        visibility = float(out.split("visibility = ")[1].split()[0])
        pairs = int(out.split("sigma 0.012: ")[1])
        assert 150_000 < pairs < 300_000
        # the pairs go into a config as its exposure, as they stand: the
        # run they size reports that exposure and meets the error bar
        # asked for, to 5%
        cfg = write_config(tmp_path / "fit.json", set="yo13",
                           visibility=visibility, exposure=pairs)
        assert main(["simulate", "--config", cfg, "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        report = read_strict_json(tmp_path / "yo13_report.json")
        assert report["exposure"] == pairs
        assert abs(report["sigma"] - 0.012) <= 0.05 * 0.012

    @pytest.mark.parametrize("sigma", ["inf", "1e-170", "1e-300"])
    def test_bad_sigma_target_rejected(self, capsys, sigma):
        assert main(["fit", "--set", "yo13", "--target-beta", "11.573",
                     "--sigma-target", sigma]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sigma_target")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("target", ["1", "0.5"])
    def test_one_dimensional_set_has_no_visibility(self, tmp_path, capsys,
                                                   target):
        # at d = 1 the maximally mixed state is the ideal state, so beta
        # does not depend on the visibility
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"name": "one", "dimension": 1,
                                    "vectors": [[[1, 0]]], "weights": [1]}))
        assert main(["fit", "--set", str(path), "--target-beta", target]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: white noise cannot move beta for set "
                                "one\n")

    @pytest.mark.parametrize("target", ["99", "nan", "inf"])
    def test_out_of_range_target(self, capsys, target):
        assert main(["fit", "--set", "yo13", "--target-beta", target]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: target {float(target)} outside the reachable range")
        assert err.count("\n") == 1


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", set="yo13", tipo=1)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_no_set_anywhere(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", visibility=0.9)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "no set selected" in capsys.readouterr().err

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('["set", "yo13"]')
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: config must be a JSON object\n"

    def test_unreadable_config(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {path}: ")
        assert err.count("\n") == 1

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_overflowing_exposure_is_refused(self, tmp_path, capsys):
        # 1e309 is a JSON number, and it reads as inf
        path = tmp_path / "c.json"
        path.write_text('{"set": "yo13", "exposure": 1e309}')
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: exposure must be positive and finite, not inf\n")
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("argv", [
        ["catalog", "{}"], ["bounds", "{}"],
        ["predict", "--set", "{}"], ["predict", "--config", "{}"],
        ["simulate", "--set", "{}"], ["simulate", "--config", "{}"],
    ], ids=["catalog", "bounds", "predict_set", "predict_config",
            "simulate_set", "simulate_config"])
    def test_deeply_nested_json_is_refused(self, tmp_path, capsys, argv):
        # json gives up on this nesting with a RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        argv = [arg.format(path) for arg in argv]
        if argv[0] != "catalog":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(("error: cannot load set from "
                                        f"{path}: maximum recursion depth",
                                        f"error: config {path} is not valid "
                                        "JSON: maximum recursion depth"))
        assert captured.err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["deep.json"]

    @pytest.mark.parametrize("fields, message", [
        ({"visibility": 1.5}, "visibility 1.5 outside"),
        # N, the pairs per setting, is the one key "exposure": the two
        # knobs it was once the product of are unknown keys
        ({"pair_rate": 1e30}, "error: unknown config keys: ['pair_rate']\n"),
        ({"integration_time": 5.0},
         "error: unknown config keys: ['integration_time']\n"),
        ({"exposure": 5e30}, "exceeds the counter range"),
        ({"exposure": math.inf},
         "exposure must be positive and finite, not inf"),
        ({"exposure": math.nan},
         "exposure must be positive and finite, not nan"),
        ({"exposure": 0}, "exposure must be positive and finite, not 0.0"),
        ({"exposure": -1e6}, "exposure must be positive and finite, not -1000000.0"),
        ({"bootstrap_replicates": -1}, "bootstrap_replicates -1 is negative"),
        ({"spectrum_width": 1e-300}, "its square underflows"),
        ({"bootstrap_replicates": 1e13}, "exceeds the cap of 1000000"),
        ({"bootstrap_replicates": 10**6 + 1},
         "bootstrap_replicates 1000001 exceeds the cap of 1000000\n"),
        ({"set": 5}, 'config "set" must be a string, not int'),
        ({"exposure": 9.8813e-319}, "exposure 9.8813e-319 is too small"),
        ({"exposure": 2e-155}, "exposure too small: the error bar"),
        ({"spectrum": [math.nan, 0.5, 0.5]},
         "bad spectrum in config: amplitudes must be finite"),
        ({"seed": 1.5}, "bad config value for seed: 1.5 is not an integer"),
        ({"seed": True}, "bad config value for seed: True is not a number"),
        ({"bootstrap_replicates": 1.5},
         "bad config value for bootstrap_replicates: 1.5 is not an integer"),
        # a spectrum is its amplitudes in basis order: the [mode,
        # amplitude] pairs it once took are refused
        ({"spectrum": [[-3, 0.6], [0, 0.64], [3, 0.48]]},
         "bad spectrum in config: [-3, 0.6] is not a number; give a list "
         "of amplitudes, one per basis index\n"),
        ({"spectrum": [True, 0.0, 0.0]},
         "bad spectrum in config: True is not a number"),
        ({"exposure": "7"},
         "bad config value for exposure: '7' is not a number"),
        ({"visibility": False},
         "bad config value for visibility: False is not a number"),
        ({"exposure": 10**400},
         "bad config value for exposure: int too large"),
        ({"spectrum": [0.6, 0.64, 0.48], "spectrum_width": 4},
         "config gives both spectrum and spectrum_width"),
        ({"spectrum": [1.0]}, "spectrum has 1 modes but the set needs 3"),
    ], ids=["visibility", "pair_rate", "integration_time", "counter_range",
            "exposure", "nan_exposure",
            "zero_exposure", "negative_exposure", "replicates", "width",
            "replicates_cap", "replicates_cap_plus_one", "set_type",
            "tiny_exposure", "sigma_overflow",
            "nan_amplitude", "fractional_seed", "bool_seed",
            "fractional_replicates", "pair_format", "bool_amplitude",
            "string_number", "bool_visibility", "huge_int",
            "spectrum_and_width", "one_mode"])
    @pytest.mark.filterwarnings("error")
    def test_bad_visibility_range(self, tmp_path, capsys, fields, message):
        cfg = write_config(tmp_path / "c.json", **{"set": "yo13", **fields})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_integral_floats_are_integers(self, tmp_path):
        as_floats = write_config(tmp_path / "f.json", set="yo13", seed=7.0)
        as_ints = write_config(tmp_path / "i.json", set="yo13", seed=7)
        cfg = load_run_config(as_floats, None, None)
        assert cfg == load_run_config(as_ints, None, None)
        assert type(cfg.seed) is int

    @pytest.mark.parametrize("replicates", [0, 1e3, 10_000, 10**6])
    def test_obsolete_replicates_key_is_dropped(self, tmp_path, replicates):
        # the p-value draws no replicates: a count the key always took
        # loads, and changes nothing
        cfg = write_config(tmp_path / "c.json", set="yo13",
                           bootstrap_replicates=replicates)
        assert load_run_config(cfg, None, None) == RunConfig(set_name="yo13")

    def test_non_finite_artifact_value_is_refused(self, tmp_path):
        target = tmp_path / "report.json"
        with pytest.raises(ValueError):
            cli_module._write_json(target, {"sigma": math.inf})
        assert not target.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_column_is_refused_by_name(self, tmp_path, bad):
        target = tmp_path / "table.json"
        with pytest.raises(ValueError, match=f"^column p_hat holds {bad}, "):
            cli_module._write_json(target, {"set": "yo13"}, settings={
                "index": [1, 2], "p_hat": [0.5, bad], "sigma": [0.0, 0.0]})
        assert not target.exists()

    @pytest.mark.parametrize("form", ["json", "csv"])
    @pytest.mark.parametrize("p_hat, order", [([0.5], "shorter"),
                                               ([0.5, 0.25, 0.125], "longer")])
    def test_unequal_columns_are_refused(self, tmp_path, form, p_hat, order):
        # a plain zip would stop at the shortest column and drop rows
        columns = {"index": [1, 2], "p_hat": p_hat}
        target = tmp_path / f"table.{form}"
        with pytest.raises(ValueError, match=f"^zip\\(\\) argument 2 is {order} "):
            if form == "json":
                cli_module._write_json(target, {"set": "yo13"}, settings=columns)
            else:
                cli_module._write_csv(target, columns)
        assert not target.exists()

    def test_explicit_spectrum(self, tmp_path, capsys):
        amp = 1.0 / 3.0 ** 0.5
        cfg = write_config(tmp_path / "c.json", set="yo13",
                           spectrum=[amp, amp, amp])
        assert main(["predict", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "expected beta = 11.666667" in capsys.readouterr().out

    def test_spectrum_width_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", set="yo13", spectrum_width=1.5)
        assert main(["predict", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        beta = float(out.split("expected beta = ")[1].split()[0])
        assert beta < 35.0 / 3.0

    @pytest.mark.parametrize("name", ["yo13", "ks21"])
    def test_spectrum_width_is_its_amplitudes(self, tmp_path, capsys, name):
        # a spectrum is its amplitudes in basis order: spiral_spectrum's
        # amplitudes over the default mode ladder predict the same bytes
        # as the spectrum_width they come from
        amplitudes = list(spiral_spectrum(4.0, default_modes(get_set(name).dimension)))
        for tag, spectrum in (("width", {"spectrum_width": 4}),
                              ("amplitudes", {"spectrum": amplitudes})):
            cfg = write_config(tmp_path / f"{tag}.json", set=name,
                               visibility=0.97, **spectrum)
            assert main(["predict", "--config", cfg,
                         "--out", str(tmp_path / tag)]) == 0
        capsys.readouterr()
        figure = f"{name}_prediction.csv"
        assert ((tmp_path / "width" / figure).read_bytes()
                == (tmp_path / "amplitudes" / figure).read_bytes())

    @pytest.mark.parametrize("fields", [
        {"crosstalk": 0.999999}, {"spectrum": [1.0, 0.0, 0.0]}],
        ids=["crosstalk", "zero_amplitude"])
    def test_extreme_valid_config_runs(self, tmp_path, capsys, fields):
        cfg = write_config(tmp_path / "c.json", set="yo13", **fields)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert read_strict_json(tmp_path / "yo13_report.json")["set"] == "yo13"

    def test_run_config_defaults(self):
        cfg = load_run_config(None, "yo13", None)
        assert cfg == RunConfig(set_name="yo13")
        assert cfg.exposure == 1e6  # pairs per setting
        assert cfg.noise_config(3).visibility == 1.0
        assert cfg.noise_config(3).crosstalk == 0.0
        assert cfg.noise_config(3).spectrum is None

    @pytest.mark.parametrize("fields, message", [
        ({"spectrum": (3 ** -0.5,) * 3, "spectrum_width": 4.0},
         "config gives both spectrum and spectrum_width: give one, or null "
         "for the other"),
    ], ids=["spectrum_and_width"])
    def test_run_config_built_directly_is_checked(self, fields, message):
        # a library caller that skips load_run_config meets the same refusals
        with pytest.raises(CliError, match=f"^{re.escape(message)}$"):
            RunConfig(set_name="yo13", **fields)

    @pytest.mark.parametrize("command", ["predict", "simulate"])
    def test_crosstalk_needs_two_dimensions(self, tmp_path, capsys, command):
        # a valid d = 1 set: two parallel rays, no edges
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"name": "one", "dimension": 1,
                                    "vectors": [[[1, 0]], [[2, 0]]],
                                    "weights": [1, 1]}))
        cfg = write_config(tmp_path / "c.json", crosstalk=0.1)
        assert main([command, "--set", str(path), "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: crosstalk needs dimension at least 2\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.json", "one.json"]

    def test_resolve_set_catalog(self):
        assert resolve_set("ks18").n == 18

    @pytest.mark.parametrize("command", ["bounds", "predict", "simulate"])
    def test_invalid_custom_set_rejected(self, tmp_path, capsys, command):
        doc = bundled("yo13")
        doc["vectors"][0] = [[0, 0]] * 3
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        argv = ([command, str(path)] if command == "bounds"
                else [command, "--set", str(path)])
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: set {path} fails validation: nonzero_vectors\n"

    @pytest.mark.parametrize("command", ["catalog", "bounds", "predict",
                                         "simulate", "fit"])
    def test_dimension_above_the_cap_is_refused(self, tmp_path, capsys,
                                                command):
        # two orthogonal rays in d = 33: the joint space would be 1089^2
        def wide(d):
            return json.dumps({
                "name": "wide", "dimension": d, "weights": [1, 1],
                "vectors": [[[1, 0]] + [[0, 0]] * (d - 1),
                            [[0, 0], [1, 0]] + [[0, 0]] * (d - 2)]})

        path = tmp_path / "wide.json"
        path.write_text(wide(33))
        out = ["--out", str(tmp_path / "out")]
        argv = {"catalog": ["catalog", str(path)],
                "bounds": ["bounds", str(path), *out],
                "predict": ["predict", "--set", str(path), *out],
                "simulate": ["simulate", "--set", str(path), *out],
                "fit": ["fit", "--set", str(path), "--target-beta", "1"]}
        assert main(argv[command]) == 1
        captured = capsys.readouterr()
        if command == "catalog":
            assert ("  [FAIL] vector_dimension: d=33, n=2, above the cap of d=32\n"
                    in captured.out)
            assert captured.err == "wide: INVALID\n"
        else:
            assert captured.out == ""
            assert captured.err == (f"error: set {path} fails validation: "
                                    "vector_dimension\n")
        assert [p.name for p in tmp_path.rglob("*")] == ["wide.json"]
        if command == "catalog":
            # d = 32 is at the cap, not above it
            path.write_text(wide(32))
            assert main(["catalog", str(path)]) == 0
            assert "  [ok] vector_dimension\n" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["catalog", "bounds", "predict",
                                         "simulate", "fit"])
    def test_the_vertex_cap_refuses_bounds_and_simulate(self, tmp_path, capsys,
                                                        command):
        # 65 rays (1, k) in d = 2, no two orthogonal: a valid set, which
        # catalog, predict and fit take.  bounds and simulate need alpha,
        # and the graph split behind both graph numbers takes at most 64
        path = tmp_path / "rays65.json"
        path.write_text(json.dumps({
            "name": "rays65", "dimension": 2, "weights": [1] * 65,
            "vectors": [[[1, 0], [k, 0]] for k in range(65)]}))
        out = ["--out", str(tmp_path / "out")]
        argv = {"catalog": ["catalog", str(path)],
                "bounds": ["bounds", str(path), *out],
                "predict": ["predict", "--set", str(path), *out],
                "simulate": ["simulate", "--set", str(path), *out],
                "fit": ["fit", "--set", str(path), "--target-beta", "30"]}
        if command in ("catalog", "predict", "fit"):
            assert main(argv[command]) == 0
            assert capsys.readouterr().err == ""
            return
        assert main(argv[command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: graph has 65 vertices; supports at most 64\n"
        assert [p.name for p in tmp_path.rglob("*")] == ["rays65.json"]

    @pytest.mark.parametrize("command", ["bounds", "predict", "simulate"])
    @pytest.mark.parametrize("name", [
        "outside", "../x", "a\\b", "a\0b", "", 5, None, ["yo13"],
    ], ids=["absolute", "parent", "backslash", "nul", "empty", "number",
            "null", "list"])
    def test_set_name_cannot_leave_the_out_directory(self, tmp_path, capsys,
                                                     command, name):
        # the name goes into artifact file names, so it must not be a path
        doc = bundled("yo13")
        doc["name"] = str(tmp_path / name) if name == "outside" else name
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out" / "deep"
        argv = ([command, str(path)] if command == "bounds"
                else [command, "--set", str(path)])
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot load set from {path}: "
                                       "malformed set definition: name must be ")
        assert captured.err.count("\n") == 1
        assert [p.name for p in tmp_path.rglob("*")] == ["custom.json"]

    @pytest.mark.parametrize("command", ["catalog", "bounds", "predict",
                                         "simulate"])
    def test_empty_set_is_refused(self, tmp_path, capsys, command):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"name": "e", "dimension": 3,
                                    "vectors": [], "weights": []}))
        out = tmp_path / "out"
        argv = ([command, str(path)] if command in ("catalog", "bounds")
                else [command, "--set", str(path)])
        if command != "catalog":
            argv += ["--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot load set from {path}: "
                                "malformed set definition: a set needs at "
                                "least one vector\n")
        assert [p.name for p in tmp_path.rglob("*")] == ["empty.json"]

    def test_outdir_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "envout"))
        assert main(["predict", "--set", "yo13"]) == 0
        capsys.readouterr()
        assert (tmp_path / "envout" / "yo13_prediction.csv").exists()

    def test_usage_error_is_exit_one(self, capsys):
        assert main(["bogus-command"]) == 1
        capsys.readouterr()


class TestRepeatedCalls:
    def test_calls_in_one_process_match_fresh_processes(self, tmp_path,
                                                        capsys):
        # the parser is built once per process; a call must not see the
        # flags of the one before it
        runs = [["bounds", "ks18"],
                ["simulate", "--set", "ks21", "--seed", "3"],
                ["simulate", "--set", "ks21"],
                ["predict", "--set", "ks21"]]
        for k, argv in enumerate(runs):
            assert main(argv + ["--out", str(tmp_path / f"same{k}")]) == 0
        capsys.readouterr()
        assert main(["bounds", "ks18", "--bogus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        seeds = [json.loads((tmp_path / f"same{k}" / "ks21_report.json")
                            .read_text())["seed"] for k in (1, 2)]
        assert seeds == [3, RunConfig(set_name="ks21").seed]

        src = str(Path(sicbell.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for k, argv in enumerate(runs):
            fresh, same = tmp_path / f"fresh{k}", tmp_path / f"same{k}"
            subprocess.run([sys.executable, "-m", "sicbell.cli", *argv,
                            "--out", str(fresh)],
                           check=True, capture_output=True, env=env)
            names = sorted(p.name for p in same.iterdir())
            assert names == sorted(p.name for p in fresh.iterdir())
            for name in names:
                assert (same / name).read_bytes() == (fresh / name).read_bytes()
