"""Tests for the command-line interface."""

import csv
import json
import math
import time
from pathlib import Path

import pytest

from sicbell.bounds import ThetaNonConvergence, solve_theta
from sicbell.catalog import build_yo13, get_set, save_set, to_json_dict
from sicbell.cli import OUTDIR_ENV, RunConfig, load_run_config, main, resolve_set
from sicbell import cli as cli_module


def write_config(path: Path, **fields) -> str:
    path.write_text(json.dumps(fields))
    return str(path)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _zero_in_context(doc):
    doc["vectors"][2] = [[0, 0]] * 4


def _zero_outside_contexts(doc):
    doc["vectors"].append([[0, 0]] * 4)
    doc["weights"].append(1)


def _repeated_index(doc):
    doc["contexts"][0] = [0, 0, 2, 3]


def _short_vector(doc):
    doc["vectors"][0] = doc["vectors"][0][:3]


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
        save_set(build_yo13(), path)
        assert main(["catalog", str(path)]) == 0
        assert "13 vectors" in capsys.readouterr().out

    def test_zero_weight_is_itemised(self, tmp_path, capsys):
        doc = to_json_dict(build_yo13())
        doc["weights"][0] = 0
        path = tmp_path / "zero_weight.json"
        path.write_text(json.dumps(doc))
        assert main(["catalog", str(path)]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] positive_weights" in captured.out
        assert "error:" not in captured.err

    def test_wrong_length_vector_is_itemised(self, tmp_path, capsys):
        doc = to_json_dict(get_set("ks18"))
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
                                  "repeated_index", "short_vector"])
    def test_corrupted_set_output_is_pinned(self, tmp_path, capsys,
                                            corrupt, expected):
        doc = to_json_dict(get_set("ks18"))
        corrupt(doc)
        path = tmp_path / "corrupted.json"
        path.write_text(json.dumps(doc))
        assert main(["catalog", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == "ks18: INVALID\n"


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
        assert doc["theta_graph_iterations"] == solve_theta(
            get_set("ks18").graph).iterations

    def test_csv_format(self, tmp_path):
        assert main(["bounds", "ks21", "--out", str(tmp_path),
                     "--format", "csv"]) == 0
        rows = read_rows(tmp_path / "ks21_bounds.csv")
        assert len(rows) == 1
        assert float(rows[0]["alpha"]) == 3.0
        assert float(rows[0]["theta"]) == pytest.approx(3.5, abs=1e-4)
        assert list(rows[0])[-1] == "theta_graph_iterations"
        assert int(rows[0]["theta_graph_iterations"]) >= 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tolerance_rejected(self, tmp_path, capsys, tol):
        assert main(["bounds", "ks18", "--tol", tol, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: tol must be a positive finite number")
        assert err.count("\n") == 1

    def test_stalled_bracket_exits_two_quickly(self, tmp_path, capsys):
        # ks18's certified bracket stops narrowing near 1.2e-12
        start = time.perf_counter()
        assert main(["bounds", "ks18", "--tol", "1e-13",
                     "--out", str(tmp_path)]) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: solver did not converge")
        assert int(err.split(" after ")[1].split()[0]) < 5_000

    def test_large_entry_gives_catalog_bounds(self, tmp_path):
        # ray 1 scaled by 10**30 is the same ray, with a squared norm
        # beyond int64
        doc = to_json_dict(build_yo13())
        doc["vectors"][0][0] = [10**30, 0]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["bounds", str(path), "--out", str(tmp_path / "big")]) == 0
        assert main(["bounds", "yo13", "--out", str(tmp_path / "ref")]) == 0
        big = json.loads((tmp_path / "big" / "yo13_bounds.json").read_text())
        ref = json.loads((tmp_path / "ref" / "yo13_bounds.json").read_text())
        for key in ("alpha", "theta", "beta_ideal"):
            assert big[key] == ref[key]

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def explode(sic, tol=1e-6):
            raise ThetaNonConvergence(4.0, 5.0, 30)
        monkeypatch.setattr(cli_module, "bounds_report", explode)
        assert main(["bounds", "ks18", "--out", str(tmp_path)]) == 2
        assert "did not converge" in capsys.readouterr().err


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


class TestSimulate:
    def test_figure_row_counts(self, tmp_path):
        for name, rows in (("yo13", 61), ("ks18", 144), ("ks21", 231)):
            cfg = write_config(tmp_path / f"{name}.json", set=name,
                               pair_rate=1000.0, integration_time=1.0,
                               bootstrap_replicates=0)
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
                           pair_rate=5e4, integration_time=1.0,
                           bootstrap_replicates=500)
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["simulate", "--config", cfg, "--out", str(first)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(second)]) == 0
        for stem in ("ks18_report.json", "ks18_figure.csv", "ks18_counts.json"):
            assert (first / stem).read_bytes() == (second / stem).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", set="yo13", seed=1,
                           pair_rate=1e4, integration_time=1.0,
                           bootstrap_replicates=0)
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
                         pair_rate=224144.0, integration_time=1.0,
                         seed=seed, bootstrap_replicates=0)
            assert main(["simulate", "--config", str(cfg_path),
                         "--out", str(tmp_path)]) == 0
            doc = json.loads((tmp_path / "yo13_report.json").read_text())
            hits += 11.537 <= doc["beta_hat"] <= 11.609
        capsys.readouterr()
        assert hits >= 11

    def test_report_carries_significance(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", set="ks21", seed=3,
                           pair_rate=1e6, integration_time=1.0,
                           bootstrap_replicates=1000)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "ks21_report.json").read_text())
        assert doc["alpha"] == 3.0
        assert doc["sigmas_of_violation"] > 5.0
        assert doc["bootstrap_p_value"] == 0.0

    def test_low_counts_still_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", set="ks21",
                           pair_rate=1000.0, integration_time=1.0,
                           bootstrap_replicates=0)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()


class TestFit:
    def test_fit_prints_visibility(self, capsys):
        assert main(["fit", "--set", "yo13", "--target-beta", "11.573"]) == 0
        out = capsys.readouterr().out
        v = float(out.split("visibility = ")[1].split()[0])
        assert v == pytest.approx(0.994063, abs=1e-5)

    def test_fit_with_sigma_target(self, capsys):
        assert main(["fit", "--set", "yo13", "--target-beta", "11.573",
                     "--sigma-target", "0.012"]) == 0
        out = capsys.readouterr().out
        pairs = int(out.split("sigma 0.012: ")[1].split()[0])
        assert 150_000 < pairs < 300_000

    def test_out_of_range_target(self, capsys):
        assert main(["fit", "--set", "yo13", "--target-beta", "99"]) == 1
        assert "error" in capsys.readouterr().err


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", set="yo13", tipo=1)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_no_set_anywhere(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", visibility=0.9)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "no set selected" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("fields, message", [
        ({"visibility": 1.5}, "visibility 1.5 outside"),
        ({"pair_rate": 1e30}, "exceeds the counter range"),
        ({"pair_rate": 1e308, "integration_time": 10.0}, "is not finite"),
        ({"bootstrap_replicates": -1}, "bootstrap_replicates -1 is negative"),
        ({"spectrum_width": 1e-300}, "its square underflows"),
        ({"bootstrap_replicates": 1e13}, "exceeds the cap of 1000000"),
        ({"set": 5}, 'config "set" must be a string, not int'),
        ({"integration_time": 5e-324}, "exposure 9.8813e-319 is too small"),
        ({"integration_time": 1e-160}, "exposure too small: the error bar"),
        ({"spectrum": [[-3, math.nan], [0, 0.5], [3, 0.5]]},
         "bad spectrum in config: amplitudes must be finite"),
    ], ids=["visibility", "pair_rate", "exposure", "replicates", "width",
            "replicates_cap", "set_type", "tiny_exposure", "sigma_overflow",
            "nan_amplitude"])
    @pytest.mark.filterwarnings("error")
    def test_bad_visibility_range(self, tmp_path, capsys, fields, message):
        cfg = write_config(tmp_path / "c.json", **{"set": "yo13", **fields})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_non_finite_artifact_value_is_refused(self, tmp_path):
        target = tmp_path / "report.json"
        with pytest.raises(ValueError):
            cli_module._write_json(target, {"sigma": math.inf})
        assert not target.exists()

    def test_explicit_spectrum(self, tmp_path, capsys):
        amp = 1.0 / 3.0 ** 0.5
        cfg = write_config(tmp_path / "c.json", set="yo13",
                           spectrum=[[-3, amp], [0, amp], [3, amp]])
        assert main(["predict", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "expected beta = 11.666667" in capsys.readouterr().out

    def test_spectrum_width_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", set="yo13", spectrum_width=1.5)
        assert main(["predict", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        beta = float(out.split("expected beta = ")[1].split()[0])
        assert beta < 35.0 / 3.0

    def test_run_config_defaults(self):
        cfg = load_run_config(None, "yo13", None)
        assert cfg == RunConfig(set_name="yo13")
        assert cfg.noise_config(3).visibility == 1.0
        assert cfg.noise_config(3).crosstalk == 0.0
        assert cfg.noise_config(3).spectrum is None

    def test_resolve_set_catalog(self):
        assert resolve_set("ks18").n == 18

    @pytest.mark.parametrize("command", ["bounds", "predict", "simulate"])
    def test_invalid_custom_set_rejected(self, tmp_path, capsys, command):
        doc = to_json_dict(build_yo13())
        doc["vectors"][0] = [[0, 0]] * 3
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        argv = ([command, str(path)] if command == "bounds"
                else [command, "--set", str(path)])
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: set {path} fails validation: nonzero_vectors\n"

    def test_outdir_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "envout"))
        assert main(["predict", "--set", "yo13"]) == 0
        capsys.readouterr()
        assert (tmp_path / "envout" / "yo13_prediction.csv").exists()

    def test_usage_error_is_exit_one(self, capsys):
        assert main(["bogus-command"]) == 1
        capsys.readouterr()
