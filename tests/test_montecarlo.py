"""Tests for the counting simulation and violation statistics."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from sicbell import cli
from sicbell.catalog import catalog_names, get_set, orthogonality_graph
from sicbell.montecarlo import (
    _BOOTSTRAP_STREAM,
    _COUNTS_STREAM,
    CountRecord,
    ViolationReport,
    estimate_beta,
    estimate_probabilities,
    exposure_for_sigma,
    fit_visibility,
    run_experiment,
    simulate_counts,
)
from sicbell.noise import NoiseConfig, apply_noise, expected_bell_value
from sicbell.quantum import ProbabilityTable, born_probabilities


IDEAL = NoiseConfig()


def ideal_table(name):
    sic = get_set(name)
    return expected_bell_value(sic, IDEAL)[1]


def one_setting_table(setting, inputs):
    values = born_probabilities(inputs.state, inputs.effects, [setting])
    return ProbabilityTable(values)


class TestSimulateCounts:
    def test_canonical_record_sizes(self):
        # n diagonals plus two orientations per edge.
        expected = {"yo13": 13 + 2 * 24, "ks18": 18 + 2 * 63, "ks21": 21 + 2 * 105}
        for name, size in expected.items():
            rec = simulate_counts(ideal_table(name), 1000.0, 7)
            assert len(rec.counts) == size
            assert rec.exposure == pytest.approx(1000.0)

    @pytest.mark.parametrize("exposure", [-1.0, 0.0, math.nan, math.inf])
    def test_exposure_must_be_positive_and_finite(self, exposure):
        table = ideal_table("yo13")
        with pytest.raises(ValueError, match=f"^exposure must be positive "
                                             f"and finite, not {exposure}$"):
            simulate_counts(table, exposure, 0)

    @pytest.mark.parametrize("exposure", [-1.0, 0.0, math.nan, math.inf])
    def test_record_refuses_the_same_exposures(self, exposure):
        # an infinite exposure would estimate every probability, and the
        # error bar, as 0: the counts would vanish without an error
        with pytest.raises(ValueError, match=f"^exposure must be positive "
                                             f"and finite, not {exposure}$"):
            CountRecord((5,) * 61, exposure, 0)

    def test_validation(self):
        table = ideal_table("yo13")
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            simulate_counts(table, 1.0, -1)
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            simulate_counts(table, 1.0, 2**64)

    def test_fixed_seed_is_deterministic(self):
        table = ideal_table("yo13")
        first = simulate_counts(table, 1e5, 123456789)
        second = simulate_counts(table, 1e5, 123456789)
        assert first == second

    def test_different_seeds_differ(self):
        table = ideal_table("yo13")
        a = simulate_counts(table, 1e5, 1)
        b = simulate_counts(table, 1e5, 2)
        assert a.counts != b.counts

    def test_zero_probability_gives_zero_counts(self):
        # Ideal edge settings are exactly unpopulated.
        sic = get_set("yo13")
        i, j = orthogonality_graph(sic).edges[0]
        table = one_setting_table((i, j), apply_noise(sic, IDEAL))
        for seed in range(20):
            rec = simulate_counts(table, 1e6, seed)
            assert rec.counts == (0,)

    def test_sample_mean_matches_poisson_moments(self):
        # A single diagonal setting at P = 1/3 and N = 1e6: the mean of
        # C/N over 100 seeds estimates P with standard error
        # sqrt(P/N/100).
        sic = get_set("yo13")
        table = one_setting_table((0, 0), apply_noise(sic, IDEAL))
        n_pairs = 1e6
        values = []
        for seed in range(100):
            values.append(simulate_counts(table, n_pairs, seed).counts[0]
                          / n_pairs)
        p = 1.0 / 3.0
        band = 3.0 * math.sqrt(p / n_pairs / 100.0)
        assert abs(np.mean(values) - p) < band

    def test_counts_are_one_draw_from_the_run_stream(self):
        # run_experiment draws from the very table predict writes
        sic = get_set("ks18")
        cfg = NoiseConfig(visibility=0.9, crosstalk=0.02)
        record, _, _ = run_experiment(sic, cfg, 3e4, 2024)
        rng = np.random.default_rng(
            np.random.SeedSequence([2024, _COUNTS_STREAM]))
        means = 3e4 * expected_bell_value(sic, cfg)[1].values
        assert record.counts == tuple(rng.poisson(means).tolist())
        assert _COUNTS_STREAM != _BOOTSTRAP_STREAM

    def test_overflow_guard(self):
        sic = get_set("yo13")
        table = one_setting_table((0, 0), apply_noise(sic, IDEAL))
        # a third of 2.767e19 lies above numpy's largest Poisson mean,
        # 2**63 - 10 sqrt(2**63), but below 2**63
        for exposure in (5e19, 2.7670116030e19):
            with pytest.raises(OverflowError, match="exceeds the counter range"):
                simulate_counts(table, exposure, 0)


class TestEstimateProbabilities:
    def test_normalization_and_errors(self):
        rec = CountRecord(counts=(333333, 1000000, 0, 4), exposure=1e6, seed=5)
        table = estimate_probabilities(rec)
        assert table.values[0] == pytest.approx(0.333333)
        assert table.sigmas[0] == pytest.approx(math.sqrt(333333) / 1e6)
        assert table.sigmas[0] == pytest.approx(5.77e-4, rel=1e-3)
        assert table.values[1] == pytest.approx(1.0)
        assert table.values[2] == 0.0
        assert table.sigmas[2] == pytest.approx(1e-6)
        assert table.sigmas[3] == pytest.approx(2.0 / 1e6)

    def test_incomplete_coverage_rejected(self):
        # a record one count short gives a table one value short, and
        # estimate_beta refuses both by their length
        sic = get_set("yo13")
        record, table, _ = run_experiment(sic, IDEAL, 1e4, 0)
        rec = CountRecord(record.counts[:-1], record.exposure, record.seed)
        partial = estimate_probabilities(rec)
        assert partial.values.tolist() == table.values.tolist()[:-1]
        message = "^60 entries given for the 61 settings of set yo13$"
        with pytest.raises(ValueError, match=message):
            estimate_beta(partial, sic)
        with pytest.raises(ValueError, match=message):
            estimate_beta(table, sic, rec, bootstrap_replicates=10)

    def test_record_validation(self):
        with pytest.raises(ValueError, match="^counts must be nonnegative$"):
            CountRecord((-1,), 10.0, 0)
        with pytest.raises(ValueError, match="^exposure must be positive"):
            CountRecord((1,), 0.0, 0)


def total_squared_coefficient(sic) -> float:
    """Sum of squared signed weights, from the weight table alone."""
    graph = orthogonality_graph(sic)
    diag = sum(w * w for w in sic.weights)
    edge = sum(max(sic.weights[i], sic.weights[j]) ** 2 / 2.0
               for i, j in graph.edges)
    return diag + edge


class TestEstimateBeta:
    def test_exact_table_reproduces_value(self):
        for name in catalog_names():
            sic = get_set(name)
            table = expected_bell_value(sic, IDEAL)[1]
            report = estimate_beta(table, sic)
            assert report.beta_hat == pytest.approx(
                sum(sic.weights) / sic.dimension, abs=1e-12)
            assert report.sigma == 0.0
            assert report.sigmas_of_violation == math.inf
            assert report.p_value == 0.0

    def test_alpha_defaults_to_independence_bound(self):
        expected = {"yo13": 11.0, "ks18": 4.0, "ks21": 3.0}
        for name, alpha in expected.items():
            sic = get_set(name)
            table = expected_bell_value(sic, IDEAL)[1]
            assert estimate_beta(table, sic).alpha == alpha

    def test_plugged_sigmas_propagate(self):
        # With one common per-setting error s, the propagated error is
        # s * sqrt(sum of squared coefficients).
        sic = get_set("yo13")
        graph = orthogonality_graph(sic)
        assert all(max(sic.weights[i], sic.weights[j]) == 3
                   for i, j in graph.edges)
        total = total_squared_coefficient(sic)
        assert total == pytest.approx(97.0 + 24 * 9 / 2.0)
        base = expected_bell_value(sic, IDEAL)[1]
        s = 1e-3
        table = ProbabilityTable(base.values, np.full(base.values.size, s))
        report = estimate_beta(table, sic)
        assert report.sigma == pytest.approx(s * math.sqrt(total), abs=1e-15)

    def test_reported_significance_ratios(self):
        # beta_hat, sigma, alpha -> (beta_hat - alpha)/sigma for the three
        # operating points: 0.573/0.012, 0.399/0.027, 0.259/0.038.
        cases = {
            "yo13": (11.573, 0.012, 47.75, 48),
            "ks18": (4.399, 0.027, 14.7778, 15),
            "ks21": (3.259, 0.038, 6.8158, 7),
        }
        for name, (target, sig, ratio, rounded) in cases.items():
            sic = get_set(name)
            v = fit_visibility(target, sic)
            table = expected_bell_value(sic, NoiseConfig(visibility=v))[1]
            s = sig / math.sqrt(total_squared_coefficient(sic))
            table = ProbabilityTable(table.values, np.full(table.values.size, s))
            report = estimate_beta(table, sic)
            assert report.beta_hat == pytest.approx(target, abs=1e-9)
            assert report.sigma == pytest.approx(sig, abs=1e-12)
            assert report.sigmas_of_violation == pytest.approx(ratio, abs=1e-3)
            assert round(report.sigmas_of_violation) == rounded
            assert 0.0 <= report.p_value < 1e-10

    def test_wrong_set_rejected(self):
        table = expected_bell_value(get_set("ks18"), IDEAL)[1]
        with pytest.raises(ValueError, match="^144 entries given for the 61 "
                                             "settings of set yo13$"):
            estimate_beta(table, get_set("yo13"))

    def test_bootstrap_needs_record(self):
        sic = get_set("yo13")
        table = expected_bell_value(sic, IDEAL)[1]
        with pytest.raises(ValueError):
            estimate_beta(table, sic, bootstrap_replicates=100)

    def test_bootstrap_agrees_with_gaussian(self):
        # Operate near 2.5 sigma so 1e4 replicates resolve the tail, and
        # require agreement within a factor of 10 on every usable seed.
        sic = get_set("yo13")
        v = fit_visibility(11.15, sic)
        cfg = NoiseConfig(visibility=v)
        n_pairs = exposure_for_sigma(sic, cfg, 0.06)
        checked = 0
        for seed in range(6):
            rec, table, report = run_experiment(
                sic, cfg, n_pairs, seed, bootstrap_replicates=10_000)
            if not 2.0 <= report.sigmas_of_violation <= 3.4:
                continue
            checked += 1
            assert report.bootstrap_p_value is not None
            gauss = report.p_value
            boot = max(report.bootstrap_p_value, 1e-4)
            assert boot / gauss < 10.0
            assert gauss / boot < 10.0
        assert checked >= 2

    def test_bootstrap_memory_is_per_coefficient(self):
        # 50k replicates on ks21: one Poisson per coefficient group is
        # 50k x 2 variates, where one per setting would be 50k x 231
        # (about 185 MB with its scaled copy).
        sic = get_set("ks21")
        tracemalloc.start()
        try:
            _, _, report = run_experiment(sic, IDEAL, 1e4, 5,
                                          bootstrap_replicates=50_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.bootstrap_p_value is not None
        assert peak < 20 * 2**20

    def test_bootstrap_splits_group_totals_beyond_poisson_range(self):
        # At 1e19 pairs per setting the nine weight-3 diagonals of yo13
        # total about 2.7e19 counts, past numpy's largest Poisson mean.
        sic = get_set("yo13")
        _, _, report = run_experiment(sic, NoiseConfig(visibility=0.9), 1e19,
                                      1, bootstrap_replicates=200)
        assert report.beta_hat < report.alpha
        assert report.bootstrap_p_value == 1.0

    def test_bootstrap_is_deterministic(self):
        sic = get_set("ks18")
        _, _, first = run_experiment(sic, IDEAL, 1e4, 99,
                                     bootstrap_replicates=2000)
        _, _, second = run_experiment(sic, IDEAL, 1e4, 99,
                                      bootstrap_replicates=2000)
        assert first == second


class TestStatisticalBehavior:
    def test_estimator_consistency(self):
        # Over 100 seeds the mean of beta_hat stays within
        # 3 sigma / sqrt(100) of the exact expected value.
        for name in catalog_names():
            sic = get_set(name)
            truth, table = expected_bell_value(sic, IDEAL)
            n_pairs = 1e4
            betas = []
            sigmas = []
            for seed in range(100):
                rec = simulate_counts(table, n_pairs, seed)
                rep = estimate_beta(estimate_probabilities(rec), sic)
                betas.append(rep.beta_hat)
                sigmas.append(rep.sigma)
            band = 3.0 * float(np.mean(sigmas)) / 10.0
            assert abs(float(np.mean(betas)) - truth) < band

    def test_sigma_halves_when_exposure_quadruples(self):
        for name in catalog_names():
            sic = get_set(name)
            table = ideal_table(name)
            ratios = []
            for seed in range(5):
                small = estimate_beta(estimate_probabilities(simulate_counts(
                    table, 1e4, seed)), sic)
                large = estimate_beta(estimate_probabilities(simulate_counts(
                    table, 4e4, seed)), sic)
                ratios.append(small.sigma / large.sigma)
            assert abs(float(np.mean(ratios)) - 2.0) < 0.2

    def test_always_significant_at_high_exposure(self):
        # v=1, eps=0, flat spectrum, N = 1e6: the violation clears 5
        # sigma in at least 99 of 100 seeds for every set.
        for name in catalog_names():
            sic = get_set(name)
            table = ideal_table(name)
            hits = 0
            for seed in range(100):
                rep = estimate_beta(estimate_probabilities(
                    simulate_counts(table, 1e6, seed)), sic)
                hits += rep.sigmas_of_violation > 5.0
            assert hits >= 99


class TestFitVisibility:
    def test_endpoints(self):
        for name in catalog_names():
            sic = get_set(name)
            ideal, _ = expected_bell_value(sic, IDEAL)
            mixed, _ = expected_bell_value(sic, NoiseConfig(visibility=0.0))
            assert fit_visibility(ideal, sic) == pytest.approx(1.0, abs=1e-12)
            assert fit_visibility(mixed, sic) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_rejected(self):
        sic = get_set("yo13")
        with pytest.raises(ValueError):
            fit_visibility(12.0, sic)
        with pytest.raises(ValueError):
            fit_visibility(-5.0, sic)

    def test_round_trip_at_operating_point(self):
        sic = get_set("yo13")
        v = fit_visibility(11.573, sic)
        assert 0.9 < v < 1.0
        beta, _ = expected_bell_value(sic, NoiseConfig(visibility=v))
        assert beta == pytest.approx(11.573, abs=1e-12)
        cfg = NoiseConfig(visibility=v)
        n_pairs = exposure_for_sigma(sic, cfg, 0.012)
        _, _, report = run_experiment(sic, cfg, n_pairs, 20240819)
        assert abs(report.beta_hat - 11.573) < 3.0 * 0.012


class TestExposureTuning:
    def test_matches_requested_sigma(self):
        for name, target in (("yo13", 0.012), ("ks18", 0.027), ("ks21", 0.038)):
            sic = get_set(name)
            n_pairs = exposure_for_sigma(sic, IDEAL, target)
            _, _, report = run_experiment(sic, IDEAL, n_pairs, 3)
            assert abs(report.sigma - target) / target < 0.25

    def test_scaling_law(self):
        sic = get_set("ks18")
        assert exposure_for_sigma(sic, IDEAL, 0.01) == pytest.approx(
            4.0 * exposure_for_sigma(sic, IDEAL, 0.02))

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            exposure_for_sigma(get_set("yo13"), IDEAL, 0.0)


class TestSerialization:
    # ks18's ideal table gives beta 4.5 > alpha = 4; at visibility 0 it
    # gives -2.8125 < 4
    @pytest.mark.parametrize("visibility, shown", [(1.0, "inf"), (0.0, "-inf")],
                             ids=["above_alpha", "below_alpha"])
    def test_non_finite_report_field_is_named(self, visibility, shown):
        # a table without sigmas gives sigma 0, so an infinite significance
        sic = get_set("ks18")
        table = expected_bell_value(sic, NoiseConfig(visibility=visibility))[1]
        report = estimate_beta(table, sic)
        with pytest.raises(ValueError, match=f"^report field sigmas_of_violation "
                                             f"is {shown}, "):
            cli._doc(report)

    @staticmethod
    def simulate_yo13(tmp_path, seed):
        """The counts and report files of a CLI run with exposure 1e4."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"set": "yo13", "exposure": 1e4,
                                      "seed": seed}))
        assert cli.main(["simulate", "--config", str(config),
                         "--out", str(tmp_path)]) == 0
        return tuple(json.loads((tmp_path / f"yo13_{kind}.json").read_text())
                     for kind in ("counts", "report"))

    def test_record_json_round_fields(self, tmp_path):
        doc, rdoc = self.simulate_yo13(tmp_path, 11)
        assert doc["set"] == "yo13"
        assert doc["seed"] == 11
        assert len(doc["counts"]) == 61
        assert all(row["count"] >= 0 for row in doc["counts"])
        assert rdoc["alpha"] == 11.0
        assert rdoc["sigmas_of_violation"] == pytest.approx(
            (rdoc["beta_hat"] - 11.0) / rdoc["sigma"])

    def test_record_rebuilt_from_its_counts_file(self, tmp_path):
        # the file's alice/bob columns are the set's own settings, so its
        # count column alone rebuilds the record
        sic = get_set("yo13")
        rec, table, report = run_experiment(sic, IDEAL, 1e4, 0)
        doc, _ = self.simulate_yo13(tmp_path, 0)
        assert [(r["alice"], r["bob"]) for r in doc["counts"]] == list(sic.settings)
        rebuilt = CountRecord(tuple(r["count"] for r in doc["counts"]),
                              doc["exposure"], doc["seed"])
        again = estimate_beta(estimate_probabilities(rebuilt), sic)
        assert again.beta_hat == report.beta_hat
        assert rebuilt == rec
