"""Tests for the counting simulation and violation statistics."""

import json
import math
import statistics
from fractions import Fraction

import numpy as np
import pytest

from sicbell import cli, montecarlo
from sicbell.catalog import catalog_names, get_set, orthogonality_graph
from exact_oracle import poisson_lower_tail
from sicbell.montecarlo import (
    _COUNTS_STREAM,
    _MAX_MEAN,
    _poisson_lower_tail,
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
from sicbell.quantum import ProbabilityTable


IDEAL = NoiseConfig()


def ideal_table(name):
    sic = get_set(name)
    return expected_bell_value(sic, IDEAL)[1]


def one_setting_table(setting, inputs):
    return ProbabilityTable(np.array([inputs.probability(*setting)]))


def with_sigmas(table, s):
    """``table``'s values with one plugged error bar ``s`` per setting."""
    return ProbabilityTable(table.values, np.full(table.values.size, s))


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

    def test_the_largest_poisson_mean_is_drawn(self):
        # _MAX_MEAN is numpy's largest Poisson mean, and a run may draw it
        rng = np.random.default_rng(0)
        assert rng.poisson(_MAX_MEAN) > 0
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(math.nextafter(_MAX_MEAN, math.inf))
        table = ProbabilityTable(np.array([1.0]))
        assert simulate_counts(table, _MAX_MEAN, 0).counts[0] > 0
        with pytest.raises(OverflowError, match="exceeds the counter range"):
            simulate_counts(table, math.nextafter(_MAX_MEAN, math.inf), 0)

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
            estimate_beta(table, sic, rec)

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
            report = estimate_beta(with_sigmas(ideal_table(name), 1e-3), sic)
            assert report.beta_hat == pytest.approx(
                sum(sic.weights) / sic.dimension, abs=1e-12)

    def test_alpha_defaults_to_independence_bound(self):
        expected = {"yo13": 11.0, "ks18": 4.0, "ks21": 3.0}
        for name, alpha in expected.items():
            sic = get_set(name)
            assert estimate_beta(with_sigmas(ideal_table(name), 1e-3), sic).alpha == alpha

    def test_plugged_sigmas_propagate(self):
        # With one common per-setting error s, the propagated error is
        # s * sqrt(sum of squared coefficients).
        sic = get_set("yo13")
        graph = orthogonality_graph(sic)
        assert all(max(sic.weights[i], sic.weights[j]) == 3
                   for i, j in graph.edges)
        total = total_squared_coefficient(sic)
        assert total == pytest.approx(97.0 + 24 * 9 / 2.0)
        s = 1e-3
        report = estimate_beta(with_sigmas(ideal_table("yo13"), s), sic)
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
            report = estimate_beta(with_sigmas(table, s), sic)
            assert report.beta_hat == pytest.approx(target, abs=1e-9)
            assert report.sigma == pytest.approx(sig, abs=1e-12)
            assert report.sigmas_of_violation == pytest.approx(ratio, abs=1e-3)
            assert round(report.sigmas_of_violation) == rounded

    def test_wrong_set_rejected(self):
        table = expected_bell_value(get_set("ks18"), IDEAL)[1]
        with pytest.raises(ValueError, match="^144 entries given for the 61 "
                                             "settings of set yo13$"):
            estimate_beta(table, get_set("yo13"))

    def test_sigmas_of_the_wrong_length_rejected(self):
        # the sigmas are checked like the values: one short and one long
        sic = get_set("yo13")
        values = expected_bell_value(sic, IDEAL)[1].values
        for size in (60, 62):
            table = ProbabilityTable(values, np.full(size, 1e-3))
            with pytest.raises(ValueError, match=f"^{size} entries given for "
                                                 "the 61 settings of set yo13$"):
                estimate_beta(table, sic)

    def test_a_table_without_sigmas_is_refused(self):
        # the exact table has no error bars, so no significance (the size
        # checks come first: test_wrong_set_rejected passes it too)
        with pytest.raises(ValueError, match="^the table for set ks18 has no error bars$"):
            estimate_beta(ideal_table("ks18"), get_set("ks18"))

    def test_an_error_bar_of_zero_is_refused(self):
        # all-zero counts give sigma = 1/N per setting, whose square
        # underflows to 0 at N = 1e162; a plugged 0 is refused alike
        sic = get_set("yo13")
        message = "^exposure too large: the error bar of beta_hat underflows to 0$"
        for exposure in (1e162, 1e300):
            record = CountRecord((0,) * len(sic.settings), exposure, 0)
            with pytest.raises(ArithmeticError, match=message):
                estimate_beta(estimate_probabilities(record), sic, record)
        with pytest.raises(ArithmeticError, match=message):
            estimate_beta(with_sigmas(ideal_table("yo13"), 0.0), sic)
        # at N = 1e150 the error bar is about 1e-149: positive, and z finite
        record = CountRecord((0,) * len(sic.settings), 1e150, 0)
        report = estimate_beta(estimate_probabilities(record), sic, record)
        assert report.sigma > 0 and report.sigmas_of_violation < -1e100

    @pytest.mark.parametrize("target", [11.5, 10.5])
    def test_z_is_the_signed_distance_in_sigmas(self, target):
        # at a moderate z, above alpha and below it, z = (beta_hat - alpha)/sigma
        sic = get_set("yo13")
        table = expected_bell_value(sic, NoiseConfig(visibility=fit_visibility(target, sic)))[1]
        s = 0.3 / math.sqrt(total_squared_coefficient(sic))
        report = estimate_beta(with_sigmas(table, s), sic)
        assert report.sigma == pytest.approx(0.3, rel=1e-12)
        assert report.sigmas_of_violation == pytest.approx((target - 11.0) / 0.3, rel=1e-9)

    def test_poisson_p_value_needs_record(self):
        sic = get_set("yo13")
        assert estimate_beta(with_sigmas(ideal_table("yo13"), 1e-3), sic).poisson_p_value is None

    def test_poisson_tail_agrees_with_gaussian(self):
        # Operate near 2.5 sigma and require agreement within a factor
        # of 10 on every usable seed.
        sic = get_set("yo13")
        v = fit_visibility(11.15, sic)
        cfg = NoiseConfig(visibility=v)
        n_pairs = exposure_for_sigma(sic, cfg, 0.06)
        checked = 0
        for seed in range(6):
            rec, table, report = run_experiment(sic, cfg, n_pairs, seed)
            if not 2.0 <= report.sigmas_of_violation <= 3.4:
                continue
            checked += 1
            gauss = statistics.NormalDist().cdf(-report.sigmas_of_violation)
            tail = report.poisson_p_value
            assert tail / gauss < 10.0
            assert gauss / tail < 10.0
        assert checked >= 2

    def test_poisson_tail_takes_group_totals_beyond_poisson_range(self):
        # At 1e19 pairs per setting the nine weight-3 diagonals of yo13
        # total about 2.7e19 counts, past numpy's largest Poisson mean.
        sic = get_set("yo13")
        _, _, report = run_experiment(sic, NoiseConfig(visibility=0.9), 1e19, 1)
        assert report.beta_hat < report.alpha
        assert report.poisson_p_value == 1.0

    def test_run_is_deterministic(self):
        sic = get_set("ks18")
        record, _, report = run_experiment(sic, IDEAL, 1e4, 99)
        again, _, second = run_experiment(sic, IDEAL, 1e4, 99)
        assert (again, second) == (record, report)

    @pytest.mark.parametrize("levels, totals", [
        ((-0.5, 1), (10, 20)), ((-0.5, 1), (20, 10)), ((-0.5, 1), (100, 200)),
        ((-1.5, 2, 3), (10, 12, 15)), ((-1.5, 2, 3), (40, 10, 10)),
        ((-1.5, 2, 3), (60, 20, 30)), ((-0.5, 0.5), (10, 20))])
    def test_poisson_tail_matches_exact_oracle(self, levels, totals):
        # the saddle point against the exact tail, from 4 sigma below the
        # mean to 4 above, on lattice points and between them
        mean = sum(l * n for l, n in zip(levels, totals))
        sd = math.sqrt(sum(l * l * n for l, n in zip(levels, totals)))
        for z in np.linspace(-4.0, 4.0, 33):
            bound = float(mean + z * sd)
            exact = poisson_lower_tail(levels, totals, Fraction(bound))
            tail = _poisson_lower_tail(levels, totals, bound)
            if exact >= 1e-12:
                assert tail == pytest.approx(exact, rel=2e-3), z

    def test_poisson_tail_at_the_edges(self):
        # a bound outside the support is exact, an empty group adds
        # nothing, and at the mean the formula takes its limit
        assert _poisson_lower_tail((1.0, 2.0), (5, 7), -0.5) == 0.0
        assert _poisson_lower_tail((-1.0, -2.0), (5, 7), 0.0) == 1.0
        assert _poisson_lower_tail((-0.5, 1.0), (0, 0), 0.0) == 1.0
        assert (_poisson_lower_tail((-0.5, 1.0, 3.0), (30, 40, 0), 5.0)
                == _poisson_lower_tail((-0.5, 1.0), (30, 40), 5.0))
        # x + delta/2 = 26 + 1/4 is the mean of -N1/2 + N2 + 2 N3, and the
        # limit there is the formula's value beside it
        levels = (-0.5, 1.0, 2.0)
        at_mean = _poisson_lower_tail(levels, (8, 10, 10.125), 26.0)
        beside = _poisson_lower_tail(levels, (8, 10, 10.125 + 1e-6), 26.0)
        assert at_mean != beside
        assert at_mean == pytest.approx(beside, abs=1e-6)

    @pytest.mark.parametrize("levels, totals, delta, bound", [
        ((-1.0, -3.0), (1.762027271390825e18, 104471918757.0), 1, -1.7620275909186583e18),
        ((-0.5, 3.0, 9.0), (532260616082360.0, 68152357814.0, 193328975.0), 0.5,
         -265924143355857.34),
        ((2.0, 1.0), (8.030218105775832e17, 5.555521727960732e17), 1, 2.161595780286026e18),
        ((0.5, -5.0), (1.2566574461793567e19, 1.1667958500879772e19), 0.5,
         -5.205650528468222e19)])
    def test_poisson_tail_at_totals_past_float_resolution(self, levels, totals, delta,
                                                          bound):
        # at totals near 1e18 the rounding of K' - s is far above 1e-10 sd,
        # and Newton stops once K' - s is within a few ulps of its terms; the
        # tail matches the normal limit with its skew term, exact here to far
        # below 1e-4
        mean, var, third = (sum(Fraction(l)**k * Fraction(n) for l, n in zip(levels, totals))
                            for k in (1, 2, 3))
        x = delta * math.floor(Fraction(bound) / Fraction(delta))
        z = float(x + Fraction(delta) / 2 - mean) / math.sqrt(var)
        normal = statistics.NormalDist()
        limit = normal.cdf(z) - normal.pdf(z) * float(third) / float(var)**1.5 / 6 * (z * z - 1)
        assert _poisson_lower_tail(levels, totals, bound) == pytest.approx(limit, rel=1e-4)

    def test_newton_stops_where_rounding_moves_k_prime(self, monkeypatch):
        # ks18 at 1e12 pairs per setting and the visibility whose beta is
        # alpha: group totals near 1e12 put K' - s's rounding above 1e-10
        # sd, where a stop test on w alone let Newton jitter about the root
        # for all 100 iterations.  The spy counts the loop's iterations
        drawn = []

        def counting_range(*args):
            for k in range(*args):
                drawn.append(k)
                yield k

        sic = get_set("ks18")
        cfg = NoiseConfig(visibility=fit_visibility(4.0, sic))
        monkeypatch.setattr(montecarlo, "range", counting_range, raising=False)
        _, _, report = run_experiment(sic, cfg, 1e12, 5)
        assert 1 <= len(drawn) <= 10
        assert -0.2 < report.sigmas_of_violation < -0.19
        assert report.poisson_p_value == pytest.approx(0.5777019443, rel=1e-6)

    def test_poisson_tail_at_a_bound_of_zero(self):
        # 0 lies inside the support of positive levels, where the tail is
        # P(all N_k = 0) = e^-12, not 0; the saddle point is 13% low there
        assert _poisson_lower_tail((1.0, 2.0), (5, 7), 0.0) == pytest.approx(
            math.exp(-12), rel=0.15)

    @pytest.mark.parametrize("levels, totals, bound, tail", [
        ((1.0, -0.5), (1, 1), 1e6, 1.0), ((1.0, -0.5), (3, 5), 5e4, 1.0),
        ((1.0, -0.5), (3, 5), -5e4, 0.0),
        ((1.0,), (1,), 6052.6, 1.0), ((0.5,), (1,), 359.1, 1.0),
        ((1.0, 0.5), (5, 9), 8884.1, 1.0), ((-1.5,), (1,), -3907.3, 0.0),
        ((-0.5, -0.5), (11, 32), -24676.3, 0.0),
        ((2.0, 3.0, -0.5), (4, 179664, 542), -11712108.5, 0.0)])
    def test_poisson_tail_far_from_the_mean(self, levels, totals, bound, tail):
        # a bound thousands of sigma out leaves K' flat at t = 0, where a
        # plain Newton step throws t past exp's range; the step limit keeps
        # it in range and the tail saturates.  The last six overflow
        # without the limit among 24,000 random inputs
        assert _poisson_lower_tail(levels, totals, bound) == tail

    def test_all_counts_zero(self, tmp_path, capsys):
        # an exposure of 1e-3 pairs per setting on yo13 clicks nowhere:
        # beta* is 0 <= alpha for certain
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"set": "yo13", "exposure": 1e-3}))
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
        counts = json.loads((tmp_path / "yo13_counts.json").read_text())["counts"]
        assert {row["count"] for row in counts} == {0}
        doc = json.loads((tmp_path / "yo13_report.json").read_text())
        assert doc["poisson_p_value"] == 1.0
        assert "  Poisson p = 1\n" in capsys.readouterr().out

    @pytest.mark.parametrize("name", catalog_names())
    def test_a_run_draws_only_its_counts(self, monkeypatch, tmp_path, capsys, name):
        # one Generator per run, and one Poisson variate per setting from it
        made = []

        class Spy:
            def __init__(self, rng):
                self.rng, self.variates, self.methods = rng, 0, []

            def __getattr__(self, method):
                self.methods.append(method)
                return getattr(self.rng, method)

            def poisson(self, *args, **kwargs):
                out = self.rng.poisson(*args, **kwargs)
                self.variates += np.size(out)
                return out

        default_rng = np.random.default_rng

        def spy_rng(*args):
            made.append(Spy(default_rng(*args)))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", spy_rng)
        assert cli.main(["simulate", "--set", name, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(made) == 1
        assert made[0].variates == len(get_set(name).settings)
        assert made[0].methods == []


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

    def test_a_target_within_1e_12_of_the_range_fits_its_end(self):
        # rounding can put an expected value a few ulps outside the range:
        # within 1e-12 of an end, inclusive, the visibility is clamped to
        # it, and beyond that the target is refused
        sic = get_set("yo13")
        ideal = sum(sic.weights) / sic.dimension
        mixed = float(sic.coefficients.sum()) / sic.dimension**2
        assert fit_visibility(ideal + 1e-12, sic) == 1.0
        assert fit_visibility(mixed - 1e-12, sic) == 0.0
        for outside in (ideal + 1.1e-12, mixed - 1.1e-12):
            with pytest.raises(ValueError, match="outside the reachable range"):
                fit_visibility(outside, sic)

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
        for target in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^sigma_target must be positive "
                                                 f"and finite, not {target}$"):
                exposure_for_sigma(get_set("yo13"), IDEAL, target)


class TestSerialization:
    # ks18's ideal beta 4.5 > alpha = 4, and -2.8125 < 4 at visibility 0
    @pytest.mark.parametrize("beta_hat, z, shown", [(4.5, math.inf, "inf"),
                                                    (-2.8125, -math.inf, "-inf")],
                             ids=["above_alpha", "below_alpha"])
    def test_non_finite_report_field_is_named(self, beta_hat, z, shown):
        # estimate_beta refuses sigma = 0, so the infinite z is built by hand
        report = ViolationReport("ks18", beta_hat, 5e-324, 4.0, z, 0.5)
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
