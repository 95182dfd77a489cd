"""Tests for the imperfection models."""

import math
import random

import numpy as np
import pytest

from sicbell.catalog import catalog_names, get_set, orthogonality_graph
from sicbell.noise import (
    NoiseConfig,
    PredictionInputs,
    SchmidtSpectrum,
    apply_noise,
    default_modes,
    expected_bell_value,
    measurement_effects,
    prediction_table,
    procrustean_filter,
    schmidt_state,
    spiral_spectrum,
    uniform_spectrum,
)
from sicbell.quantum import bell_value, max_entangled_state

from exact_oracle import validate_state


def reduced_state(rho: np.ndarray, d: int) -> np.ndarray:
    """Partial trace over the second arm."""
    return np.einsum("ikjk->ij", rho.reshape(d, d, d, d))


def mixed_value(sic) -> float:
    """The functional at the maximally mixed state, from first principles."""
    graph = orthogonality_graph(sic)
    total = sum(sic.weights)
    edge_sum = sum(max(sic.weights[i], sic.weights[j]) for i, j in graph.edges)
    return (total - edge_sum) / sic.dimension**2


class TestSpectra:
    def test_uniform_spectrum(self):
        spec = uniform_spectrum((-3, 0, 3))
        assert spec.dimension == 3
        assert np.allclose(spec.amplitudes, 1.0 / math.sqrt(3.0))
        assert abs(sum(np.square(spec.amplitudes)) - 1.0) < 1e-12

    def test_spiral_flat_limit(self):
        spec = spiral_spectrum(math.inf, (-3, 0, 3))
        assert np.allclose(spec.amplitudes, 1.0 / math.sqrt(3.0), atol=1e-15)

    def test_spiral_matches_direct_formula(self):
        width = 1.7
        modes = (-4, -1, 1, 4)
        raw = [math.exp(-(m * m) / (2.0 * width * width)) for m in modes]
        norm = math.sqrt(sum(r * r for r in raw))
        spec = spiral_spectrum(width, modes)
        assert np.allclose(spec.amplitudes, [r / norm for r in raw], atol=1e-14)

    def test_spiral_center_peaked(self):
        spec = spiral_spectrum(2.0, (-3, 0, 3))
        c = dict(zip(spec.modes, spec.amplitudes))
        assert c[0] > c[-3]
        assert c[-3] == pytest.approx(c[3], abs=1e-15)
        assert abs(sum(a * a for a in spec.amplitudes) - 1.0) < 1e-12

    def test_spiral_even_symmetry_d4(self):
        spec = spiral_spectrum(2.0, (-4, -1, 1, 4))
        c = dict(zip(spec.modes, spec.amplitudes))
        assert c[-1] == pytest.approx(c[1], abs=1e-15)
        assert c[-4] == pytest.approx(c[4], abs=1e-15)
        assert c[1] > c[4]

    def test_spiral_narrow_width_stays_finite(self):
        spec = spiral_spectrum(0.05, (-3, -2, -1, 1, 2, 3))
        amps = np.array(spec.amplitudes)
        assert np.all(np.isfinite(amps))
        assert abs(float(amps @ amps) - 1.0) < 1e-12
        c = dict(zip(spec.modes, spec.amplitudes))
        assert c[1] > c[2] > c[3]

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            spiral_spectrum(2.0, ())
        with pytest.raises(ValueError):
            spiral_spectrum(0.0, (-3, 0, 3))
        with pytest.raises(ValueError):
            spiral_spectrum(-1.0, (-3, 0, 3))
        with pytest.raises(ValueError):
            SchmidtSpectrum((0, 0, 1), (0.6, 0.6, 0.5291502622129181))
        with pytest.raises(ValueError):
            SchmidtSpectrum((0, 1), (0.9, 0.1))
        with pytest.raises(ValueError):
            SchmidtSpectrum((0, 1), (-0.6, 0.8))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_amplitude_rejected(self, bad):
        # NaN slips past both the sign and the normalisation comparisons
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            SchmidtSpectrum((-3, 0, 3), (bad, 0.5, 0.5))

    def test_default_modes(self):
        assert default_modes(3) == (-3, 0, 3)
        assert default_modes(4) == (-4, -1, 1, 4)
        assert default_modes(6) == (-3, -2, -1, 1, 2, 3)
        assert default_modes(5) == (-2, -1, 0, 1, 2)
        assert default_modes(2) == (-1, 1)


class TestSchmidtState:
    def test_uniform_equals_max_entangled(self):
        for d in (3, 4, 6):
            state = schmidt_state(uniform_spectrum(default_modes(d)))
            ideal = max_entangled_state(d)
            assert np.allclose(state, ideal, atol=1e-15)

    def test_product_state_limit(self):
        spec = SchmidtSpectrum((-3, 0, 3), (1.0, 0.0, 0.0))
        state = schmidt_state(spec)
        yo13 = get_set("yo13")
        beta, _ = bell_value(yo13, state)
        assert beta <= 35.0 / 3.0 + 1e-9
        red = reduced_state(state, 3)
        assert abs(np.trace(red @ red).real - 1.0) < 1e-12

    def test_reduced_eigenvalues_are_schmidt_weights(self):
        rng = random.Random(20240818)
        for _ in range(20):
            d = rng.choice((3, 4, 6))
            raw = np.array([rng.random() + 0.05 for _ in range(d)])
            amps = raw / math.sqrt(float(raw @ raw))
            spec = SchmidtSpectrum(default_modes(d), tuple(amps))
            state = schmidt_state(spec)
            validate_state(state, d)
            eigs = np.sort(np.linalg.eigvalsh(reduced_state(state, d)))
            assert np.allclose(eigs, np.sort(np.square(spec.amplitudes)),
                               atol=1e-12)


class TestProcrustean:
    def test_uniform_passes_through(self):
        spec = uniform_spectrum(default_modes(4))
        out, success = procrustean_filter(spec)
        assert out == spec
        assert success == pytest.approx(1.0, abs=1e-12)

    def test_known_success_probabilities(self):
        spec = SchmidtSpectrum(
            (-3, 0, 3),
            (math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)))
        out, success = procrustean_filter(spec)
        assert success == pytest.approx(0.6, abs=1e-12)
        assert np.allclose(out.amplitudes, 1.0 / math.sqrt(3.0))

        two = SchmidtSpectrum((-1, 1), (math.sqrt(0.9), math.sqrt(0.1)))
        _, success2 = procrustean_filter(two)
        assert success2 == pytest.approx(0.2, abs=1e-12)

    def test_success_is_filtered_state_norm(self):
        # The attenuator multiplies each amplitude by t_l = c_min / c_l;
        # the success probability must equal the squared norm of that
        # unnormalized filtered state.
        rng = random.Random(77)
        for _ in range(30):
            d = rng.choice((3, 4, 6))
            raw = np.array([rng.random() + 0.02 for _ in range(d)])
            amps = raw / math.sqrt(float(raw @ raw))
            spec = SchmidtSpectrum(default_modes(d), tuple(amps))
            out, success = procrustean_filter(spec)
            c = np.array(spec.amplitudes)
            filtered = c * (c.min() / c)
            assert success == pytest.approx(float(filtered @ filtered), abs=1e-12)
            assert success <= 1.0 + 1e-12
            assert np.allclose(out.amplitudes, 1.0 / math.sqrt(d))

    def test_output_entropy_is_maximal(self):
        spec = spiral_spectrum(1.2, default_modes(6))
        out, _ = procrustean_filter(spec)
        weights = np.sort(np.linalg.eigvalsh(
            reduced_state(schmidt_state(out), 6)))
        entropy = -sum(w * math.log(w) for w in weights if w > 0)
        assert entropy == pytest.approx(math.log(6), abs=1e-10)

    def test_success_one_only_for_uniform(self):
        spec = spiral_spectrum(3.0, (-3, 0, 3))
        _, success = procrustean_filter(spec)
        assert success < 1.0

    def test_zero_amplitude_rejected(self):
        spec = SchmidtSpectrum((-3, 0, 3), (1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            procrustean_filter(spec)


class TestNoiseConfig:
    def test_defaults_are_ideal(self):
        cfg = NoiseConfig()
        assert cfg.visibility == 1.0
        assert cfg.crosstalk == 0.0
        assert cfg.spectrum is None

    def test_range_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(visibility=1.2)
        with pytest.raises(ValueError):
            NoiseConfig(visibility=-0.1)
        with pytest.raises(ValueError):
            NoiseConfig(crosstalk=1.0)
        with pytest.raises(ValueError):
            NoiseConfig(crosstalk=-0.2)

    def test_spectrum_dimension_mismatch(self):
        cfg = NoiseConfig(spectrum=uniform_spectrum((-1, 1)))
        with pytest.raises(ValueError):
            apply_noise(get_set("yo13"), cfg)


class TestApplyNoise:
    def test_ideal_config_reproduces_ideal_value(self):
        for name in catalog_names():
            sic = get_set(name)
            beta, table = expected_bell_value(sic, NoiseConfig())
            assert beta == pytest.approx(
                sum(sic.weights) / sic.dimension, abs=1e-12)
            assert np.all(table.values >= 0.0)
            assert np.all(table.values <= 1.0)

    def test_zero_visibility_gives_mixed_value(self):
        for name in catalog_names():
            sic = get_set(name)
            beta, _ = expected_bell_value(sic, NoiseConfig(visibility=0.0))
            assert beta == pytest.approx(mixed_value(sic), abs=1e-12)

    def test_mixed_values_match_fractions(self):
        assert mixed_value(get_set("yo13")) == pytest.approx(-37.0 / 9.0)
        assert mixed_value(get_set("ks18")) == pytest.approx(-45.0 / 16.0)
        assert mixed_value(get_set("ks21")) == pytest.approx(-84.0 / 36.0)

    def test_affine_and_increasing_in_visibility(self):
        for name in catalog_names():
            sic = get_set(name)
            ideal = sum(sic.weights) / sic.dimension
            mixed = mixed_value(sic)
            previous = None
            for v in np.linspace(0.0, 1.0, 10):
                beta, _ = expected_bell_value(sic, NoiseConfig(visibility=v))
                assert beta == pytest.approx(
                    v * ideal + (1.0 - v) * mixed, abs=1e-12)
                if previous is not None:
                    assert beta > previous
                previous = beta

    def test_decreasing_in_crosstalk(self):
        # beta is quadratic in the crosstalk and turns back up near
        # eps ~ 0.85 (the leaked effects start resembling the complement
        # family), so monotonicity is asserted on the physical range.
        for name in catalog_names():
            sic = get_set(name)
            previous = None
            for eps in np.linspace(0.0, 0.6, 10):
                beta, _ = expected_bell_value(sic, NoiseConfig(crosstalk=eps))
                if previous is not None:
                    assert beta < previous
                previous = beta

    def test_crosstalk_closed_form(self):
        # With the maximally entangled state, P_ij = Tr[E_i E_j]/d and the
        # effects are alpha P + gamma (I - P) with alpha = 1-eps and
        # gamma = eps/(d-1), which gives a two-parameter quadratic for the
        # functional.  The full trace evaluation must match it exactly.
        for name in catalog_names():
            sic = get_set(name)
            graph = orthogonality_graph(sic)
            d = sic.dimension
            wsum = sum(sic.weights)
            esum = sum(max(sic.weights[i], sic.weights[j])
                       for i, j in graph.edges)
            for eps in np.linspace(0.0, 0.9, 10):
                beta, _ = expected_bell_value(sic, NoiseConfig(crosstalk=eps))
                a, g = 1.0 - eps, eps / (d - 1)
                closed = (wsum * (a * a + g * g * (d - 1))
                          - esum * (2.0 * a * g + g * g * (d - 2))) / d
                assert beta == pytest.approx(closed, abs=1e-12)

    def test_effects_are_valid_povm_elements(self):
        sic = get_set("ks18")
        for eps in (0.0, 0.1, 0.5, 0.9):
            effects = measurement_effects(sic, eps)
            # the second arm measures the entrywise conjugates
            for fam in (effects, effects.conj()):
                for e in fam:
                    assert np.allclose(e, e.conj().T, atol=1e-12)
                    eigs = np.linalg.eigvalsh(e)
                    assert eigs.min() >= -1e-12
                    assert eigs.max() <= 1.0 + 1e-12

    def test_crosstalk_range_rejected(self):
        with pytest.raises(ValueError):
            measurement_effects(get_set("yo13"), 1.0)

    def test_threshold_visibility_by_bisection(self):
        yo13 = get_set("yo13")
        ideal = 35.0 / 3.0
        mixed = mixed_value(yo13)
        closed_form = (11.0 - mixed) / (ideal - mixed)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            beta, _ = expected_bell_value(yo13, NoiseConfig(visibility=mid))
            if beta < 11.0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(closed_form, abs=1e-9)

    def test_spectrum_feeds_through(self):
        yo13 = get_set("yo13")
        spec = spiral_spectrum(1.5, default_modes(3))
        beta_narrow, _ = expected_bell_value(yo13, NoiseConfig(spectrum=spec))
        beta_flat, _ = expected_bell_value(yo13, NoiseConfig())
        assert beta_narrow < beta_flat
        concentrated, _ = procrustean_filter(spec)
        beta_fixed, _ = expected_bell_value(
            yo13, NoiseConfig(spectrum=concentrated))
        assert beta_fixed == pytest.approx(beta_flat, abs=1e-12)

    def test_prediction_inputs_probability_clamps(self):
        sic = get_set("yo13")
        inputs = apply_noise(sic, NoiseConfig())
        graph = orthogonality_graph(sic)
        i, j = graph.edges[0]
        assert inputs.probability(i, j) == pytest.approx(0.0, abs=1e-12)
        assert inputs.probability(i, i) == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("setting", [(-13, 0), (0, -1), (13, 0), (0, 13),
                                         (-14, 20)])
    def test_out_of_range_setting_rejected(self, setting):
        # a negative index must not wrap round to a real ray
        inputs = apply_noise(get_set("yo13"), NoiseConfig())
        message = rf"setting \({setting[0]}, {setting[1]}\) out of range"
        with pytest.raises(ValueError, match=message):
            inputs.probabilities([(0, 0), setting])
        with pytest.raises(ValueError, match=message):
            inputs.probability(*setting)

    def test_prediction_table_matches_bell_value(self):
        sic = get_set("ks21")
        inputs = apply_noise(sic, NoiseConfig())
        table = prediction_table(sic, inputs)
        _, ideal_table = bell_value(sic, max_entangled_state(6))
        assert np.allclose(table.values, ideal_table.values, atol=1e-12)
