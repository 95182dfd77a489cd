"""Imperfection models for photon-pair realizations of the catalog sets.

The ideal experiment prepares a maximally entangled state and measures
conjugate rank-1 projectors on the two arms.  Real sources and mode
analyzers fall short in a few specific ways, each modeled here by one
tunable parameter:

* finite source bandwidth: the two-photon amplitude over the chosen mode
  ladder is center-peaked rather than flat (``spiral_spectrum``),
* entanglement concentration: a filter on one arm flattens the spectrum
  at the cost of throughput (``procrustean_filter``),
* white noise: the state is mixed with the maximally mixed background,
  weight ``1 - visibility``,
* analyzer crosstalk: each projective effect leaks uniformly into its
  orthogonal complement with weight ``epsilon``.

``apply_noise`` composes all of these into the state, a plain (d^2, d^2)
density matrix, and the first arm's measurement effects (built on
``SicSet.projectors``) that the Monte Carlo layer samples from; the
second arm's conjugate effects are formed only in
:func:`sicbell.quantum.born_probabilities`.
``expected_bell_value(sic, IDEAL)`` is the general path to the ideal
prediction and the tests' reference for its closed form,
``SicSet.ideal_probabilities`` and beta = sum(w) / d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .catalog import SicSet
from .quantum import ProbabilityTable, born_probabilities

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Amplitudes of a two-photon state over a ladder of paired modes.

    ``modes`` lists the mode label carried by the photon in arm A; the
    partner photon carries the opposite label, so one integer indexes the
    pair.  ``amplitudes`` are the nonnegative Schmidt coefficients in the
    same order and must be normalized: sum of squares equal to 1.
    """

    modes: tuple[int, ...]
    amplitudes: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(int(m) for m in self.modes))
        object.__setattr__(self, "amplitudes",
                           tuple(float(a) for a in self.amplitudes))
        if not self.modes:
            raise ValueError("spectrum needs at least one mode")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("mode labels must be distinct")
        if len(self.amplitudes) != len(self.modes):
            raise ValueError("one amplitude per mode required")
        if not all(math.isfinite(a) for a in self.amplitudes):
            raise ValueError("amplitudes must be finite")
        if any(a < 0 for a in self.amplitudes):
            raise ValueError("amplitudes must be nonnegative")
        total = sum(a * a for a in self.amplitudes)
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"squared amplitudes sum to {total}, expected 1")

    @property
    def dimension(self) -> int:
        return len(self.modes)


def default_modes(d: int) -> tuple[int, ...]:
    """The mode ladder used for each catalog dimension.

    The spacings mirror the experimental choice of well-separated labels
    (larger gaps suppress analyzer crosstalk).  Dimensions without a
    tabulated ladder fall back to consecutive labels centered on zero.
    """
    table = {
        3: (-3, 0, 3),
        4: (-4, -1, 1, 4),
        6: (-3, -2, -1, 1, 2, 3),
    }
    if d in table:
        return table[d]
    if d < 1:
        raise ValueError("dimension must be positive")
    half = d // 2
    if d % 2:
        return tuple(range(-half, half + 1))
    return tuple(m for m in range(-half, half + 1) if m != 0)


def uniform_spectrum(modes: Sequence[int]) -> SchmidtSpectrum:
    """The flat spectrum: every mode pair equally weighted."""
    modes = tuple(modes)
    if not modes:
        raise ValueError("spectrum needs at least one mode")
    c = 1.0 / math.sqrt(len(modes))
    return SchmidtSpectrum(modes, (c,) * len(modes))


def spiral_spectrum(width: float, modes: Sequence[int]) -> SchmidtSpectrum:
    """Gaussian mode spectrum c_l proportional to exp(-l^2 / (2 width^2)).

    ``width`` sets the bandwidth of the source: small widths concentrate
    the amplitude on the low-order modes, while ``width = inf`` gives the
    flat spectrum.  Amplitudes are normalized over the selected modes.
    """
    modes = tuple(int(m) for m in modes)
    if not modes:
        raise ValueError("spectrum needs at least one mode")
    if not width > 0:
        raise ValueError("width must be positive")
    if not 2.0 * width * width > 0:
        raise ValueError(f"width {width} is too small: its square underflows")
    sq = np.array([float(m) * float(m) for m in modes])
    # Shift exponents so the largest amplitude is exactly 1 before
    # normalizing; this keeps narrow widths from underflowing to all zeros.
    expo = -(sq - sq.min()) / (2.0 * width * width)
    amps = np.exp(expo)
    amps /= math.sqrt(float(amps @ amps))
    return SchmidtSpectrum(modes, tuple(amps))


def schmidt_state(spec: SchmidtSpectrum) -> np.ndarray:
    """The pure two-photon state with the given Schmidt coefficients, as
    its (d^2, d^2) density matrix.

    Mode pairs map to matching computational indices on the two arms, so
    the state vector is sum_k c_k |k>|k> and the flat spectrum reproduces
    the maximally entangled state.
    """
    d = spec.dimension
    psi = np.zeros(d * d, dtype=complex)
    for k, c in enumerate(spec.amplitudes):
        psi[k * d + k] = c
    return np.outer(psi, psi.conj())


def procrustean_filter(spec: SchmidtSpectrum) -> tuple[SchmidtSpectrum, float]:
    """Flatten a spectrum by attenuating every mode down to the weakest.

    One arm passes through a mode-dependent attenuator with amplitude
    transmission t_l = min_k c_k / c_l, which equalizes all coefficients.
    Returns the concentrated (uniform) spectrum and the success
    probability d * min_k |c_k|^2, the fraction of pairs surviving the
    filter.  Fails if any coefficient is zero, since a missing mode can
    not be repopulated by attenuation.
    """
    if any(a == 0.0 for a in spec.amplitudes):
        raise ValueError("cannot concentrate a spectrum with a zero amplitude")
    c_min = min(spec.amplitudes)
    success = spec.dimension * c_min * c_min
    return uniform_spectrum(spec.modes), success


@dataclass(frozen=True)
class NoiseConfig:
    """Imperfection parameters for one simulated run.

    ``visibility`` is the weight of the intended two-photon state against
    the maximally mixed background.  ``crosstalk`` is the probability that
    an analyzer click came from the orthogonal complement of the selected
    mode rather than the mode itself.  ``spectrum`` overrides the source
    amplitudes; ``None`` means the flat (maximally entangled) spectrum.
    """

    visibility: float = 1.0
    crosstalk: float = 0.0
    spectrum: Optional[SchmidtSpectrum] = None

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility {self.visibility} outside [0, 1]")
        if not 0.0 <= self.crosstalk < 1.0:
            raise ValueError(f"crosstalk {self.crosstalk} outside [0, 1)")


IDEAL = NoiseConfig()


@dataclass(frozen=True)
class PredictionInputs:
    """State and measurement effects ready for probability evaluation.

    ``state`` is the (d^2, d^2) density matrix.  ``effects[i]`` is the
    POVM element for selecting ray i on arm A, stacked as an (n, d, d)
    array; arm B selects ray j with its entrywise conjugate, which
    :func:`sicbell.quantum.born_probabilities` forms.  The joint click
    probability for setting (i, j) is Tr[rho (A_i x A_j*)].
    """

    state: np.ndarray
    effects: np.ndarray = field(repr=False)

    def probabilities(self, settings: Sequence[tuple[int, int]]) -> np.ndarray:
        """Click probabilities for every setting, in the given order."""
        return born_probabilities(self.state, self.effects, settings)

    def probability(self, i: int, j: int) -> float:
        return float(self.probabilities([(i, j)])[0])


def measurement_effects(sic: SicSet, crosstalk: float) -> np.ndarray:
    """Arm A's analyzer POVM elements at the given crosstalk level.

    Each ideal projector P keeps weight 1 - epsilon and leaks the rest
    uniformly into its complement: E = (1-eps) P + eps (I - P)/(d-1).
    The result is an (n, d, d) stack; arm B's entrywise conjugate family
    is formed by :func:`sicbell.quantum.born_probabilities`.
    """
    d = sic.dimension
    if not 0.0 <= crosstalk < 1.0:
        raise ValueError(f"crosstalk {crosstalk} outside [0, 1)")
    if crosstalk > 0.0 and d < 2:
        raise ValueError("crosstalk needs dimension at least 2")
    effects = sic.projectors
    if crosstalk > 0.0:
        eye = np.eye(d, dtype=complex)
        effects = ((1.0 - crosstalk) * effects
                   + crosstalk * (eye - effects) / (d - 1))
    return effects


def apply_noise(sic: SicSet, cfg: NoiseConfig) -> PredictionInputs:
    """Build the noisy state and effects for a set under a configuration.

    The source state is the (possibly non-flat) Schmidt state mixed with
    white noise at weight 1 - visibility; the analyzers carry the
    crosstalk leakage.  The returned object feeds the exact prediction
    table, which the count simulator draws from.
    """
    d = sic.dimension
    spec = cfg.spectrum if cfg.spectrum is not None else uniform_spectrum(default_modes(d))
    if spec.dimension != d:
        raise ValueError(
            f"spectrum has {spec.dimension} modes but the set needs {d}")
    pure = schmidt_state(spec)
    v = cfg.visibility
    rho = v * pure + (1.0 - v) * np.eye(d * d, dtype=complex) / (d * d)
    return PredictionInputs(rho, measurement_effects(sic, cfg.crosstalk))


def prediction_table(sic: SicSet, inputs: PredictionInputs) -> ProbabilityTable:
    """Exact click probabilities for every setting of a set."""
    values = inputs.probabilities(sic.settings)
    return ProbabilityTable(sic.settings, values)


def expected_bell_value(sic: SicSet, cfg: NoiseConfig
                        ) -> tuple[float, ProbabilityTable]:
    """The functional value a noiseless estimator would converge to."""
    table = prediction_table(sic, apply_noise(sic, cfg))
    return float(sic.coefficients @ table.values), table
