"""Imperfection models for photon-pair realizations of the catalog sets.

The ideal experiment prepares a maximally entangled state and measures
conjugate rank-1 projectors on the two arms.  Real sources and mode
analyzers fall short in a few specific ways, each modeled here by one
tunable parameter:

* finite source bandwidth: the amplitudes c_k of sum_k c_k |k>|k>, a
  tuple in the set's basis order (``schmidt_amplitudes``), peak at the
  center of the mode ladder rather than flat (``spiral_spectrum``),
* white noise: the state is mixed with the maximally mixed background,
  weight ``1 - visibility``,
* analyzer crosstalk: each projective effect leaks uniformly into its
  orthogonal complement with weight ``epsilon``.

``apply_noise`` composes all of these into the state, a plain (d^2, d^2)
density matrix, and the first arm's measurement effects (built on
``SicSet.projectors``); the second arm's conjugate effects are formed
only in :func:`sicbell.quantum.born_probabilities`.
``expected_bell_value`` is :func:`sicbell.quantum.bell_value` on that
pair, the one Born-rule path: ``predict`` writes its table and
``simulate`` draws counts from it.  At ``IDEAL`` it is the general path
to the ideal prediction and the tests' reference for its closed form,
``SicSet.ideal_probabilities`` and beta = sum(w) / d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .catalog import SicSet
from .quantum import ProbabilityTable, bell_value, born_probabilities

_NORM_TOL = 1e-12


def schmidt_amplitudes(values: Sequence[float]) -> tuple[float, ...]:
    """The Schmidt coefficients c_k, one per basis index k, as a tuple of
    floats: finite, nonnegative, and with squares summing to 1."""
    amps = tuple(float(a) for a in values)
    if not amps:
        raise ValueError("spectrum needs at least one mode")
    if not all(math.isfinite(a) for a in amps):
        raise ValueError("amplitudes must be finite")
    if any(a < 0 for a in amps):
        raise ValueError("amplitudes must be nonnegative")
    total = sum(a * a for a in amps)
    if abs(total - 1.0) > _NORM_TOL:
        raise ValueError(f"squared amplitudes sum to {total}, expected 1")
    return amps


def default_modes(d: int) -> tuple[int, ...]:
    """The mode ladder for each dimension: label k is the OAM mode of basis
    index k, and only ``spectrum_width`` reads it, in ``spiral_spectrum``.

    The spacings mirror the experimental choice of well-separated labels
    (larger gaps suppress analyzer crosstalk).  Dimensions without a
    tabulated ladder fall back to consecutive labels centered on zero.
    """
    table = {
        3: (-3, 0, 3),
        4: (-4, -1, 1, 4),
    }
    if d in table:
        return table[d]
    if d < 1:
        raise ValueError("dimension must be positive")
    half = d // 2
    if d % 2:
        return tuple(range(-half, half + 1))
    return tuple(m for m in range(-half, half + 1) if m != 0)


def spiral_spectrum(width: float, modes: Sequence[int]) -> tuple[float, ...]:
    """Gaussian mode spectrum c_l proportional to exp(-l^2 / (2 width^2)).

    ``width`` sets the bandwidth of the source: small widths concentrate
    the amplitude on the low-order modes, while ``width = inf`` gives the
    flat spectrum.  Amplitudes are normalized over the selected modes and
    returned in the order of ``modes``, the basis order of the ladder.
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
    return schmidt_amplitudes(amps)


def schmidt_state(amplitudes: Sequence[float]) -> np.ndarray:
    """The pure two-photon state with the given Schmidt coefficients, as
    its (d^2, d^2) density matrix.

    Coefficient k pairs basis index k on both arms, so the state vector
    is sum_k c_k |k>|k> and the flat spectrum reproduces the maximally
    entangled state.
    """
    psi = np.diag(np.array(schmidt_amplitudes(amplitudes), dtype=complex)).ravel()
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class NoiseConfig:
    """Imperfection parameters for one simulated run.

    ``visibility`` is the weight of the intended two-photon state against
    the maximally mixed background.  ``crosstalk`` is the probability that
    an analyzer click came from the orthogonal complement of the selected
    mode rather than the mode itself.  ``spectrum`` overrides the source
    amplitudes, c_k for basis index k, as :func:`schmidt_amplitudes`
    checks them; ``None`` means the flat (maximally entangled) spectrum.
    """

    visibility: float = 1.0
    crosstalk: float = 0.0
    spectrum: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility {self.visibility} outside [0, 1]")
        if not 0.0 <= self.crosstalk < 1.0:
            raise ValueError(f"crosstalk {self.crosstalk} outside [0, 1)")
        if self.spectrum is not None:
            object.__setattr__(self, "spectrum",
                               schmidt_amplitudes(self.spectrum))


IDEAL = NoiseConfig()


@dataclass(frozen=True)
class PredictionInputs:
    """State and measurement effects ready for probability evaluation.

    ``state`` is the (d^2, d^2) density matrix.  ``effects[i]`` is the
    POVM element for selecting ray i on arm A, stacked as an (n, d, d)
    array; arm B selects ray j with its entrywise conjugate, which
    :func:`sicbell.quantum.born_probabilities` forms.  The joint click
    probability for setting (i, j) is Tr[rho (A_i x A_j*)]; a whole
    table comes from :func:`sicbell.quantum.bell_value`.
    """

    state: np.ndarray
    effects: np.ndarray = field(repr=False)

    def probability(self, i: int, j: int) -> float:
        return float(born_probabilities(self.state, self.effects, [(i, j)])[0])


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
    crosstalk leakage.  :func:`expected_bell_value` turns the pair into
    the exact prediction table, which the count simulator draws from.
    """
    d = sic.dimension
    spec = cfg.spectrum if cfg.spectrum is not None else (1.0 / math.sqrt(d),) * d
    if len(spec) != d:
        raise ValueError(f"spectrum has {len(spec)} modes but the set needs {d}")
    pure = schmidt_state(spec)
    v = cfg.visibility
    rho = v * pure + (1.0 - v) * np.eye(d * d, dtype=complex) / (d * d)
    return PredictionInputs(rho, measurement_effects(sic, cfg.crosstalk))


def expected_bell_value(sic: SicSet, cfg: NoiseConfig
                        ) -> tuple[float, ProbabilityTable]:
    """The functional value a noiseless estimator would converge to."""
    inputs = apply_noise(sic, cfg)
    return bell_value(sic, inputs.state, inputs.effects)
