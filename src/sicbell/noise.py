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

On this family the Born rule has a closed form, so no state or effect
matrix is ever built: ``apply_noise`` resolves a configuration into a
:class:`PredictionInputs` record (the set's unit vectors, the amplitudes
and three scalars), whose ``probabilities`` method is the formula.
``expected_bell_value`` is :func:`sicbell.quantum.bell_value` on that
record, the one probability path: ``predict`` writes its table and
``simulate`` draws counts from it.  At ``IDEAL`` it reproduces the
closed-form ideal prediction, ``SicSet.ideal_probabilities`` and
beta = sum(w) / d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .catalog import SicSet
from .quantum import ProbabilityTable, bell_value

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
    """A noise model resolved for one set: a plain record, not a state.

    ``vectors`` holds the rays u_i as unit rows (``SicSet.unit_vectors``),
    ``amplitudes`` the Schmidt coefficients c_k of |psi> = sum_k c_k |kk>,
    and ``visibility`` the weight v of |psi><psi| against the white noise
    I / d^2.  Arm A selects ray i with the effect E_i = a Pi_i + b I, where
    b = eps / (d - 1) and a = 1 - eps - b for crosstalk eps; arm B selects
    ray j with E_j*.  The Born rule Tr[rho (E_i x E_j*)] is then

        P_ij = v (a^2 |M_ij|^2 + a b (m_i + m_j) + b^2) + (1 - v) / d^2,
        M_ij = sum_k conj(u_ik) c_k u_jk,    m_i = sum_k c_k^2 |u_ik|^2,

    the noise term being 1 / d^2 because every effect has trace a + b d = 1.
    """

    vectors: np.ndarray = field(repr=False)
    amplitudes: np.ndarray
    visibility: float
    a: float
    b: float

    def probabilities(self, ii: Sequence[int], jj: Sequence[int]) -> np.ndarray:
        """P_ij for each pair (ii[k], jj[k]), clamped to [0, 1] against
        roundoff.  An index outside the set, a negative one too, raises
        ``ValueError``."""
        ii, jj = np.asarray(ii, dtype=int), np.asarray(jj, dtype=int)
        n, d = self.vectors.shape
        outside = (ii < 0) | (ii >= n) | (jj < 0) | (jj >= n)
        if outside.any():
            k = int(np.argmax(outside))
            raise ValueError(f"setting ({ii[k]}, {jj[k]}) out of range")
        u, c, a, b, v = self.vectors, self.amplitudes, self.a, self.b, self.visibility
        overlap = (u.conj() * c) @ u.T
        marginal = (u.real ** 2 + u.imag ** 2) @ (c * c)
        pure = (a * a * np.abs(overlap[ii, jj]) ** 2
                + a * b * (marginal[ii] + marginal[jj]) + b * b)
        return np.clip(v * pure + (1.0 - v) / (d * d), 0.0, 1.0)

    def probability(self, i: int, j: int) -> float:
        return float(self.probabilities((i,), (j,))[0])


def apply_noise(sic: SicSet, cfg: NoiseConfig) -> PredictionInputs:
    """Resolve a configuration for a set: the flat spectrum unless one is
    given, and the crosstalk as the effects' weights a and b.
    :func:`expected_bell_value` turns the record into the exact
    prediction table, which the count simulator draws from.
    """
    d = sic.dimension
    spec = cfg.spectrum if cfg.spectrum is not None else (1.0 / math.sqrt(d),) * d
    if len(spec) != d:
        raise ValueError(f"spectrum has {len(spec)} modes but the set needs {d}")
    eps = cfg.crosstalk
    if eps > 0.0 and d < 2:
        raise ValueError("crosstalk needs dimension at least 2")
    b = eps / (d - 1) if eps > 0.0 else 0.0
    return PredictionInputs(sic.unit_vectors, np.array(spec), cfg.visibility,
                            1.0 - eps - b, b)


def expected_bell_value(sic: SicSet, cfg: NoiseConfig
                        ) -> tuple[float, ProbabilityTable]:
    """The functional value a noiseless estimator would converge to."""
    return bell_value(sic, apply_noise(sic, cfg))
