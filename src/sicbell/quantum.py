"""Joint outcome probabilities and the Bell functional.

One party measures the catalog projectors directly, the other always
measures their entrywise complex conjugates; this pairing is hard-wired
because it is what makes the diagonal probabilities land on 1/d for the
maximally entangled state.  Every probability is the Born-rule trace
Tr[rho (A_i x B_j)] on the d^2-dimensional joint space, and a whole
table of them comes from one tensor contraction of rho with the stacked
effects of both arms (:func:`born_probabilities`); the set owns its
projector stack (``SicSet.projectors``).  The single-pair
:func:`joint_probability` builds the Kronecker product explicitly; it is
kept as the reference the contraction is tested against.  The ideal
prediction is ``SicSet.ideal_probabilities``; ``noise.expected_bell_value``
at the noiseless config is its general path and the tests' reference.

The functional evaluated here is

    beta = sum_i w_i P_ii - sum_{(i,j) in E} (w_ij / 2) (P_ij + P_ji),

with the pair weight w_ij = max(w_i, w_j).  The setting order and the
signed weights come from :mod:`sicbell.catalog` (``SicSet.settings``
and ``SicSet.coefficients``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .catalog import SicSet


@dataclass(frozen=True)
class BipartiteState:
    """Density matrix on a d x d joint system, stored dense."""

    d: int
    rho: np.ndarray

    def validate(self) -> None:
        m = self.rho
        if m.shape != (self.d ** 2, self.d ** 2):
            raise ValueError(f"state matrix must be {self.d ** 2} x {self.d ** 2}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("state is not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-12:
            raise ValueError("state trace is not 1")
        if float(np.linalg.eigvalsh(m)[0]) < -1e-10:
            raise ValueError("state has a negative eigenvalue")


def max_entangled_state(d: int) -> BipartiteState:
    """Rank-1 projector onto (1/sqrt(d)) sum_j |j>|j>."""
    if d < 2:
        raise ValueError("local dimension must be at least 2")
    psi = np.zeros(d * d, dtype=complex)
    for j in range(d):
        psi[j * d + j] = 1.0 / np.sqrt(d)
    return BipartiteState(d, np.outer(psi, psi.conj()))


def projector(v: Sequence[complex]) -> np.ndarray:
    """Rank-1 projector onto the ray of v."""
    arr = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(arr)
    if nrm == 0.0:
        raise ValueError("zero vector has no projector")
    arr = arr / nrm
    return np.outer(arr, arr.conj())


def conjugate_projector(v: Sequence[complex]) -> np.ndarray:
    """Projector onto the entrywise-conjugated ray, |v*><v*|."""
    return projector(np.conj(np.asarray(v, dtype=complex)))


def joint_probability(rho: BipartiteState, vi: Sequence[complex],
                      vj: Sequence[complex]) -> float:
    """Tr[rho (Pi_i x Pi_j*)], clamped to [0, 1] against roundoff."""
    vi = np.asarray(vi, dtype=complex)
    vj = np.asarray(vj, dtype=complex)
    if len(vi) != rho.d or len(vj) != rho.d:
        raise ValueError("vector dimension does not match the state")
    op = np.kron(projector(vi), conjugate_projector(vj))
    p = float(np.trace(rho.rho @ op).real)
    if p < -1e-9 or p > 1.0 + 1e-9:
        raise ArithmeticError(f"probability {p} outside [0,1] beyond roundoff")
    return min(max(p, 0.0), 1.0)


def born_probabilities(rho: np.ndarray, alice: np.ndarray, bob: np.ndarray,
                       settings: Sequence[tuple[int, int]]) -> np.ndarray:
    """Tr[rho (A_i x B_j)] for every setting (i, j), clamped to [0, 1].

    ``rho`` is the d^2 x d^2 joint density matrix, ``alice`` and ``bob``
    are (n, d, d) stacks of effects.  Indexing rho as rho[a, b, c, e]
    (Alice row, Bob row, Alice column, Bob column), the trace is
    sum rho[a, b, c, e] A_i[c, a] B_j[e, b] for every (i, j) at once.
    An index outside the stacks, negative ones too, raises ValueError.
    """
    d = alice.shape[-1]
    ii, jj = np.asarray(settings, dtype=int).reshape(-1, 2).T
    outside = (ii < 0) | (ii >= len(alice)) | (jj < 0) | (jj >= len(bob))
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(f"setting ({ii[k]}, {jj[k]}) out of range")
    table = np.einsum("abce,ica,jeb->ij", rho.reshape(d, d, d, d), alice, bob,
                      optimize=True)
    p = table.real[ii, jj]
    bad = p[~((p >= -1e-9) & (p <= 1.0 + 1e-9))]
    if bad.size:
        raise ArithmeticError(
            f"probability {bad[0]} outside [0,1] beyond roundoff")
    return np.clip(p, 0.0, 1.0)


@dataclass(frozen=True)
class ProbabilityTable:
    """Probabilities (optionally with standard errors) for every setting.

    ``values[k]`` and ``sigmas[k]`` belong to ``settings[k]``.  Every
    producer lays a table out in its set's order, ``SicSet.settings``,
    and :func:`sicbell.montecarlo.estimate_beta` refuses any other.
    """

    settings: tuple[tuple[int, int], ...]
    values: np.ndarray
    sigmas: Optional[np.ndarray] = None


def bell_value(sic: SicSet, rho: BipartiteState) -> tuple[float, ProbabilityTable]:
    """Evaluate the functional for a set against a state."""
    if sic.dimension != rho.d:
        raise ValueError(
            f"set dimension {sic.dimension} does not match state dimension {rho.d}")
    alice = sic.projectors
    values = born_probabilities(rho.rho, alice, alice.conj(), sic.settings)
    table = ProbabilityTable(sic.settings, values)
    return float(sic.coefficients @ values), table


def bell_operator(sic: SicSet) -> np.ndarray:
    """The joint-space observable whose expectation is the functional.

    B = sum_i w_i Pi_i x Pi_i* - sum_(i,j) (w_ij/2)(Pi_i x Pi_j* + Pi_j x Pi_i*),
    a Hermitian d^2 x d^2 matrix.  beta(rho) = Tr[rho B], so the largest
    eigenvalue of B is the ceiling of the functional over all states for
    this measurement family.  The signed weights are laid out as an
    n x n matrix C, and B = sum_ij C_ij Pi_i x Pi_j* is one contraction.
    """
    ii, jj = np.asarray(sic.settings, dtype=int).reshape(-1, 2).T
    coeffs = np.zeros((sic.n, sic.n))
    coeffs[ii, jj] = sic.coefficients
    alice = sic.projectors
    d = sic.dimension
    op = np.einsum("ij,iac,jbe->abce", coeffs, alice, alice.conj(), optimize=True)
    return op.reshape(d * d, d * d)
