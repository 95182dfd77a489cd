"""Joint outcome probabilities and the Bell functional.

One party measures the catalog projectors directly, the other always
measures their entrywise complex conjugates; this pairing is hard-wired
because it is what makes the diagonal probabilities land on 1/d for the
maximally entangled state.  The conjugate family is formed here and
nowhere else: :func:`born_probabilities` and :func:`bell_operator` take
one arm's (n, d, d) effect stack and conjugate it for the other.

A state is its density matrix, a plain (d^2, d^2) array on the joint
space; d comes from the effects or the set, and a matrix of any other
shape raises ``ValueError``.  Every probability is the Born-rule trace
Tr[rho (A_i x A_j*)], and a whole table of them comes from one tensor
contraction (:func:`born_probabilities`).  :func:`bell_value` is the one
path from a state and arm A's effect stack to beta and its table: the
set's projectors (``SicSet.projectors``) for ideal analysers, the noisy
stack for ``noise.expected_bell_value``.  The single-pair
:func:`joint_probability` builds the Kronecker product explicitly; it is
kept as the reference the contraction is tested against.  The ideal
prediction is ``SicSet.ideal_probabilities``; ``noise.expected_bell_value``
at the noiseless config is its general path and the tests' reference.

The functional evaluated here is

    beta = sum_i w_i P_ii - sum_{(i,j) in E} (w_ij / 2) (P_ij + P_ji),

with the pair weight w_ij = max(w_i, w_j).  The setting order and the
signed weights come from :mod:`sicbell.catalog` (``SicSet.settings``
and ``SicSet.coefficients``).  ``SicSet.settings`` is the only record
of the order: a table's ``values[k]`` belongs to ``sic.settings[k]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .catalog import SicSet


def _check_state(rho: np.ndarray, d: int) -> None:
    """Refuse a density matrix that is not (d^2, d^2)."""
    shape = np.shape(rho)
    if shape != (d * d, d * d):
        raise ValueError(f"state matrix has shape {shape}, "
                         f"expected ({d * d}, {d * d}) for dimension {d}")


def max_entangled_state(d: int) -> np.ndarray:
    """Rank-1 projector onto (1/sqrt(d)) sum_j |j>|j>, a (d^2, d^2) array."""
    if d < 2:
        raise ValueError("local dimension must be at least 2")
    psi = np.zeros(d * d, dtype=complex)
    for j in range(d):
        psi[j * d + j] = 1.0 / np.sqrt(d)
    return np.outer(psi, psi.conj())


def projector(v: Sequence[complex]) -> np.ndarray:
    """Rank-1 projector onto the ray of v."""
    arr = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(arr)
    if nrm == 0.0:
        raise ValueError("zero vector has no projector")
    arr = arr / nrm
    return np.outer(arr, arr.conj())


def joint_probability(rho: np.ndarray, vi: Sequence[complex],
                      vj: Sequence[complex]) -> float:
    """Tr[rho (Pi_i x Pi_j*)], clamped to [0, 1] against roundoff."""
    vi = np.asarray(vi, dtype=complex)
    vj = np.asarray(vj, dtype=complex)
    if len(vj) != len(vi):
        raise ValueError("the two vectors differ in dimension")
    _check_state(rho, len(vi))
    op = np.kron(projector(vi), projector(np.conj(vj)))
    p = float(np.trace(rho @ op).real)
    if p < -1e-9 or p > 1.0 + 1e-9:
        raise ArithmeticError(f"probability {p} outside [0,1] beyond roundoff")
    return min(max(p, 0.0), 1.0)


def born_probabilities(rho: np.ndarray, effects: np.ndarray,
                       settings: Sequence[tuple[int, int]]) -> np.ndarray:
    """Tr[rho (A_i x A_j*)] for every setting (i, j), clamped to [0, 1].

    ``rho`` is the (d^2, d^2) joint density matrix and ``effects`` is
    the (n, d, d) stack of the first arm's effects A_i; the second arm
    measures their entrywise conjugates, formed here.  Indexing rho as
    rho[a, b, c, e] (first-arm row, second-arm row, first-arm column,
    second-arm column), the trace is sum rho[a, b, c, e] A_i[c, a]
    A_j*[e, b] for every (i, j) at once.  A state of any other shape,
    or an index outside the stack, negative ones too, raises ValueError.
    """
    n, d = len(effects), effects.shape[-1]
    _check_state(rho, d)
    ii, jj = np.asarray(settings, dtype=int).reshape(-1, 2).T
    outside = (ii < 0) | (ii >= n) | (jj < 0) | (jj >= n)
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(f"setting ({ii[k]}, {jj[k]}) out of range")
    table = np.einsum("abce,ica,jeb->ij", rho.reshape(d, d, d, d), effects,
                      effects.conj(), optimize=True)
    p = table.real[ii, jj]
    bad = p[~((p >= -1e-9) & (p <= 1.0 + 1e-9))]
    if bad.size:
        raise ArithmeticError(
            f"probability {bad[0]} outside [0,1] beyond roundoff")
    return np.clip(p, 0.0, 1.0)


@dataclass(frozen=True)
class ProbabilityTable:
    """Probabilities (optionally with standard errors) for every setting.

    ``values[k]`` and ``sigmas[k]`` belong to ``sic.settings[k]`` of the
    set the table was made for; the table does not carry the order.
    :func:`sicbell.montecarlo.estimate_beta` checks only its length.
    """

    values: np.ndarray
    sigmas: Optional[np.ndarray] = None


def bell_value(sic: SicSet, rho: np.ndarray, effects: np.ndarray
               ) -> tuple[float, ProbabilityTable]:
    """Beta and its table for a (d^2, d^2) state and arm A's (n, d, d) effects."""
    values = born_probabilities(rho, effects, sic.settings)
    return float(sic.coefficients @ values), ProbabilityTable(values)


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
