"""Joint outcome probabilities and the Bell functional.

One party measures the catalog projectors directly, the other always
measures their entrywise complex conjugates; this pairing is hard-wired
because it is what makes the diagonal probabilities land on 1/d for the
maximally entangled state.  The conjugate family is formed only in
:func:`block_operator`, from one arm's (n, d, d) projector stack.

:func:`bell_value` is the one path to beta and its table: it reads every
probability of a set's settings from the closed-form noise model that
:func:`sicbell.noise.apply_noise` resolves, so no state is built.  For
any other state, a plain (d^2, d^2) density matrix rho on the joint
space, beta is Tr[rho B] with B = :func:`bell_operator`.  The
single-pair :func:`joint_probability` builds the Kronecker product
Tr[rho (Pi_i x Pi_j*)] explicitly.  The ideal prediction is
``SicSet.ideal_probabilities``, which ``noise.expected_bell_value``
reproduces at the noiseless config.

The functional evaluated here is

    beta = sum_i w_i P_ii - sum_{(i,j) in E} (w_ij / 2) (P_ij + P_ji),

with the pair weight w_ij = max(w_i, w_j).  The setting order and the
signed weights come from :mod:`sicbell.catalog` (``SicSet.settings``
and ``SicSet.coefficients``; the operator reads them as the matrix
``SicSet.coefficient_matrix``).  ``SicSet.settings`` is the only record
of the order: a table's ``values[k]`` belongs to ``sic.settings[k]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .catalog import SicSet


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
    """Tr[rho (Pi_i x Pi_j*)] for a (d^2, d^2) state, clamped to [0, 1]
    against roundoff; a state of any other shape raises ``ValueError``."""
    vi = np.asarray(vi, dtype=complex)
    vj = np.asarray(vj, dtype=complex)
    if len(vj) != len(vi):
        raise ValueError("the two vectors differ in dimension")
    d, shape = len(vi), np.shape(rho)
    if shape != (d * d, d * d):
        raise ValueError(f"state matrix has shape {shape}, "
                         f"expected ({d * d}, {d * d}) for dimension {d}")
    op = np.kron(projector(vi), projector(np.conj(vj)))
    p = float(np.trace(rho @ op).real)
    if not -1e-9 <= p <= 1.0 + 1e-9:  # a NaN fails both comparisons
        raise ArithmeticError(f"probability {p} outside [0,1] beyond roundoff")
    return min(max(p, 0.0), 1.0)


@dataclass(frozen=True)
class ProbabilityTable:
    """Probabilities (optionally with standard errors) for every setting.

    ``values[k]`` and ``sigmas[k]`` belong to ``sic.settings[k]`` of the
    set the table was made for; the table does not carry the order.
    :func:`sicbell.montecarlo.estimate_beta` checks only its length.
    """

    values: np.ndarray
    sigmas: Optional[np.ndarray] = None


def bell_value(sic: SicSet, inputs) -> tuple[float, ProbabilityTable]:
    """Beta and its table for a set under its resolved noise model, a
    :class:`sicbell.noise.PredictionInputs`."""
    if not np.array_equal(inputs.vectors, sic.unit_vectors):
        raise ValueError("the inputs were resolved for another set")
    values = inputs.probabilities(*zip(*sic.settings))
    return float(sic.coefficients @ values), ProbabilityTable(values)


def bell_operator(sic: SicSet) -> np.ndarray:
    """The joint-space observable whose expectation is the functional.

    B = sum_i w_i Pi_i x Pi_i* - sum_(i,j) (w_ij/2)(Pi_i x Pi_j* + Pi_j x Pi_i*),
    a Hermitian d^2 x d^2 matrix.  beta(rho) = Tr[rho B], so the largest
    eigenvalue of B is the ceiling of the functional over all states for
    this measurement family: :func:`block_operator` of the whole set.
    """
    return block_operator(sic.projectors, sic.coefficient_matrix)


def block_operator(projectors: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """sum_ij C_ij Pi_i x Pi_j* for a (k, d, d) projector stack and a
    (k, k) coefficient matrix C, such as a set's or a coordinate block's.
    With the projectors as the rows of a (k, d^2) matrix P it is
    P^T C P*, indexed by ((a, c), (b, e)) and realigned to ((a, b), (c, e)).
    """
    k, d = len(projectors), projectors.shape[-1]
    rows = projectors.reshape(k, d * d)
    op = rows.T @ coefficients @ rows.conj()
    return op.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
