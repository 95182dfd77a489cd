"""Joint outcome probabilities and the Bell functional.

One party measures the catalog projectors directly, the other always
measures their entrywise complex conjugates; this pairing is hard-wired
because it is what makes the diagonal probabilities land on 1/d for the
maximally entangled state.  Every probability is the Born-rule trace
Tr[rho (A_i x B_j)] on the d^2-dimensional joint space, and a whole
table of them comes from one tensor contraction of rho with the stacked
effects of both arms (:func:`born_probabilities`).  The single-pair
:func:`joint_probability` builds the Kronecker product explicitly; it is
kept as the reference the contraction is tested against.

The functional evaluated here is

    beta = sum_i w_i P_ii - sum_{(i,j) in E} (w_ij / 2) (P_ij + P_ji),

with the pair weight w_ij = max(w_i, w_j).
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


def ray_projectors(sic: SicSet) -> np.ndarray:
    """The set's rank-1 projectors stacked along axis 0, shape (n, d, d).

    The other arm's conjugate family is the entrywise conjugate stack.
    """
    vecs = np.array(sic.float_vectors()).reshape(sic.n, sic.dimension)
    return np.einsum("ia,ib->iab", vecs, vecs.conj())


def born_probabilities(rho: np.ndarray, alice: np.ndarray, bob: np.ndarray,
                       settings: Sequence[tuple[int, int]]) -> np.ndarray:
    """Tr[rho (A_i x B_j)] for every setting (i, j), clamped to [0, 1].

    ``rho`` is the d^2 x d^2 joint density matrix, ``alice`` and ``bob``
    are (n, d, d) stacks of effects.  Indexing rho as rho[a, b, c, e]
    (Alice row, Bob row, Alice column, Bob column), the trace is
    sum rho[a, b, c, e] A_i[c, a] B_j[e, b] for every (i, j) at once.
    """
    d = alice.shape[-1]
    ii, jj = np.asarray(settings, dtype=int).reshape(-1, 2).T
    table = np.einsum("abce,ica,jeb->ij", rho.reshape(d, d, d, d), alice, bob,
                      optimize=True)
    p = table.real[ii, jj]
    bad = p[~((p >= -1e-9) & (p <= 1.0 + 1e-9))]
    if bad.size:
        raise ArithmeticError(
            f"probability {bad[0]} outside [0,1] beyond roundoff")
    return np.clip(p, 0.0, 1.0)


def bell_settings(n: int, edges: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Canonical measurement-setting order: diagonals, then both
    orientations of each edge in sorted edge order."""
    out = [(i, i) for i in range(n)]
    for i, j in sorted(edges):
        out.append((i, j))
        out.append((j, i))
    return out


def bell_coefficients(weights: Sequence, edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """Signed weight of each setting, aligned with :func:`bell_settings`."""
    coeffs = [float(w) for w in weights]
    for i, j in sorted(edges):
        wij = float(max(weights[i], weights[j]))
        coeffs.extend([-wij / 2.0, -wij / 2.0])
    return np.asarray(coeffs)


@dataclass(frozen=True)
class ProbabilityTable:
    """Probabilities (optionally with standard errors) for every setting.

    ``values`` is aligned with ``bell_settings(n, edges)``: the n
    diagonal entries first, then (i,j) and (j,i) for each sorted edge.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    values: np.ndarray
    sigmas: Optional[np.ndarray] = None

    def settings(self) -> list[tuple[int, int]]:
        return bell_settings(self.n, self.edges)

    def as_dict(self) -> dict:
        return dict(zip(self.settings(), self.values.tolist()))

    def diagonal(self) -> np.ndarray:
        return self.values[: self.n]


def bell_value(sic: SicSet, rho: BipartiteState) -> tuple[float, ProbabilityTable]:
    """Evaluate the functional for a set against a state."""
    if sic.dimension != rho.d:
        raise ValueError(
            f"set dimension {sic.dimension} does not match state dimension {rho.d}")
    edges = sic.graph.edges
    alice = ray_projectors(sic)
    values = born_probabilities(rho.rho, alice, alice.conj(),
                                bell_settings(sic.n, edges))
    table = ProbabilityTable(sic.n, tuple(sorted(edges)), values)
    coeffs = bell_coefficients(sic.weights, edges)
    return float(coeffs @ values), table


def bell_operator(sic: SicSet) -> np.ndarray:
    """The joint-space observable whose expectation is the functional.

    B = sum_i w_i Pi_i x Pi_i* - sum_(i,j) (w_ij/2)(Pi_i x Pi_j* + Pi_j x Pi_i*),
    a Hermitian d^2 x d^2 matrix.  beta(rho) = Tr[rho B], so the largest
    eigenvalue of B is the ceiling of the functional over all states for
    this measurement family.  The signed weights are laid out as an
    n x n matrix C, and B = sum_ij C_ij Pi_i x Pi_j* is one contraction.
    """
    edges = sic.graph.edges
    ii, jj = np.asarray(bell_settings(sic.n, edges), dtype=int).reshape(-1, 2).T
    coeffs = np.zeros((sic.n, sic.n))
    coeffs[ii, jj] = bell_coefficients(sic.weights, edges)
    alice = ray_projectors(sic)
    d = sic.dimension
    op = np.einsum("ij,iac,jbe->abce", coeffs, alice, alice.conj(), optimize=True)
    return op.reshape(d * d, d * d)
