"""Classical and quantum bounds for vertex-weighted orthogonality graphs.

Two quantities are computed for a weighted graph (G, w):

* the weighted independence number, found exactly by branch and bound
  over bitmask vertex sets, and
* the weighted theta number, the value of the semidefinite program

      maximize   sum_i w_i x_i
      subject to Y >= 0 on indices {0, 1, .., n},
                 Y_00 = 1,
                 Y_ii = Y_0i = x_i        for every vertex i,
                 Y_ij = 0                 for every edge (i, j),

  solved in-house by an operator-splitting loop (alternating projection
  onto the affine constraints and the semidefinite cone with a scaled
  dual update).  The bordered formulation is the one that reduces to
  the plain theta number at unit weights and to the weighted
  independence number on perfect graphs; the superficially simpler
  "Tr X = 1 with W_ij = sqrt(w_i w_j)" program is a strictly looser
  relaxation once the weights are non-uniform.

  Every reported value carries a certificate: a repaired feasible
  matrix gives a lower bound, and a repaired dual combination of the
  constraint gradients gives an upper bound, so the true optimum is
  bracketed by value .. value + gap regardless of how far the
  iteration actually got.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import SicSet, WeightedGraph

_MAX_VERTICES = 64


class ThetaNonConvergence(RuntimeError):
    """Raised when the SDP loop exhausts its iteration cap.

    Carries the best certified bracket so callers can still report it.
    """

    def __init__(self, primal_bound: float, dual_bound: float, iterations: int):
        self.primal_bound = primal_bound
        self.dual_bound = dual_bound
        self.iterations = iterations
        super().__init__(
            f"no certificate after {iterations} iterations; "
            f"best bracket [{primal_bound:.9f}, {dual_bound:.9f}]"
        )


def max_weight_independent_set(graph: WeightedGraph):
    """Exact maximum-weight independent set.

    Returns ``(value, witness)`` where the witness is the
    lexicographically smallest optimal vertex tuple.  Branch and bound
    with a greedy warm start and weight-sum pruning; pruning is strict
    so weight ties survive long enough for the lexicographic rule.
    """
    n = graph.n
    if n > _MAX_VERTICES:
        raise ValueError(f"graph has {n} vertices; supports at most {_MAX_VERTICES}")
    if n == 0:
        return 0, ()
    w = list(graph.weights)
    adj = [0] * n
    for i, j in graph.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    # greedy warm start: repeatedly take the densest weight-per-blocked-vertex pick
    cand = (1 << n) - 1
    greedy = []
    while cand:
        members = list(bits(cand))
        v = max(members, key=lambda b: (w[b] / (bin(cand & adj[b]).count("1") + 1), -b))
        greedy.append(v)
        cand &= ~(adj[v] | (1 << v))
    best_set = tuple(sorted(greedy))
    best_w = sum(w[v] for v in greedy)

    def rec(cand, cur_w, cur, rest):
        nonlocal best_w, best_set
        if cand == 0:
            if cur_w > best_w or (cur_w == best_w and tuple(cur) < best_set):
                best_w = cur_w
                best_set = tuple(cur)
            return
        if cur_w + rest < best_w:
            return
        v = (cand & -cand).bit_length() - 1
        drop = cand & (adj[v] | (1 << v))
        lost = sum(w[u] for u in bits(drop))
        cur.append(v)
        rec(cand & ~drop, cur_w + w[v], cur, rest - lost)
        cur.pop()
        rec(cand & ~(1 << v), cur_w, cur, rest - w[v])

    rec((1 << n) - 1, 0, [], sum(w))
    return best_w, best_set


@dataclass(frozen=True)
class ThetaResult:
    value: float            # certified feasible (lower) value
    gap: float              # dual_bound - value
    dual_bound: float
    matrix: np.ndarray      # feasible bordered matrix Y, shape (n+1, n+1)
    iterations: int
    converged: bool

    def vertex_weights(self) -> np.ndarray:
        """The per-vertex portion x_i of the optimum (diagonal of Y)."""
        return np.diag(self.matrix)[1:].copy()


def _strictly_feasible(n: int) -> tuple[np.ndarray, float]:
    """An interior feasible point of the bordered program and its
    smallest eigenvalue; used to repair near-feasible iterates."""
    s = 1.0 / (2.0 * n)
    y0 = np.zeros((n + 1, n + 1))
    y0[0, 0] = 1.0
    y0[0, 1:] = s
    y0[1:, 0] = s
    y0[np.arange(1, n + 1), np.arange(1, n + 1)] = s
    return y0, float(np.linalg.eigvalsh(y0)[0])


def _affine_project(v: np.ndarray, rows, cols) -> np.ndarray:
    """Nearest matrix with Y_00 = 1, tied border/diagonal entries, and
    zero edge entries.  The constraint groups touch disjoint entries,
    so the projection factorizes."""
    y = v.copy()
    n = y.shape[0] - 1
    y[0, 0] = 1.0
    idx = np.arange(1, n + 1)
    tied = (y[idx, idx] + y[0, idx] + y[idx, 0]) / 3.0
    y[idx, idx] = tied
    y[0, idx] = tied
    y[idx, 0] = tied
    if len(rows):
        y[rows, cols] = 0.0
        y[cols, rows] = 0.0
    return y


def solve_theta(graph: WeightedGraph, tol: float = 1e-6,
                max_iter: int = 200_000, check_every: int = 25) -> ThetaResult:
    """Weighted theta number with a certified bracket of width <= tol."""
    n = graph.n
    if n > _MAX_VERTICES:
        raise ValueError(f"graph has {n} vertices; supports at most {_MAX_VERTICES}")
    if n == 0:
        return ThetaResult(0.0, 0.0, 0.0, np.ones((1, 1)), 0, True)
    w = np.asarray([float(x) for x in graph.weights])

    # edge positions shifted into the bordered matrix
    rows = np.array([i + 1 for i, _ in graph.edges], dtype=int)
    cols = np.array([j + 1 for _, j in graph.edges], dtype=int)

    c_mat = np.zeros((n + 1, n + 1))
    c_mat[np.arange(1, n + 1), np.arange(1, n + 1)] = w

    y0, y0_min_eig = _strictly_feasible(n)
    # repair budget for the dual certificate: a positive-definite
    # combination of constraint gradients (each border triple sums to
    # zero, so it stays inside the gradient span) and its smallest
    # eigenvalue
    k1 = np.zeros((n + 1, n + 1))
    k1[0, 0] = n / 2.0 + 1.0
    k1[0, 1:] = -0.5
    k1[1:, 0] = -0.5
    k1[np.arange(1, n + 1), np.arange(1, n + 1)] = 1.0
    kappa = float(np.linalg.eigvalsh(k1)[0])

    def certify(y, h):
        """Bracket the optimum: repair y to feasibility for the lower
        bound; repair the normal-space element h to dual feasibility
        (h + shift >= C) for the upper bound."""
        lam_min = float(np.linalg.eigvalsh(y)[0])
        y_feas = y
        if lam_min < 0.0:
            gamma = (-lam_min + 1e-15) / (y0_min_eig - lam_min + 1e-15)
            y_feas = (1.0 - gamma) * y + gamma * y0
        lower = float(np.sum(w * np.diag(y_feas)[1:]))

        deficit = float(np.linalg.eigvalsh(h - c_mat)[0])
        scale = max(0.0, -deficit) / kappa
        upper = float(h[0, 0]) + scale * k1[0, 0]
        return lower, upper, y_feas

    y = y0.copy()
    z = y0.copy()
    u = np.zeros((n + 1, n + 1))
    rho = max(1.0, float(np.max(w)))
    relax = 1.6
    best: Optional[tuple] = None

    for it in range(1, max_iter + 1):
        v = z - u + c_mat / rho
        y = _affine_project(v, rows, cols)

        if it % check_every == 0 or it == 1:
            h = rho * (v - y)        # lies in the span of the constraint gradients
            lower, upper, y_feas = certify(y, h)
            if best is None or (upper - lower) < (best[1] - best[0]):
                best = (lower, upper, y_feas)
            if upper - lower <= tol:
                return ThetaResult(lower, upper - lower, upper, y_feas, it, True)

        y_hat = relax * y + (1.0 - relax) * z
        m = y_hat + u
        lam, q = np.linalg.eigh((m + m.T) / 2.0)
        z_new = (q * np.clip(lam, 0.0, None)) @ q.T
        u = u + y_hat - z_new

        if it % 50 == 0:
            r_prim = float(np.linalg.norm(y - z_new))
            r_dual = float(rho * np.linalg.norm(z_new - z))
            if r_prim > 10.0 * r_dual and rho < 1e8:
                rho *= 2.0
                u /= 2.0
            elif r_dual > 10.0 * r_prim and rho > 1e-8:
                rho /= 2.0
                u *= 2.0
        z = z_new

    lower, upper, _ = best
    raise ThetaNonConvergence(lower, upper, max_iter)


def lovasz_theta(graph: WeightedGraph, tol: float = 1e-6) -> float:
    """Certified weighted theta value (within tol of the true optimum)."""
    return solve_theta(graph, tol=tol).value


@dataclass(frozen=True)
class CeilingResult:
    value: float            # attained expectation (lower bound)
    gap: float
    dual_bound: float
    state: np.ndarray       # pure density matrix attaining `value`
    iterations: int


def state_ceiling(op: np.ndarray) -> CeilingResult:
    """Largest expectation of a Hermitian operator over density matrices.

    The optimum of max <op, rho> subject to Tr rho = 1, rho >= 0 is the
    top eigenvalue of op, attained by the projector onto its eigenvector
    v, so one Hermitian eigendecomposition replaces an iterative solver.
    ``value`` is the Rayleigh quotient of v, attained by ``state``.
    ``dual_bound`` is the top eigenvalue lifted by the residual
    ||op v - value v||, which absorbs the rounding that can put the
    Rayleigh quotient a few ulps above the computed eigenvalue.
    """
    op = np.asarray(op)
    m = op.shape[0]
    if op.shape != (m, m) or np.max(np.abs(op - op.conj().T)) > 1e-10:
        raise ValueError("operator must be a Hermitian square matrix")
    lam, vecs = np.linalg.eigh(op)
    v = vecs[:, -1]
    image = op @ v
    value = float(np.vdot(v, image).real)
    residual = float(np.linalg.norm(image - value * v))
    upper = max(float(lam[-1]), value) + residual
    return CeilingResult(value, upper - value, upper, np.outer(v, v.conj()), 1)


@dataclass(frozen=True)
class BoundsReport:
    """Classical bound, quantum ceiling, and graph relaxation for one set.

    ``theta`` is the largest value of the functional over quantum states
    for the set's own conjugated-projector measurements (the ceiling the
    experiment is compared against).  ``theta_graph`` is the weighted
    Lovász number of the orthogonality graph, an upper bound valid for
    every realization; the two coincide for the unit-weight sets and
    differ when the weights are non-uniform.
    """

    set_name: str
    alpha: int
    alpha_witness: tuple[int, ...]
    theta: float
    theta_gap: float
    theta_graph: float
    theta_graph_gap: float
    beta_ideal: float
    margin_quantum: float    # theta - alpha
    margin_ideal: float      # beta_ideal - alpha


def bounds_report(sic: SicSet, tol: float = 1e-6) -> BoundsReport:
    """Bundle the classical bound, the quantum ceiling, and the ideal value."""
    from .quantum import bell_operator, bell_value, max_entangled_state

    graph = sic.graph
    alpha, witness = max_weight_independent_set(graph)
    ceiling = state_ceiling(bell_operator(sic))
    graph_res = solve_theta(graph, tol=tol)
    beta, _ = bell_value(sic, max_entangled_state(sic.dimension))
    return BoundsReport(
        set_name=sic.name,
        alpha=alpha,
        alpha_witness=witness,
        theta=ceiling.value,
        theta_gap=ceiling.gap,
        theta_graph=graph_res.value,
        theta_graph_gap=graph_res.gap,
        beta_ideal=beta,
        margin_quantum=ceiling.value - alpha,
        margin_ideal=beta - alpha,
    )
