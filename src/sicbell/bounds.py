"""Classical and quantum bounds for vertex-weighted orthogonality graphs.

Two quantities are computed for a weighted graph (G, w):

* the weighted independence number, found exactly by a depth-first
  branch and bound over bitmask vertex sets that meets independent sets
  in lexicographic order and prunes on a clique-cover bound, and
* the weighted theta number, the value of the semidefinite program

      maximize   <W, X>,   W_ij = sqrt(w_i w_j),
      subject to X >= 0,  Tr X = 1,
                 X_ij = 0                 for every edge (i, j),

  Knuth's n x n form of the weighted Lovasz number ("The Sandwich
  Theorem", Electron. J. Combin. 1 (1994) A1).  It equals the plain
  theta number at unit weights and the weighted independence number on
  perfect graphs.  It is solved in-house by an operator-splitting loop
  (alternating projection onto the affine constraints and the
  semidefinite cone with a scaled dual update), started at I / n with
  the penalty rho = sum(w) = lambda_max(W), the scale of the objective,
  as in the ADMM runs on theta of Wen, Goldfarb & Yin (Math. Prog.
  Comp. 2 (2010)).  The loop is a fixed-point iteration on one
  symmetric matrix, accelerated by type-II Anderson extrapolation over
  its last few steps (Walker & Ni 2011; Zhang, O'Donoghue & Boyd 2020);
  an extrapolated point whose residual exceeds that of the point it
  came from is replaced by that point's plain step, and the history
  starts over.

  Every reported value carries a certificate.  The dual is
  min over edge-supported H of lambda_max(W - H), so the edge part of
  any iterate's multiplier gives an upper bound with one eigenvalue;
  the projected iterate, which is exactly zero on edges, shifted to PSD
  by its smallest eigenvalue and scaled to unit trace, gives a lower
  bound.  Each eigenvalue and sum the bounds rest on is allowed its
  rounding error, so the true optimum lies in value .. value + gap to
  the last ulp, however far the iteration got or which path it took.

  The loop certifies on a clock (its first iteration, then every
  ``_CHECK_EVERY``) and off it, whenever rho times the norm of the
  fixed-point residual falls to a trigger.  The residual bounds the
  distance to optimality (Boyd et al., Found. Trends Mach. Learn. 3
  (2011) section 3.3), and in the tail the bracket width tracks rho
  times its norm, so the trigger starts at tol; an off-clock bracket
  still wider than tol scales the trigger down by tol / width.  The
  clock checks alone keep the best bracket and run the stall rule, so
  the off-clock checks only ever end the loop sooner.

  A set can certify its own theta number, and then the loop does not
  run.  For a unit-weight set whose contexts are d-element bases
  covering every ray r times, such as ks18 and ks21, n / d is both the
  value of the Cabello-Severini-Winter matrix |<v_i|v_j>|^2 / n and the
  top eigenvalue of J - H for H = (n / (d r)) sum_c (J_c - I_c) (PRL 112,
  040401 (2014)).  :func:`bounds_report` hands that pair to
  :func:`solve_theta`, which certifies it as it would an iterate before
  the first iteration.  The bracket is then only its rounding
  allowances wide, about 5e-13, and ``theta_graph_iterations`` is 0.
  Any other set, and a start bracket wider than tol, goes to the loop
  from I / n.

Both quantities split over the graph's structure (Lovasz, IEEE Trans.
Inf. Theory 25 (1979); Knuth 1994): they add up over the connected
components, and on a join, whose complement is disconnected, they are
the max over the complement's components.  :func:`_decompose` splits
the graph that way, recursively, and the independent-set search runs
only on the pieces that split no further: a union's independent set is
the union of its pieces' optima, a join's is the best piece's.
theta_graph splits at a join only: its parts are solved whole at
``tol``, and the bracket is [max of the lower bounds, max of the upper
bounds], no wider than the widest part's.  Any other graph, connected
or not, is solved whole.  ``theta_graph_iterations`` is summed over the
parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .catalog import SicSet, WeightedGraph
from .quantum import bell_operator

_MAX_VERTICES = 64
_EPS = float(np.finfo(float).eps)
_ANDERSON_MEMORY = 10        # past steps the theta_graph extrapolation combines
_STALL_CHECKS = 100          # certifications without a 1% narrower bracket
_CHECK_EVERY = 25            # iterations between clock certifications
_MAX_ITER = 200_000          # solve_theta's default iteration cap


class ThetaNonConvergence(RuntimeError):
    """Raised when the SDP loop exhausts its iteration cap, or when its
    best bracket stops narrowing (a tolerance below its rounding floor).

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


def _components(mask: int, adj: list) -> list:
    """The vertex masks of the connected components of the subgraph of
    ``adj`` induced by ``mask``, in order of their lowest vertex."""
    parts = []
    while mask:
        part = frontier = mask & -mask
        while frontier:
            reach = 0
            while frontier:
                reach |= adj[(frontier & -frontier).bit_length() - 1]
                frontier &= frontier - 1
            frontier = reach & mask & ~part
            part |= frontier
        parts.append(part)
        mask &= ~part
    return parts


def _adjacency(graph: WeightedGraph) -> tuple[list, list]:
    """The bitmask adjacency of the graph and of its complement."""
    n = graph.n
    adj = [0] * n
    for i, j in graph.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    full = (1 << n) - 1
    return adj, [full ^ a ^ (1 << v) for v, a in enumerate(adj)]


def _decompose(graph: WeightedGraph):
    """``(adj, tree)``: the graph's bitmask adjacency and its split into
    pieces.  A mask whose subgraph is disconnected becomes
    ``("union", parts)`` over its components; a connected one whose
    complement is disconnected becomes ``("join", parts)`` over the
    complement's components; anything else is a leaf, the mask itself.
    The parts split again, so a cograph splits down to single vertices."""
    adj, co_adj = _adjacency(graph)

    def split(mask):
        for kind, links in (("union", adj), ("join", co_adj)):
            parts = _components(mask, links)
            if len(parts) > 1:
                return kind, [split(part) for part in parts]
        return mask

    return adj, split((1 << graph.n) - 1)


def max_weight_independent_set(graph: WeightedGraph):
    """Exact maximum-weight independent set: ``(value, witness)``, the
    witness being the lexicographically smallest optimal vertex tuple.

    The graph is split first (:func:`_decompose`).  On a union the values
    add and the witnesses merge: two optima first differ at the least
    element of their symmetric difference, which lies in one component,
    so the merged lexicographic minima are the whole graph's.  On a join
    an independent set lies in one part, so the heaviest part wins, the
    lexicographically smaller witness on a tie.

    On a leaf, the search branches on the lowest candidate and takes it
    first, so independent sets reach the leaves of the search in
    lexicographic order of their sorted tuples.  Weights are positive, so
    no optimal set is a prefix of another, and the first leaf to reach
    the optimal weight is the witness; a subtree is cut once it cannot
    beat the incumbent strictly.  Its bound is a greedy clique cover of
    the candidates, each clique adding its heaviest vertex (an
    independent set meets a clique at most once): the colouring bound of
    Tomita & Seki (2003) and Östergård (Nordic J. Computing 8, 2001) on
    the complement graph.
    """
    n = graph.n
    if n > _MAX_VERTICES:
        raise ValueError(f"graph has {n} vertices; supports at most {_MAX_VERTICES}")
    w = list(graph.weights)
    adj, tree = _decompose(graph)

    def clique_cover_bound(cand):
        total = 0
        while cand:
            v = (cand & -cand).bit_length() - 1
            heaviest, cand = w[v], cand ^ (1 << v)
            common = cand & adj[v]         # candidates adjacent to the whole clique
            while common:
                u = (common & -common).bit_length() - 1
                heaviest, cand = max(heaviest, w[u]), cand ^ (1 << u)
                common &= adj[u]
            total += heaviest
        return total

    def search(leaf):
        best_w, best_set = 0, ()

        def rec(cand, cur_w, cur):
            nonlocal best_w, best_set
            if cand == 0:
                if cur_w > best_w:
                    best_w, best_set = cur_w, tuple(cur)
            elif cur_w + clique_cover_bound(cand) > best_w:
                v = (cand & -cand).bit_length() - 1
                cur.append(v)
                rec(cand & ~(adj[v] | 1 << v), cur_w + w[v], cur)
                cur.pop()
                rec(cand ^ (1 << v), cur_w, cur)

        rec(leaf, 0, [])
        return best_w, best_set

    def solve(node):
        if isinstance(node, int):
            return search(node)
        kind, parts = node
        results = [solve(part) for part in parts]
        if kind == "union":
            return (sum(value for value, _ in results),
                    tuple(sorted(v for _, witness in results for v in witness)))
        return min(results, key=lambda r: (-r[0], r[1]))

    return solve(tree)


def ks_colorable(graph: WeightedGraph, contexts
                 ) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Whether the contexts admit a {0,1} vertex assignment with exactly
    one 1 per context and no two adjacent 1s: ``(True, ones)`` or
    ``(False, None)``.

    One :func:`max_weight_independent_set` call decides it, on the graph
    induced by the context members with each context made a clique and
    each vertex weighted by the number of contexts that contain it.  An
    independent set there meets each context at most once, so its weight
    reaches the number of contexts exactly when it meets each one once;
    the witness is that optimum's vertex tuple.  It inherits the search's
    cap: more than 64 context members raise ValueError.
    """
    contexts = [set(c) for c in contexts]
    members = sorted(set().union(*contexts))
    bad = [v for v in members if not 0 <= v < graph.n]
    if bad:
        raise ValueError(f"context vertex {bad[0]} out of range for n={graph.n}")
    index = {v: k for k, v in enumerate(members)}
    edges = {(index[i], index[j]) for i, j in graph.edges
             if i in index and j in index}
    for ctx in contexts:
        edges.update(combinations(sorted(index[v] for v in ctx), 2))
    weights = tuple(sum(v in ctx for ctx in contexts) for v in members)
    value, witness = max_weight_independent_set(
        WeightedGraph(len(members), weights, tuple(sorted(edges))))
    if value < len(contexts):
        return False, None
    return True, tuple(members[k] for k in witness)


@dataclass(frozen=True)
class ThetaResult:
    value: float            # certified feasible (lower) value
    gap: float              # dual_bound - value
    dual_bound: float
    matrix: np.ndarray      # feasible X: PSD, trace 1, zero on edges, (n, n)
    iterations: int


def solve_theta(graph: WeightedGraph, tol: float = 1e-6,
                max_iter: int = _MAX_ITER,
                start: Optional[tuple[np.ndarray, np.ndarray]] = None) -> ThetaResult:
    """Weighted theta number with a certified bracket of width <= tol.

    ``start``, a pair ``(x0, h)`` of (n, n) arrays, is certified before
    the loop, as an iterate would be: ``x0`` with its edge entries set to
    zero gives the lower bound and the edge entries of ``h`` the upper
    one.  If that bracket is within tol it is returned with
    ``iterations = 0``; otherwise the pair is dropped and the loop runs
    as without it.

    Certifies at the first iteration, every ``_CHECK_EVERY`` iterations,
    and whenever rho ||f|| (f the fixed-point residual) reaches the
    trigger, which starts at tol.  Gives up after ``max_iter``
    iterations, or once the best bracket has not narrowed by 1% over
    ``_STALL_CHECKS`` clock certifications in a row."""
    n = graph.n
    if n > _MAX_VERTICES:
        raise ValueError(f"graph has {n} vertices; supports at most {_MAX_VERTICES}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    if start is not None:
        x0, h = (np.asarray(a, dtype=float) for a in start)
        if not (x0.shape == h.shape == (n, n) and np.isfinite([x0, h]).all()
                and np.trace(x0) > 0.0):
            raise ValueError(f"start must be two finite ({n}, {n}) arrays, "
                             "the first with a positive trace")
    if n == 0:
        return ThetaResult(0.0, 0.0, 0.0, np.zeros((0, 0)), 0)
    sqrt_w = np.sqrt([float(x) for x in graph.weights])
    big_w = np.outer(sqrt_w, sqrt_w)
    rho = float(sum(graph.weights))     # lambda_max(W), the objective's scale
    rows = np.array([i for i, _ in graph.edges], dtype=int)
    cols = np.array([j for _, j in graph.edges], dtype=int)
    diag = np.diag_indices(n)

    def certify(y, v):
        """Bracket the optimum from the projected iterate y (zero on
        edges) and the edge part of the normal-space element rho (v - y)."""
        # lower: y + delta I is PSD once delta covers eigvalsh's rounding;
        # the slack covers the sums in <W, y> and in the trace
        y_norm = float(np.linalg.norm(y))
        delta = max(0.0, (n + 1) * _EPS * y_norm - float(np.linalg.eigvalsh(y)[0]))
        trace = float(np.trace(y)) + n * delta
        slack = 4 * (n + 2) * _EPS * rho * (y_norm + n * delta)
        lower = (float(sqrt_w @ y @ sqrt_w) + delta * rho - slack) / trace
        x = y / trace
        x[diag] += delta / trace
        # upper: every edge-supported H gives the dual-feasible
        # t = lambda_max(W - H).  Rounding in the edge entries only
        # changes H; the allowance covers the computed eigenvalue (off
        # by up to (n+1) eps ||M||), W's rounding (||W|| = rho) and the sum
        m = big_w.copy()
        m[rows, cols] -= rho * v[rows, cols]
        m[cols, rows] = m[rows, cols]
        upper = (float(np.linalg.eigvalsh(m)[-1])
                 + (n + 2) * _EPS * (float(np.linalg.norm(m)) + 2.0 * rho))
        return lower, upper, x

    if start is not None:
        # the projection onto symmetric matrices with zero edge entries,
        # which leaves a feasible x0 as it is
        y = (x0 + x0.T) / 2.0
        y[rows, cols] = 0.0
        y[cols, rows] = 0.0
        lower, upper, x = certify(y, h / rho)
        if upper - lower <= tol:
            return ThetaResult(lower, upper - lower, upper, x, 0)

    relax = 1.6
    c_rho = big_w / rho
    # Anderson history: differences of accepted states and of their
    # residuals, one column each, overwritten oldest first
    d_s = np.empty((n * n, _ANDERSON_MEMORY))
    d_f = np.empty((n * n, _ANDERSON_MEMORY))
    stored = head = 0
    s = np.eye(n) / n
    # last accepted state, its residual, its plain step and the residual norm
    s_last = f_last = g_last = res_last = None
    extrapolated = False
    best: Optional[tuple] = None
    stall_width, stalled = math.inf, 0
    trigger = tol

    for it in range(1, max_iter + 1):
        lam, q = np.linalg.eigh(s)
        # every iterate is kept exactly symmetric (eigvalsh in certify
        # reads one triangle, the bounds use both); q diag q^T rounds
        # its two triangles differently
        z = (q * np.clip(lam, 0.0, None)) @ q.T
        z = (z + z.T) / 2.0
        u = s - z
        v = z - u + c_rho
        # the nearest point with zero edge entries and unit trace: the
        # two constraint groups touch disjoint entries
        y = v.copy()
        y[rows, cols] = 0.0
        y[cols, rows] = 0.0
        y[diag] += (1.0 - np.trace(y)) / n
        g = relax * y + (1.0 - relax) * z + u
        f = g - s
        res = float(np.linalg.norm(f))

        # off the clock a certificate can only end the loop, and one
        # still too wide lowers the trigger by its excess over tol
        on_clock = it % _CHECK_EVERY == 0 or it == 1
        triggered = rho * res <= trigger
        if on_clock or triggered:
            lower, upper, x = certify(y, v)
            if upper - lower <= tol:
                return ThetaResult(lower, upper - lower, upper, x, it)
            if triggered:
                trigger = tol * rho * res / (upper - lower)
        if on_clock:
            if best is None or (upper - lower) < (best[1] - best[0]):
                best = (lower, upper, x)
            if best[1] - best[0] < 0.99 * stall_width:
                stall_width, stalled = best[1] - best[0], 0
            else:
                stalled += 1
            if stalled >= _STALL_CHECKS:
                raise ThetaNonConvergence(best[0], best[1], it)

        if extrapolated and res > res_last:
            # safeguard: the extrapolation did worse than the point it
            # came from, so take that point's plain step and start over
            s, extrapolated = g_last, False
            stored = head = 0
            continue
        if s_last is not None:
            d_s[:, head] = (s - s_last).ravel()
            d_f[:, head] = (f - f_last).ravel()
            head = (head + 1) % _ANDERSON_MEMORY
            stored = min(stored + 1, _ANDERSON_MEMORY)
        s_last, f_last, g_last, res_last = s, f, g, res
        s, extrapolated = g, False
        if stored:
            # type-II Anderson: gamma minimizes ||f - dF gamma||
            df = d_f[:, :stored]
            gram = df.T @ df
            reg = 1e-10 * float(np.trace(gram))
            if reg > 0.0:
                gram[np.diag_indices(stored)] += reg
                gamma = np.linalg.solve(gram, df.T @ f.ravel())
                step = ((d_s[:, :stored] + df) @ gamma).reshape(n, n)
                s, extrapolated = g - (step + step.T) / 2.0, True

    lower, upper, _ = best
    raise ThetaNonConvergence(lower, upper, max_iter)


def _induced(graph: WeightedGraph, mask: int) -> WeightedGraph:
    """The subgraph on the vertices of ``mask``, renumbered in order."""
    if mask == (1 << graph.n) - 1:
        return graph
    vertices = [v for v in range(graph.n) if mask >> v & 1]
    index = {v: k for k, v in enumerate(vertices)}
    return WeightedGraph(len(index), tuple(graph.weights[v] for v in vertices),
                         tuple((index[i], index[j]) for i, j in graph.edges
                               if i in index and j in index))


def _theta_bracket(graph: WeightedGraph, tol: float,
                   start: Optional[tuple] = None) -> tuple[float, float, int]:
    """``(lower, upper, iterations)``: the weighted theta number,
    bracketed to within ``tol``.

    A join is solved part by part, over its complement's components,
    each by :func:`solve_theta` at ``tol``.  theta is the max over the
    parts, so the bracket is the max of their lower and of their upper
    bounds, no wider than the widest part's.  Any other graph is solved
    whole, from ``start`` if given; the parts of a join are renumbered,
    so they never get it.  Iterations add up over the parts.  Once a
    part raises :class:`ThetaNonConvergence`, each later part gets one
    iteration, whose certificate is enough for a bracket: the error
    carries the one assembled from every part's best.
    """
    full = (1 << graph.n) - 1
    parts = _components(full, _adjacency(graph)[1]) or [full]
    start = start if len(parts) == 1 else None
    brackets, failed = [], False
    for part in parts:
        try:
            res = solve_theta(_induced(graph, part), tol=tol,
                              max_iter=1 if failed else _MAX_ITER, start=start)
            brackets.append((res.value, res.dual_bound, res.iterations))
        except ThetaNonConvergence as exc:
            failed = True
            brackets.append((exc.primal_bound, exc.dual_bound, exc.iterations))
    lowers, uppers, iterations = zip(*brackets)
    if failed:
        raise ThetaNonConvergence(max(lowers), max(uppers), sum(iterations))
    return max(lowers), max(uppers), sum(iterations)


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
    theta_graph_iterations: int


def _closed_form_start(sic: SicSet) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The set's own theta_graph certificate as a :func:`solve_theta`
    start ``(x0, h)``, for a unit-weight set whose contexts are d-element
    bases covering every ray the same number of times r; None otherwise.

    x0 is the Cabello-Severini-Winter matrix |<v_i|v_j>|^2 / n (PRL 112,
    040401 (2014)): the Gram matrix of the v_i (x) conj(v_i) over n, so
    PSD with unit trace, zero on edges (up to the rounding that
    solve_theta's projection removes), and of value
    ||sum_i P_i||_F^2 / n = n / d, since the r-fold cover by bases makes
    sum_i P_i = (n / d) I.  h is (n / (d r)) (B B^T - r I), B the ray by
    context incidence matrix.  B B^T has the all-ones vector as an
    eigenvector of eigenvalue d r, so J - (n / (d r)) B B^T vanishes on
    it and is negative semidefinite on its complement, and J - h has top
    eigenvalue n / d.  h is nonzero only on pairs that share a context;
    solve_theta reads it on edges alone, so a context that is not
    orthogonal loosens the bracket and never falsifies it."""
    n, d, contexts = sic.n, sic.dimension, sic.contexts
    if not contexts or any(w != 1 for w in sic.weights):
        return None
    incidence = np.zeros((n, len(contexts)))
    for k, ctx in enumerate(contexts):
        if len(set(ctx)) != d or not all(0 <= v < n for v in ctx):
            return None
        incidence[list(ctx), k] = 1.0
    cover = incidence.sum(axis=1)
    r = cover[0]
    if (cover != r).any():
        return None
    vecs = sic.unit_vectors
    x0 = np.abs(vecs @ vecs.conj().T) ** 2 / n
    h = n / (d * r) * (incidence @ incidence.T - r * np.eye(n))
    return x0, h


def bounds_report(sic: SicSet, tol: float = 1e-6) -> BoundsReport:
    """Bundle the classical bound, the quantum ceiling, and the ideal value."""
    graph = sic.graph
    alpha, witness = max_weight_independent_set(graph)
    ceiling = state_ceiling(bell_operator(sic))
    graph_lower, graph_upper, graph_iterations = _theta_bracket(
        graph, tol, _closed_form_start(sic))
    # the maximally entangled state clicks 1/d on each diagonal, 0 on edges
    beta = sum(sic.weights) / sic.dimension
    return BoundsReport(
        set_name=sic.name,
        alpha=alpha,
        alpha_witness=witness,
        theta=ceiling.value,
        theta_gap=ceiling.gap,
        theta_graph=graph_lower,
        theta_graph_gap=graph_upper - graph_lower,
        beta_ideal=beta,
        margin_quantum=ceiling.value - alpha,
        margin_ideal=beta - alpha,
        theta_graph_iterations=graph_iterations,
    )
