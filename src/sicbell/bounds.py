"""Classical and quantum bounds for vertex-weighted orthogonality graphs.

:func:`bounds_report` brackets three numbers for a set, each from the
cheapest certificate that closes it:

* alpha, the weighted independence number, exactly, by the branch and
  bound of :func:`max_weight_independent_set`;
* theta_graph, the weighted theta number

      maximize   <W, X>,   W_ij = sqrt(w_i w_j),
      subject to X >= 0,  Tr X = 1,
                 X_ij = 0                 for every edge (i, j),

  Knuth's n x n form of the weighted Lovasz number ("The Sandwich
  Theorem", Electron. J. Combin. 1 (1994) A1), from the closed form of
  each coordinate block that has one (:func:`_block_start`), and from
  the solver, :func:`solve_theta`, on the others;
* the quantum ceiling, the top eigenvalue of the set's Bell operator,
  from the maximally entangled states of its coordinate blocks and
  theta_graph's upper end, or else from each block's operator
  (:func:`state_ceiling`).

Each bracket holds its value to the last ulp (``_Program``,
:func:`state_ceiling`).  Both graph numbers split over the graph's
unions and joins (:func:`_decompose`), so the search and the theta loop
(:func:`_loop`) run only on the pieces that split no further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from itertools import compress
from operator import or_
from typing import Optional

import numpy as np

from .catalog import SicSet, WeightedGraph
from .quantum import block_operator

_MAX_VERTICES = 64
_EPS = float(np.finfo(float).eps)
_ANDERSON_MEMORY = 10        # past steps the theta_graph extrapolation combines
_STALL_CHECKS = 100          # certifications without a 1% narrower bracket
_CHECK_EVERY = 25            # iterations between clock certifications
_MAX_ITER = 200_000          # solve_theta's default iteration cap
_BASES_BUDGET = 100_000      # steps of a block's bases search before it gives up


class ThetaNonConvergence(RuntimeError):
    """Raised when a graph's certificate, built from each loop's best, is
    wider than tol: a loop ran out of iterations, or its best bracket
    stopped narrowing short of tol.

    Carries that certificate as ``result``, which :func:`bounds_report`
    still joins, and its bracket and the iterations of every loop run as
    attributes of their own, so callers can still report them."""

    def __init__(self, result: ThetaResult):
        self.result = result
        self.primal_bound, self.dual_bound = result.value, result.dual_bound
        self.iterations = result.iterations
        super().__init__(f"no certificate after {self.iterations} iterations; best "
                         f"bracket [{self.primal_bound:.9f}, {self.dual_bound:.9f}]")


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
    ``("union", mask, parts)`` over its components; a connected one whose
    complement is disconnected becomes ``("join", mask, parts)`` over the
    complement's components; anything else is a leaf, the mask itself.
    The parts split again, so a cograph splits down to single vertices.
    A graph of more than ``_MAX_VERTICES`` vertices is refused."""
    if graph.n > _MAX_VERTICES:
        raise ValueError(f"graph has {graph.n} vertices; supports at most {_MAX_VERTICES}")
    adj, co_adj = _adjacency(graph)

    def split(mask):
        for kind, links in (("union", adj), ("join", co_adj)):
            parts = _components(mask, links)
            if len(parts) > 1:
                return kind, mask, [split(part) for part in parts]
        return mask

    return adj, split((1 << graph.n) - 1)


def max_weight_independent_set(graph: WeightedGraph):
    """Exact maximum-weight independent set: ``(value, witness)``, the
    witness being the lexicographically smallest optimal vertex tuple.

    The graph is split first (:func:`_decompose`, which refuses more
    than ``_MAX_VERTICES`` vertices).  On a union the values
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
    adj, tree = _decompose(graph)
    w = list(graph.weights)

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
        kind, _, parts = node
        results = [solve(part) for part in parts]
        if kind == "union":
            return (sum(value for value, _ in results),
                    tuple(sorted(v for _, witness in results for v in witness)))
        return min(results, key=lambda r: (-r[0], r[1]))

    return solve(tree)


@dataclass(frozen=True)
class ThetaResult:
    value: float            # certified feasible (lower) value
    gap: float              # dual_bound - value
    dual_bound: float
    matrix: np.ndarray      # feasible X: PSD, trace 1, zero on edges, (n, n)
    iterations: int
    h: np.ndarray           # edge-supported H: lambda_max(W - H) <= dual_bound


def solve_theta(graph: WeightedGraph, tol: float = 1e-6,
                max_iter: int = _MAX_ITER) -> ThetaResult:
    """Weighted theta number with a certified bracket of width <= tol.

    A bad tol, then a graph past ``_MAX_VERTICES`` vertices, then a tol
    below the graph's rounding floor (:func:`_rounding_floor`), which no
    certificate can beat, raise ValueError before any loop runs.

    The graph is split (:func:`_decompose`) and the loop (:func:`_loop`)
    runs only on the pieces that split no further, each for at most
    ``max_iter`` iterations.  Each part of a union is solved at tol
    times its share of the union's weight, so a piece's tol is at least
    its share of the whole graph's, however deep it lies, and the parts'
    certificates are assembled into one pair for the union
    (:func:`_union_start`), which the union's ``_Program`` certifies.
    Each part of a join is solved at tol, and the join's bracket is [max
    of the parts' lower bounds, max of their upper bounds]
    (:func:`_join_result`).

    Every loop returns its best certificate, so every piece, and the
    whole graph, has one.  Should the whole graph's be wider than tol,
    :class:`ThetaNonConvergence` carries it.  ``iterations`` counts every
    loop run."""
    _check_tol(tol)
    if graph.n == 0:
        return ThetaResult(0.0, 0.0, 0.0, np.zeros((0, 0)), 0, np.zeros((0, 0)))
    tree = _decompose(graph)[1]
    floor = _rounding_floor(graph, tree)
    if tol < floor:
        raise ValueError(f"tol {tol!r} is below this graph's rounding floor "
                         f"{floor:.3g}: no certified bracket is narrower")

    def solve(node, node_tol):
        """``node``'s best certificate, with the iterations of its loops."""
        if isinstance(node, int):
            return _loop(_Program(_induced(graph, node)), node_tol, max_iter)
        kind, mask, parts = node
        sub = _induced(graph, mask)
        program = _Program(sub)
        places = [_places(mask, part if isinstance(part, int) else part[1])
                  for part in parts]
        if kind == "join":
            return _join_result(program, places, [solve(part, node_tol) for part in parts])
        results = [solve(part, node_tol * (sum(sub.weights[p] for p in place) / program.rho))
                   for part, place in zip(parts, places)]
        return replace(program.certify_start(_union_start(program, places, results)),
                       iterations=sum(r.iterations for r in results))

    res = solve(tree, tol)
    if res.gap > tol:
        raise ThetaNonConvergence(res)
    return res


def _check_tol(tol: float) -> None:
    """Refuse a tol that is not a positive finite number."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite number, got {tol}")


def _rounding_floor(graph: WeightedGraph, node) -> float:
    """The narrowest bracket :func:`solve_theta` can certify on ``node``
    of ``graph``'s split (:func:`_decompose`): 2 (n + 1) eps sum(w) on a
    leaf or union of n vertices, the least of its parts' on a join.

    Every lower end is at most theta.  ``_Program.certify``'s upper
    allowance, (n + 2) eps (||M|| + 2 rho), exceeds eigvalsh's own error,
    (n + 1) eps ||M||, by 2 (n + 2) eps rho (rho = sum(w)); W's rounding
    and the final sum take less than 2 eps rho of that, so every upper
    end lies at least 2 (n + 1) eps rho above theta.  A join's upper end
    is at least that of the part whose theta it takes, and its lower end
    at most that theta.  Rounding is monotone, so the float gap is at
    least the float floor."""
    if not isinstance(node, int) and node[0] == "join":
        return min(_rounding_floor(graph, part) for part in node[2])
    mask = node if isinstance(node, int) else node[1]
    weight = float(sum(w for v, w in enumerate(graph.weights) if mask >> v & 1))
    return 2 * (mask.bit_count() + 1) * _EPS * weight


class _Program:
    """The theta program of one graph, and its certificate.

    The dual is min over edge-supported H of lambda_max(W - H), so the
    edge part of any multiplier gives an upper end with one eigenvalue
    (``ThetaResult.h``); a symmetric matrix zero on edges, shifted to PSD
    by its smallest eigenvalue and scaled to unit trace, gives a lower
    end (``ThetaResult.matrix``).  Each eigenvalue and sum the ends rest
    on is allowed its rounding error, so the optimum lies in value ..
    value + gap to the last ulp, wherever the pair came from."""

    def __init__(self, graph: WeightedGraph):
        self.n = graph.n
        self.sqrt_w = np.sqrt([float(x) for x in graph.weights])
        self.big_w = np.outer(self.sqrt_w, self.sqrt_w)
        self.rho = float(sum(graph.weights))    # lambda_max(W), the objective's scale
        self.rows = np.array([i for i, _ in graph.edges], dtype=int)
        self.cols = np.array([j for _, j in graph.edges], dtype=int)

    def certify(self, y, v, iterations: int) -> ThetaResult:
        """Bracket the optimum from the projected iterate y (zero on
        edges) and the edge part H of the normal-space element rho (v - y)."""
        n, rho, rows, cols = self.n, self.rho, self.rows, self.cols
        # lower: y + delta I is PSD once delta covers eigvalsh's rounding;
        # the slack covers the sums in <W, y> and in the trace
        y_norm = float(np.linalg.norm(y))
        delta = max(0.0, (n + 1) * _EPS * y_norm - float(np.linalg.eigvalsh(y)[0]))
        trace = float(np.trace(y)) + n * delta
        slack = 4 * (n + 2) * _EPS * rho * (y_norm + n * delta)
        lower = (float(self.sqrt_w @ y @ self.sqrt_w) + delta * rho - slack) / trace
        x = y / trace
        x[np.diag_indices(n)] += delta / trace
        # upper: every edge-supported H gives the dual-feasible
        # t = lambda_max(W - H).  Rounding in the edge entries only
        # changes H; the allowance covers the computed eigenvalue (off
        # by up to (n+1) eps ||M||), W's rounding (||W|| = rho) and the sum
        h = np.zeros((n, n))
        h[rows, cols] = rho * v[rows, cols]
        h[cols, rows] = h[rows, cols]
        m = self.big_w - h
        upper = (float(np.linalg.eigvalsh(m)[-1])
                 + (n + 2) * _EPS * (float(np.linalg.norm(m)) + 2.0 * rho))
        return ThetaResult(lower, upper - lower, upper, x, iterations, h)

    def certify_start(self, start) -> ThetaResult:
        """The certificate of a pair ``(x0, h)`` of (n, n) float arrays
        that did not come from the loop: a block's closed form
        (:func:`_block_start`) or a union's assembly
        (:func:`_union_start`).  x0 is first projected onto symmetric
        matrices with zero edge entries, which leaves a feasible x0 as
        it is; h is read on edges alone."""
        x0, h = start
        y = (x0 + x0.T) / 2.0
        y[self.rows, self.cols] = 0.0
        y[self.cols, self.rows] = 0.0
        return self.certify(y, h / self.rho, 0)


def _loop(program: _Program, tol: float, max_iter: int) -> ThetaResult:
    """The Anderson-accelerated loop on ``program`` from I / n.

    The loop is operator splitting (alternating projection onto the
    affine constraints and the semidefinite cone with a scaled dual
    update) at the penalty rho = sum(w) = lambda_max(W), the objective's
    scale, as in the ADMM runs on theta of Wen, Goldfarb & Yin (Math.
    Prog. Comp. 2 (2010)).  It is a fixed-point iteration on one
    symmetric matrix, accelerated by type-II Anderson extrapolation over
    its last ``_ANDERSON_MEMORY`` steps (Walker & Ni 2011; Zhang,
    O'Donoghue & Boyd 2020); an extrapolated point whose residual
    exceeds that of the point it came from is replaced by that point's
    plain step, and the history starts over.

    It certifies at its first iteration, every ``_CHECK_EVERY``
    iterations, and whenever rho ||f|| (f the fixed-point residual)
    reaches a trigger that starts at tol.  The residual bounds the
    distance to optimality (Boyd et al., Found. Trends Mach. Learn. 3
    (2011) section 3.3), and in the tail the bracket width tracks
    rho ||f||, so a triggered certificate still too wide lowers the
    trigger by its excess over tol.

    It returns the first certificate within tol; or else its best, the
    narrowest clock certificate or a fixed point's own, once ``max_iter``
    iterations (at least one) have run, the best bracket has not
    narrowed by 1% over ``_STALL_CHECKS`` clock certifications in a row,
    or f is exactly 0, a fixed point."""
    n, rho = program.n, program.rho
    certify, big_w = program.certify, program.big_w
    # both triangles' edge entries, as indices into the flattened matrix
    edges = np.concatenate([program.rows * n + program.cols,
                            program.cols * n + program.rows])
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
    best: Optional[ThetaResult] = None
    stall_width, stalled = math.inf, 0
    trigger = tol

    for it in range(1, max(max_iter, 1) + 1):
        lam, q = np.linalg.eigh(s)
        # every iterate is kept exactly symmetric (eigvalsh in certify
        # reads one triangle, the bounds use both); q diag q^T rounds
        # its two triangles differently
        z = (q * np.maximum(lam, 0.0)) @ q.T
        z = (z + z.T) / 2.0
        u = s - z
        v = z - u + c_rho
        # the nearest point with zero edge entries and unit trace: the
        # two constraint groups touch disjoint entries
        y = v.copy()
        y_flat = y.reshape(-1)
        y_flat[edges] = 0.0
        y_flat[::n + 1] += (1.0 - y.trace()) / n
        g = relax * y + (1.0 - relax) * z + u
        f = g - s
        f_flat = f.reshape(-1)
        res = math.sqrt(f_flat @ f_flat)

        # off the clock a certificate can only end the loop
        on_clock = it % _CHECK_EVERY == 0 or it == 1
        triggered = rho * res <= trigger
        if on_clock or triggered:
            cert = certify(y, v, it)
            if cert.gap <= tol:
                return cert
            if (on_clock or res == 0.0) and (best is None or cert.gap < best.gap):
                best = cert
            if res == 0.0:  # a fixed point: the state can never move again
                break
            if triggered:
                trigger = tol * rho * res / cert.gap
        if on_clock:
            if best.gap < 0.99 * stall_width:
                stall_width, stalled = best.gap, 0
            else:
                stalled += 1
            if stalled >= _STALL_CHECKS:
                break

        if extrapolated and res > res_last:
            # safeguard: the extrapolation did worse than the point it
            # came from, so take that point's plain step and start over
            s, extrapolated = g_last, False
            stored = head = 0
            continue
        if s_last is not None:
            d_s[:, head] = (s - s_last).ravel()
            d_f[:, head] = f_flat - f_last
            head = (head + 1) % _ANDERSON_MEMORY
            stored = min(stored + 1, _ANDERSON_MEMORY)
        s_last, f_last, g_last, res_last = s, f_flat, g, res
        s, extrapolated = g, False
        if stored:
            # type-II Anderson: gamma minimizes ||f - dF gamma||
            df = d_f[:, :stored]
            gram = df.T @ df
            reg = 1e-10 * gram.trace()
            if reg > 0.0:
                gram.reshape(-1)[::stored + 1] += reg
                gamma = np.linalg.solve(gram, df.T @ f_flat)
                step = ((d_s[:, :stored] + df) @ gamma).reshape(n, n)
                s, extrapolated = g - (step + step.T) / 2.0, True
    return replace(best, iterations=it)


def _induced(graph: WeightedGraph, mask: int) -> WeightedGraph:
    """The subgraph on the vertices of ``mask``, renumbered in order."""
    if mask == (1 << graph.n) - 1:
        return graph
    vertices = [v for v in range(graph.n) if mask >> v & 1]
    index = {v: k for k, v in enumerate(vertices)}
    return WeightedGraph(len(index), tuple(graph.weights[v] for v in vertices),
                         tuple((index[i], index[j]) for i, j in graph.edges
                               if i in index and j in index))


def _places(mask: int, part: int) -> list:
    """Where the vertices of ``part`` fall among those of ``mask``."""
    return [(mask & ((1 << v) - 1)).bit_count()
            for v in range(part.bit_length()) if part >> v & 1]


def _union_start(program: _Program, places: list, parts: list):
    """A :func:`solve_theta` start ``(x0, h)`` for the disjoint union of
    theta program ``program``, assembled from its parts' results,
    ``places`` giving where each part's vertices fall in the union.

    With s_k = sqrt(w) on part k, X_k its matrix, theta_k = s_k^T X_k s_k
    and u_k = X_k s_k, x0 = (blockdiag(theta_k X_k - u_k u_k^T) + u u^T)
    / theta, u = (u_1, ..., u_k) and theta = sum theta_k: the Gram matrix
    of the parts' vectors with their s_k directions aligned, so PSD, of
    unit trace, zero on edges and of value theta.  Its diagonal blocks
    are theta_k X_k / theta, the rest u u^T / theta.  With U_k the parts'
    upper bounds and U their sum, h = blockdiag((U / U_k) h_k): by
    Cauchy-Schwarz, (sum_k s_k^T z_k)^2 <= U sum_k (s_k^T z_k)^2 / U_k,
    so lambda_max(W - h) <= U."""
    sqrt_w = program.sqrt_w
    total = sum(part.dual_bound for part in parts)
    u = np.zeros(program.n)
    values = []
    for place, part in zip(places, parts):
        u[place] = part.matrix @ sqrt_w[place]
        values.append(float(sqrt_w[place] @ u[place]))
    x0 = np.outer(u, u)
    h = np.zeros_like(x0)
    for place, part, value in zip(places, parts, values):
        block = np.ix_(place, place)
        x0[block] = value * part.matrix
        h[block] = (total / part.dual_bound) * part.h
    return x0 / sum(values), h


def _join_result(program: _Program, places: list, parts: list) -> ThetaResult:
    """A join's theta is the max over its parts (Knuth 1994), so its
    bracket is [max of the parts' lower bounds, max of their upper
    bounds], no wider than the widest part's.  The matrix is that of the
    part with the best lower bound, zero elsewhere, and h is W (the
    join's ``program.big_w``) on the cross pairs, all of them edges, and
    each part's h on its block: W - h is then block diagonal, its top
    eigenvalue the max of the parts'.  Iterations add up over the parts."""
    lower = max(part.value for part in parts)
    upper = max(part.dual_bound for part in parts)
    h = program.big_w.copy()
    x = np.zeros_like(h)
    best = next(k for k, part in enumerate(parts) if part.value == lower)
    for k, (place, part) in enumerate(zip(places, parts)):
        block = np.ix_(place, place)
        h[block] = part.h
        if k == best:
            x[block] = part.matrix
    return ThetaResult(lower, upper - lower, upper, x,
                       sum(part.iterations for part in parts), h)


@dataclass(frozen=True)
class CeilingResult:
    value: float            # certified lower bound, attained by `vector`
    gap: float              # dual_bound - value
    dual_bound: float       # certified upper bound
    vector: np.ndarray      # unit vector, (m,), of expectation at least `value`
    iterations: int         # always 1: one eigendecomposition


def state_ceiling(op: np.ndarray) -> CeilingResult:
    """Largest expectation of a Hermitian (m, m) operator over density
    matrices, with a certified bracket.

    The optimum of max <op, rho> subject to Tr rho = 1, rho >= 0 is the
    top eigenvalue of op, attained by its eigenvector v, so one
    Hermitian eigendecomposition replaces an iterative solver.  Both
    ends allow for rounding as ``_Program.certify`` does, at the scale
    s = (m + 2) eps ||op||_F.  ``value`` is v's Rayleigh quotient, the
    expectation of the state ``vector``, less 2 s for its two m-term
    products and v's norm; ``dual_bound`` is the computed top
    eigenvalue, off by up to (m + 1) eps ||op||_F, plus s.  The bracket
    is that of the operator as its floats hold it.
    """
    op = np.asarray(op)
    m = op.shape[0]
    if op.shape != (m, m) or np.max(np.abs(op - op.conj().T)) > 1e-10:
        raise ValueError("operator must be a Hermitian square matrix")
    lam, vecs = np.linalg.eigh(op)
    v = vecs[:, -1]
    scale = (m + 2) * _EPS * float(np.linalg.norm(op))
    lower = float(np.vdot(v, op @ v).real / np.vdot(v, v).real) - 2.0 * scale
    upper = float(lam[-1]) + scale
    return CeilingResult(lower, upper - lower, upper, v, 1)


@dataclass(frozen=True)
class BoundsReport:
    """Classical bound, quantum ceiling, and graph relaxation for one set.

    ``theta`` is the largest value of the functional over quantum states
    for the set's own conjugated-projector measurements (the ceiling the
    experiment is compared against), certified to lie in theta ..
    theta + theta_gap.  ``theta_graph`` is the weighted Lovász number of
    the orthogonality graph, an upper bound valid for every realization;
    the two coincide for the unit-weight sets and differ when the
    weights are non-uniform.
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


def _block_start(sic: SicSet, adj: list, rays: list, coords: list
                 ) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The closed-form theta_graph certificate of the coordinate block of
    ``rays`` on ``coords``: a pair ``(x0, h)`` for ``_Program.certify_start``
    on the graph the rays induce, if their weights are 1 and their bases,
    the d-cliques of ``adj`` (d = len(coords); d pairwise orthogonal
    nonzero rays in d dimensions are a basis), cover each ray r times, as
    in ks18 and ks21; None otherwise.  The search pops at most
    ``_BASES_BUDGET`` partial bases (ks18 and ks21 take 57 and 76); past
    that the block has no closed form, and the solver runs.

    x0 is the Cabello-Severini-Winter matrix |<v_i|v_j>|^2 / n (PRL 112,
    040401 (2014)): the Gram matrix of the v_i (x) conj(v_i) over n, so
    PSD with unit trace, zero on edges up to rounding, and of value
    ||sum_i P_i||_F^2 / n = n / d, as the r-fold cover by bases makes
    sum_i P_i = (n / d) I.  h is (n / (d r)) (B B^T - r I), B the ray by
    basis incidence matrix, nonzero only on edges.  B B^T has the
    all-ones vector as an eigenvector of eigenvalue d r, so
    J - (n / (d r)) B B^T vanishes on it and is negative semidefinite on
    its complement, and J - h has top eigenvalue n / d."""
    n, d = len(rays), len(coords)
    if any(sic.weights[i] != 1 for i in rays):
        return None
    # (clique, rays that extend it past its highest, rays still to add)
    bases, stack = [], [(0, sum(1 << i for i in rays), d)]
    for _ in range(_BASES_BUDGET):
        if not stack:
            break
        basis, cand, left = stack.pop()
        while cand.bit_count() >= left:
            v = cand & -cand
            cand ^= v
            if left == 1:
                bases.append(basis | v)
            else:
                stack.append((basis | v, cand & adj[v.bit_length() - 1], left - 1))
    if stack:
        return None
    incidence = ((np.array(bases, dtype=np.uint64) >> np.array(rays, dtype=np.uint64)[:, None])
                 & np.uint64(1)).astype(float)
    cover = incidence.sum(axis=1)
    r = cover[0]
    if not r or (cover != r).any():
        return None
    vecs = sic.unit_vectors[np.ix_(rays, coords)]
    x0 = np.abs(vecs @ vecs.conj().T) ** 2 / n
    h = n / (d * r) * (incidence @ incidence.T - r * np.eye(n))
    return x0, h


def _round_down(num: int, den: int) -> float:
    """num / den (den > 0) rounded down to a float.  Integer division
    rounds to nearest; as_integer_ratio compares its result exactly."""
    q = num / den
    top, bottom = q.as_integer_ratio()
    return math.nextafter(q, -math.inf) if top * den > num * bottom else q


def _coordinate_blocks(sic: SicSet) -> list:
    """The set's coordinate blocks, the connected components of the
    coordinates when a ray links every two it is nonzero at, as
    ``(rays, coords)`` index lists, in order: for each block that holds
    rays, those rays and the block's coordinates.  A set that does not
    split is one block, of all of its coordinates when a ray is nonzero
    at every one of them.  Read exactly from the coordinates, as
    a + b w = 0 only if a = b = 0; a zero ray is in no block."""
    a, b = sic.coordinates
    # an empty set's coordinates are (2, 0, 0)
    nonzero = ((a != 0) | (b != 0)).reshape(sic.n, sic.dimension)
    masks = (nonzero @ [1 << c for c in range(sic.dimension)]).tolist()
    if (1 << sic.dimension) - 1 in masks:
        return [(list(range(sic.n)), list(range(sic.dimension)))]
    # two coordinates are linked when one ray's mask holds both
    adj = [reduce(or_, compress(masks, column), 0) for column in nonzero.T.tolist()]
    return [([i for i, mask in enumerate(masks) if mask & block],
             [c for c in range(sic.dimension) if block >> c & 1])
            for block in _components(reduce(or_, masks, 0), adj)]


def _ceiling_bracket(sic: SicSet, rays: list, coords: list) -> tuple[float, float]:
    """The quantum ceiling of the set's ``rays`` on its ``coords``, a
    coordinate block, bracketed from the set's projectors and coefficient
    matrix restricted to them (:func:`sicbell.quantum.block_operator`):
    :func:`state_ceiling`'s bracket, widened by the operator's rounding.
    Each float entry of P^T C P* (P the rows of rounded projectors) is off
    from the exact one by at most (2 k + 12) eps times that entry of
    |P|^T |C| |P| (k unit rows), whose norm is at most sum |C_ij|."""
    coeffs = sic.coefficient_matrix[np.ix_(rays, rays)]
    ceiling = state_ceiling(block_operator(sic.projectors[np.ix_(rays, coords, coords)],
                                           coeffs))
    spread = (2 * len(rays) + 12) * _EPS * float(np.abs(coeffs).sum())
    return ceiling.value - spread, ceiling.dual_bound + spread


def bounds_report(sic: SicSet, tol: float = 1e-6) -> BoundsReport:
    """Bundle the classical bound, the quantum ceiling, and the ideal value.

    A set with a zero ray, which no state can click, is refused, and so
    is a tol that is not positive and finite, before any search.  A
    coordinate block whose closed form (:func:`_block_start`), from its
    own bases and not the declared contexts, certifies within tol is a
    part on its own (ks18, ks21, and ks18 in yo13 (+) ks18, at 0
    iterations); the rays of the other blocks make one more part, solved
    by :func:`solve_theta` (yo13), whose best certificate is a part even
    if wider than tol.  Every cross pair of two blocks is orthogonal, so
    ``theta_graph``'s bracket is the join of the parts'
    (:func:`_join_result`), and only a join wider than tol raises
    :class:`ThetaNonConvergence`.

    The quantum ceiling's lower end is the largest sum(w_b) / d_b over
    the set's coordinate blocks (:func:`_coordinate_blocks`), rounded
    down, which the maximally entangled state on that block attains.
    Its upper end is theta_graph's: Q_i = Pi_i (x) conj(Pi_i) are
    projectors with Q_i Q_j = 0 on every edge, so sum_i w_i <Q_i> is at
    most theta(G, w) (Cabello, Severini & Winter, PRL 112, 040401
    (2014)), and the edge terms of the functional are PSD and enter with
    a minus sign.  Only if the two are further apart than tol (yo13, not
    ks18, ks21 or ks18 (+) ks21) is each block's Bell operator built.
    Every Pi_i (x) conj(Pi_j) acts inside the product of its rays'
    blocks, so the operator is block diagonal: on a block's own square
    it is that block's operator, and on a cross block only edge terms
    act, as every cross pair is orthogonal, and those are negative
    semidefinite.  So the ceiling is the largest of the blocks' own, and
    each :func:`_ceiling_bracket` raises the lower end to the largest of
    theirs and cuts the upper end to the largest of theirs."""
    graph = sic.graph
    zero = np.flatnonzero(np.diagonal(sic.orthogonal))
    if zero.size:
        raise ValueError(f"ray {zero[0]} is the zero vector: no state can click it")
    _check_tol(tol)
    alpha, witness = max_weight_independent_set(graph)
    adj = _adjacency(graph)[0]
    weights, blocks = sic.weights, _coordinate_blocks(sic)
    places, parts, rest = [], [], []
    for rays, coords in blocks:
        start = _block_start(sic, adj, rays, coords)
        if start is not None:
            part = _Program(_induced(graph, sum(1 << i for i in rays))).certify_start(start)
            if part.gap <= tol:
                places.append(rays)
                parts.append(part)
                continue
        rest += rays
    if rest or not parts:
        # an empty set has no part either, and solve_theta gives it zeros
        places.append(sorted(rest))
        try:
            parts.append(solve_theta(_induced(graph, sum(1 << i for i in rest)), tol))
        except ThetaNonConvergence as exc:
            parts.append(exc.result)
    theta_graph = parts[0] if len(parts) == 1 else _join_result(_Program(graph), places, parts)
    if theta_graph.gap > tol:
        raise ThetaNonConvergence(theta_graph)
    lower = max((_round_down(sum(weights[i] for i in rays), len(coords))
                 for rays, coords in blocks), default=0.0)
    upper = theta_graph.dual_bound
    if upper - lower > tol:
        eig_lower, eig_upper = zip(*(_ceiling_bracket(sic, *block) for block in blocks))
        lower, upper = max(lower, *eig_lower), min(upper, max(eig_upper))
    beta = sum(weights) / sic.dimension
    return BoundsReport(
        set_name=sic.name, alpha=alpha, alpha_witness=witness,
        theta=lower, theta_gap=upper - lower,
        theta_graph=theta_graph.value, theta_graph_gap=theta_graph.gap,
        beta_ideal=beta, margin_quantum=lower - alpha, margin_ideal=beta - alpha,
        theta_graph_iterations=theta_graph.iterations)
