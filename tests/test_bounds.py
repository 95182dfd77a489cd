import dataclasses
import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from sicbell import bounds, catalog
from sicbell.bounds import (
    BoundsReport,
    ThetaNonConvergence,
    ThetaResult,
    _Program,
    _adjacency,
    _block_start,
    _ceiling_bracket,
    _coordinate_blocks,
    _round_down,
    _union_start,
    bounds_report,
    max_weight_independent_set,
    solve_theta,
    state_ceiling,
)
from sicbell.catalog import SicSet, WeightedGraph, get_set, orthogonality_graph
from sicbell.cli import main
from sicbell.exact import ZERO, ExactScalar
from sicbell.quantum import bell_operator, block_operator

from exact_oracle import bell_operator_exact, is_above_spectrum, is_psd


def trace_form_theta(g, tol=2e-5, iters=60000):
    """Independent oracle: the program max <W, X> with W_ij = sqrt(w_i w_j)
    over unit-trace edge-zero PSD X, by a plain unaccelerated loop at
    rho = 1 with its own two-sided certificate."""
    n = g.n
    w = np.asarray([float(t) for t in g.weights])
    big_w = np.outer(np.sqrt(w), np.sqrt(w))
    rows = np.array([i for i, _ in g.edges], int)
    cols = np.array([j for _, j in g.edges], int)
    x = np.eye(n) / n
    z = x.copy()
    u = np.zeros((n, n))
    rho = 1.0
    for it in range(1, iters + 1):
        v = z - u + big_w / rho
        x = v.copy()
        if len(rows):
            x[rows, cols] = 0.0
            x[cols, rows] = 0.0
        x[np.diag_indices(n)] += (1.0 - np.trace(x)) / n
        if it % 25 == 0:
            res = rho * (x - v)
            lam_min = float(np.linalg.eigvalsh(x)[0])
            xf = x
            if lam_min < 0.0:
                gam = -lam_min / (1.0 / n - lam_min)
                xf = (1.0 - gam) * x + gam * np.eye(n) / n
            lower = float(np.sum(big_w * xf))
            bound = big_w.copy()
            if len(rows):
                bound[rows, cols] += res[rows, cols]
                bound[cols, rows] += res[cols, rows]
            upper = float(np.linalg.eigvalsh(bound)[-1])
            if upper - lower <= tol:
                return lower, upper
        xh = 1.6 * x - 0.6 * z
        m = xh + u
        lam, q = np.linalg.eigh((m + m.T) / 2.0)
        z_new = (q * np.clip(lam, 0.0, None)) @ q.T
        u = u + xh - z_new
        if it % 50 == 0:
            rp = float(np.linalg.norm(x - z_new))
            rd = float(rho * np.linalg.norm(z_new - z))
            if rp > 10 * rd:
                rho *= 2.0
                u /= 2.0
            elif rd > 10 * rp:
                rho /= 2.0
                u *= 2.0
        z = z_new
    raise AssertionError("oracle solver did not certify")


def brute_force_mwis(n, weights, edges):
    """Oracle: enumerate every subset."""
    edge_set = {tuple(sorted(e)) for e in edges}
    best_w = 0
    best_sets = [()]
    for mask in range(1, 1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        if any(tuple(sorted(p)) in edge_set for p in combinations(members, 2)):
            continue
        tot = sum(weights[v] for v in members)
        if tot > best_w:
            best_w = tot
            best_sets = [tuple(members)]
        elif tot == best_w:
            best_sets.append(tuple(members))
    return best_w, min(best_sets)


def random_graph(rng, n, p, max_weight=9):
    edges = tuple((i, j) for i, j in combinations(range(n), 2) if rng.random() < p)
    weights = tuple(rng.randint(1, max_weight) for _ in range(n))
    return WeightedGraph(n, weights, edges)


def relabelled_union(names, seed):
    """The disjoint union of catalog graphs, its vertices shuffled."""
    rng = random.Random(seed)
    parts = [orthogonality_graph(get_set(name)) for name in names]
    n = sum(g.n for g in parts)
    perm = list(range(n))
    rng.shuffle(perm)
    weights, edges, offset = [0] * n, [], 0
    for g in parts:
        for i, w in enumerate(g.weights):
            weights[perm[offset + i]] = w
        edges += [tuple(sorted((perm[offset + i], perm[offset + j]))) for i, j in g.edges]
        offset += g.n
    return WeightedGraph(n, tuple(weights), tuple(sorted(edges)))


def cycle5():
    return WeightedGraph(5, (1,) * 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))


def direct_sum(*parts, dimension=None):
    """The parts' rays zero-padded into consecutive coordinate blocks, in
    order, in ``dimension`` (the parts' total by default; a larger one
    leaves coordinates that no ray uses)."""
    d = dimension or sum(part.dimension for part in parts)
    vectors, offset = [], 0
    for part in parts:
        after = d - offset - part.dimension
        vectors += [(ZERO,) * offset + v + (ZERO,) * after for v in part.vectors]
        offset += part.dimension
    return SicSet(name="+".join(part.name for part in parts), dimension=d,
                  vectors=tuple(vectors),
                  weights=sum((part.weights for part in parts), ()))


def set_doc(sic):
    """The JSON definition of a set without contexts, as ``load_set`` reads it."""
    return {"name": sic.name, "dimension": sic.dimension, "weights": list(sic.weights),
            "vectors": [[[x.a, x.b] for x in v] for v in sic.vectors]}


def basis_ray(weight):
    """One ray of ``weight`` in dimension 1."""
    return SicSet(name=f"e{weight}", dimension=1, vectors=((ExactScalar(1, 0),),),
                  weights=(weight,))


def relabelled(sic, seed):
    """The set with its rays shuffled, and its contexts renumbered along."""
    perm = list(range(sic.n))
    random.Random(seed).shuffle(perm)
    inverse = {old: new for new, old in enumerate(perm)}
    return dataclasses.replace(
        sic, vectors=tuple(sic.vectors[old] for old in perm),
        contexts=sic.contexts and tuple(tuple(inverse[v] for v in ctx)
                                        for ctx in sic.contexts))


def closed_form_start(sic):
    """The closed-form pair of a set that is one coordinate block
    (:func:`sicbell.bounds._block_start`), or None."""
    (block,) = _coordinate_blocks(sic)
    return _block_start(sic, _adjacency(sic.graph)[0], *block)


def bases(graph, d):
    """Every d-clique of the graph, as a frozenset, by plain recursion
    over each clique's common neighbours."""
    adj = {v: set() for v in range(graph.n)}
    for i, j in graph.edges:
        adj[i].add(j)
        adj[j].add(i)
    found = set()

    def grow(clique, common):
        if len(clique) == d:
            found.add(frozenset(clique))
        for v in common:
            if v > max(clique, default=-1):
                grow(clique + [v], common & adj[v])

    grow([], set(range(graph.n)))
    return found


# ---------------------------------------------------------------- alpha

def test_mwis_matches_brute_force():
    # unit weights make ties, and so the lexicographic rule, common
    for max_weight in (9, 1):
        rng = random.Random(424242)
        for _ in range(60):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.uniform(0.1, 0.7), max_weight)
            val, wit = max_weight_independent_set(g)
            oracle_val, oracle_wit = brute_force_mwis(g.n, g.weights, g.edges)
            assert val == oracle_val
            assert wit == oracle_wit


def test_mwis_witness_is_independent():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 14), 0.4)
        val, wit = max_weight_independent_set(g)
        edge_set = set(g.edges)
        for p in combinations(wit, 2):
            assert tuple(sorted(p)) not in edge_set
        assert sum(g.weights[v] for v in wit) == val


def test_mwis_catalog_values():
    expected = {"yo13": 11, "ks18": 4, "ks21": 3}
    for name, target in expected.items():
        g = orthogonality_graph(get_set(name))
        val, wit = max_weight_independent_set(g)
        assert val == target
        assert sum(g.weights[v] for v in wit) == target


def test_mwis_on_a_52_vertex_union_is_quick():
    # the independence number is additive over a disjoint union
    for names, alpha in ((("yo13", "ks18", "ks21"), 11 + 4 + 3),
                         (("yo13",) * 4, 4 * 11)):
        g = relabelled_union(names, seed=1)
        assert g.n == 52
        start = time.perf_counter()
        val, wit = max_weight_independent_set(g)
        assert time.perf_counter() - start < 6.0
        assert val == alpha
        assert sum(g.weights[v] for v in wit) == alpha


def test_mwis_tie_keeps_the_first_optimum():
    # {0, 2}, {1} and {2, 3} all weigh 3; a search that let a later tied
    # leaf replace the incumbent would return (2, 3)
    g = WeightedGraph(4, (1, 3, 2, 1), ((0, 1), (0, 3), (1, 2), (1, 3)))
    assert max_weight_independent_set(g) == (3, (0, 2))


def test_mwis_edgeless_pair():
    g = WeightedGraph(2, (2, 3), ())
    assert max_weight_independent_set(g) == (5, (0, 1))


def test_mwis_empty_and_capacity():
    assert max_weight_independent_set(WeightedGraph(0, (), ())) == (0, ())
    # the empty graph's theta is 0, returned without iterating
    empty = solve_theta(WeightedGraph(0, (), ()))
    assert (empty.value, empty.gap, empty.dual_bound) == (0.0, 0.0, 0.0)
    assert empty.matrix.shape == empty.h.shape == (0, 0) and empty.iterations == 0
    # _decompose refuses a graph past 64 vertices, for both numbers;
    # solve_theta checks its tol first
    big = WeightedGraph(65, (1,) * 65, ())
    cap = "^graph has 65 vertices; supports at most 64$"
    with pytest.raises(ValueError, match=cap):
        max_weight_independent_set(big)
    with pytest.raises(ValueError, match=cap):
        solve_theta(big)
    with pytest.raises(ValueError, match="^tol must be a positive finite number"):
        solve_theta(big, tol=0.0)


# ---------------------------------------------------------------- theta

def test_theta_single_vertex():
    for w in (1, 4, 7):
        g = WeightedGraph(1, (w,), ())
        assert abs(solve_theta(g).value - w) < 1e-6


def test_theta_complete_graph():
    for n in (2, 4, 6):
        edges = tuple(combinations(range(n), 2))
        g = WeightedGraph(n, (1,) * n, edges)
        assert abs(solve_theta(g).value - 1.0) < 1e-6


def test_theta_edgeless():
    for n in (2, 5, 9):
        g = WeightedGraph(n, (1,) * n, ())
        assert abs(solve_theta(g).value - n) < 1e-6


def test_theta_weighted_edgeless_is_weight_sum():
    g = WeightedGraph(3, (2, 3, 7), ())
    assert abs(solve_theta(g).value - 12.0) < 1e-6


def test_theta_five_cycle():
    # the classic closed form for the pentagon
    assert abs(solve_theta(cycle5()).value - np.sqrt(5.0)) < 1e-6


def test_theta_matches_alpha_on_bipartite():
    # bipartite graphs are perfect, so the SDP relaxation is tight
    rng = random.Random(2718)
    for _ in range(12):
        left = rng.randint(1, 4)
        right = rng.randint(1, 4)
        n = left + right
        edges = tuple(
            (i, left + j)
            for i in range(left) for j in range(right)
            if rng.random() < 0.5
        )
        weights = tuple(rng.randint(1, 6) for _ in range(n))
        g = WeightedGraph(n, weights, edges)
        alpha, _ = max_weight_independent_set(g)
        assert abs(solve_theta(g).value - alpha) < 1e-5


def test_theta_monotone_under_edge_deletion():
    g = cycle5()
    base = solve_theta(g).value
    for e in g.edges:
        fewer = tuple(x for x in g.edges if x != e)
        assert solve_theta(WeightedGraph(g.n, g.weights, fewer)).value >= base - 2e-6


def test_theta_result_certificate():
    for g in (cycle5(), *(get_set(s).graph for s in ("yo13", "ks18", "ks21"))):
        res = solve_theta(g)
        assert 0.0 <= res.gap <= 1e-6
        assert res.dual_bound >= res.value
        x = res.matrix
        assert x.shape == (g.n, g.n)
        assert abs(np.trace(x) - 1.0) <= 1e-12
        assert float(np.linalg.eigvalsh(x)[0]) >= -1e-12
        for i, j in g.edges:
            assert x[i, j] == 0.0 and x[j, i] == 0.0
        # the feasible point attains the value: <W, X> with W = sqrt(w) sqrt(w)^T
        root = np.sqrt([float(t) for t in g.weights])
        assert abs(float(root @ x @ root) - res.value) < 1e-9


@pytest.mark.parametrize("name, budget", [("yo13", 33), ("ks18", 23),
                                          ("ks21", 14)],
                         ids=["yo13", "ks18", "ks21"])
def test_theta_catalog_iteration_budget(name, budget):
    # the loop certifies once the scaled residual reaches tol, at
    # iterations 30/20/11; a 25-iteration check clock alone stops at
    # 50/25/25
    assert solve_theta(get_set(name).graph).iterations <= budget


def test_theta_tight_tolerance_costs_few_iterations():
    # the residual trigger certifies ks18 to 1e-12 in 24 iterations
    res = solve_theta(get_set("ks18").graph, tol=1e-12)
    assert res.iterations <= 30
    assert res.gap <= 1e-12
    assert res.value <= 4.5 <= res.dual_bound


@pytest.mark.parametrize("weight", [1, 3, 5])
def test_theta_uniform_weights_certify_at_default_tol(weight):
    # theta scales with a uniform weight, and so does the penalty rho =
    # sum(w); the bordered program needed 23,100 iterations at weight 1
    # and gave up at weights 3 and 5
    edges = get_set("yo13").graph.edges
    res = solve_theta(WeightedGraph(13, (weight,) * 13, edges))
    assert res.iterations <= 70
    assert res.value <= 5 * weight <= res.dual_bound
    assert res.gap <= 1e-6


def test_theta_brackets_alpha_exactly_on_bipartite():
    # bipartite graphs are perfect, so theta = alpha, an integer: the
    # bracket must hold it with no slack, down to the last ulp
    rng = random.Random(31337)
    for k in range(300):
        left, right = rng.randint(1, 6), rng.randint(1, 6)
        n = left + right
        edges = tuple((i, left + j) for i in range(left) for j in range(right)
                      if rng.random() < 0.5)
        weights = tuple(1 if k % 2 else rng.randint(1, 5) for _ in range(n))
        g = WeightedGraph(n, weights, edges)
        alpha, _ = max_weight_independent_set(g)
        res = solve_theta(g)
        assert res.value <= alpha <= res.dual_bound, (g, res.value, res.dual_bound)


def test_theta_unit_weight_catalog_values():
    # for the unit-weight sets the graph relaxation lands exactly on the
    # quantum ceiling
    for name, target in (("ks18", 4.5), ("ks21", 3.5)):
        g = orthogonality_graph(get_set(name))
        assert abs(solve_theta(g).value - target) < 1e-5


def test_theta_agrees_with_trace_formulation():
    # two independent solvers for the same number, each self-certified
    rng = random.Random(90210)
    graphs = [cycle5(), orthogonality_graph(get_set("yo13"))]
    for _ in range(6):
        graphs.append(random_graph(rng, rng.randint(2, 8), 0.45))
    for g in graphs:
        mine = solve_theta(g, tol=1e-6)
        lo, hi = trace_form_theta(g)
        assert lo - 3e-5 <= mine.value <= hi + 3e-5


def test_state_ceiling_matches_spectral_oracle():
    rng = np.random.default_rng(555)
    for m in (3, 6, 10):
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        h = (a + a.conj().T) / 2.0
        res = state_ceiling(h)
        top = float(np.linalg.eigvalsh(h)[-1])
        assert abs(res.value - top) <= 1e-6
        assert res.gap <= 1e-6
        v = res.vector
        assert abs(np.linalg.norm(v) - 1.0) < 1e-10
        assert abs(np.vdot(v, h @ v).real - res.value) <= 1e-6


def test_state_ceiling_catalog_operators():
    targets = {"yo13": 35.0 / 3.0, "ks18": 4.5, "ks21": 3.5}
    for name, target in targets.items():
        res = state_ceiling(bell_operator(get_set(name)))
        assert abs(res.value - target) < 1e-5


def test_state_ceiling_rejects_non_hermitian():
    with pytest.raises(ValueError):
        state_ceiling(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_theta_nonconvergence_reports_bracket():
    # C5's rounding floor is about 1.3e-14 and its bracket stops near
    # 4.5e-14: at 2e-14 max_iter runs out first, and the error carries the
    # loop's best certificate
    with pytest.raises(ThetaNonConvergence) as err:
        solve_theta(cycle5(), tol=2e-14, max_iter=30)
    exc = err.value
    best = bounds._loop(_Program(cycle5()), 2e-14, 30)
    assert (exc.primal_bound, exc.dual_bound, exc.iterations) == (
        best.value, best.dual_bound, 30)
    assert exc.primal_bound <= np.sqrt(5.0) <= exc.dual_bound


def c5_plus_vertex(weight, joined):
    """C5 with a sixth vertex of ``weight``, joined to all of C5 or apart."""
    cross = tuple((v, 5) for v in range(5)) if joined else ()
    return WeightedGraph(6, (1,) * 5 + (weight,), cycle5().edges + cross)


def c5_and_vertex_at(tol):
    """C5 and a vertex of weight 2 solved apart, as the parts of
    ``c5_plus_vertex(2, joined=False)`` at ``tol``: at tol times their
    shares 5 / 7 and 2 / 7 of the weight."""
    return cycle5(), tol * (5 / 7), WeightedGraph(1, (2,), ()), tol * (2 / 7)


def _assembled(graph, places, parts):
    """The union certificate :func:`solve_theta` builds from its parts'."""
    program = _Program(graph)
    return program.certify_start(_union_start(program, places, parts))


def test_disconnected_graph_is_solved_by_parts():
    # C5 plus an isolated vertex: theta = sqrt(5) + 2.  Each part is
    # solved at its weight's share of tol, and the result is the
    # certificate assembled from theirs, certified on the whole graph
    # with no iteration of its own
    g = c5_plus_vertex(2, joined=False)
    c5, c5_tol, vertex, vertex_tol = c5_and_vertex_at(1e-6)
    parts = [solve_theta(c5, tol=c5_tol), solve_theta(vertex, tol=vertex_tol)]
    res = solve_theta(g, tol=1e-6)
    assert res.iterations == sum(part.iterations for part in parts)
    assert res.value <= np.sqrt(5.0) + 2.0 <= res.dual_bound
    assert res.gap <= 1e-6
    cert = _assembled(g, [[0, 1, 2, 3, 4], [5]], parts)
    assert _fields(res) == _fields(dataclasses.replace(cert, iterations=res.iterations))
    # the assembled dual is each part's, scaled to the union's upper bound
    total = parts[0].dual_bound + parts[1].dual_bound
    assert np.allclose(res.h[:5, :5], total / parts[0].dual_bound * parts[0].h,
                       rtol=1e-14, atol=0.0)
    assert (res.h[5] == 0.0).all()


def test_a_union_certificate_wider_than_tol_raises(monkeypatch):
    # should the assembled pair come out wider than tol, no loop runs on
    # the whole union: the error carries the pair's bracket and the
    # parts' iterations
    g = c5_plus_vertex(2, joined=False)
    c5, c5_tol, vertex, vertex_tol = c5_and_vertex_at(1e-6)
    parts = (solve_theta(c5, tol=c5_tol).iterations
             + solve_theta(vertex, tol=vertex_tol).iterations)
    start = (np.eye(6), np.zeros((6, 6)))
    monkeypatch.setattr(bounds, "_union_start", lambda program, places, results: start)
    cert = _Program(g).certify_start(start)
    assert cert.gap > 1e-6
    with pytest.raises(ThetaNonConvergence) as err:
        solve_theta(g)
    exc = err.value
    assert (exc.primal_bound, exc.dual_bound, exc.iterations) == (
        cert.value, cert.dual_bound, parts)


def test_split_theta_nonconvergence_reports_the_whole_bracket():
    # C5 joined to one more vertex: theta = max(sqrt(5), 1).  At 3e-14,
    # between C5's rounding floor and the 4.5e-14 its bracket stops at,
    # both parts are solved at tol: the vertex certifies in one
    # iteration, and C5 stalls and returns its best certificate.  The
    # error is the join of the two, and the iterations are their own
    g = c5_plus_vertex(1, joined=True)
    with pytest.raises(ThetaNonConvergence) as err:
        solve_theta(g, tol=3e-14)
    exc = err.value
    assert exc.primal_bound <= np.sqrt(5.0) <= exc.dual_bound
    assert exc.dual_bound - exc.primal_bound < 1e-12
    c5 = bounds._loop(_Program(cycle5()), 3e-14, bounds._MAX_ITER)
    vertex = bounds._loop(_Program(WeightedGraph(1, (1,), ())), 3e-14, bounds._MAX_ITER)
    assert c5.gap > 3e-14 and vertex.iterations == 1
    assert (exc.primal_bound, exc.dual_bound, exc.iterations) == (
        max(c5.value, vertex.value), max(c5.dual_bound, vertex.dual_bound),
        c5.iterations + vertex.iterations)


def test_split_theta_nonconvergence_sums_a_union():
    # C5 apart from a vertex of weight 2: theta = sqrt(5) + 2.  At 4e-14,
    # above the union's rounding floor of 2.2e-14, C5 stalls short of its
    # share of tol and the vertex certifies in one iteration; the error
    # carries the certificate assembled from the parts' best, certified
    # on the whole union, and no loop runs on the union itself
    g = c5_plus_vertex(2, joined=False)
    with pytest.raises(ThetaNonConvergence) as err:
        solve_theta(g, tol=4e-14)
    exc = err.value
    c5_graph, c5_tol, vertex_graph, vertex_tol = c5_and_vertex_at(4e-14)
    c5 = bounds._loop(_Program(c5_graph), c5_tol, bounds._MAX_ITER)
    vertex = bounds._loop(_Program(vertex_graph), vertex_tol, bounds._MAX_ITER)
    cert = _assembled(g, [[0, 1, 2, 3, 4], [5]], [c5, vertex])
    assert (exc.primal_bound, exc.dual_bound, exc.iterations) == (
        cert.value, cert.dual_bound, c5.iterations + vertex.iterations)
    assert vertex.iterations == 1
    assert exc.primal_bound <= np.sqrt(5.0) + 2.0 <= exc.dual_bound


def test_a_failed_union_part_keeps_the_whole_union_bracket():
    # ks18|ks21, relabelled so that ks18 comes first, at a tol below what
    # ks18 reaches: ks18 stalls, ks21 runs at its own share of tol, and
    # the certificate assembled from their best is narrow, not the sum of
    # a stalled part and a one-iteration one
    g = relabelled_union(("ks18", "ks21"), seed=2)
    assert [part.bit_count() for part in bounds._decompose(g)[1][2]] == [18, 21]
    with pytest.raises(ThetaNonConvergence) as err:
        solve_theta(g, tol=1e-12)
    exc = err.value
    assert exc.primal_bound <= 8.0 <= exc.dual_bound
    assert exc.dual_bound - exc.primal_bound < 1e-11


@pytest.mark.parametrize("n", [40, 64])
@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_threshold_graph_certifies(n, tol):
    # vertex v is apart from vertices 0..v-1 for even v and joined to them
    # for odd v: the split alternates n / 2 unions with joins down to
    # single vertices.  Each part takes its weight's share of its union's
    # tol, so a vertex still gets tol / n, well above its rounding floor
    edges = tuple((u, v) for v in range(n) if v % 2 for u in range(v))
    res = solve_theta(WeightedGraph(n, (1,) * n, edges), tol=tol)
    assert res.value <= n / 2 <= res.dual_bound
    assert res.gap <= tol
    assert res.iterations == n


def test_max_iter_caps_each_loop():
    # max_iter caps each part's loop on its own: at C5's own count the
    # union certifies with C5's iterations and the vertex's one, and one
    # below it C5 runs out.  The error is the certificate assembled from
    # the parts' best
    g = c5_plus_vertex(2, joined=False)
    c5_graph, c5_tol, vertex_graph, vertex_tol = c5_and_vertex_at(1e-6)
    c5 = solve_theta(c5_graph, tol=c5_tol).iterations
    assert solve_theta(g, max_iter=c5).iterations == c5 + 1
    with pytest.raises(ThetaNonConvergence) as err:
        solve_theta(g, max_iter=c5 - 1)
    parts = [bounds._loop(_Program(c5_graph), c5_tol, c5 - 1),
             bounds._loop(_Program(vertex_graph), vertex_tol, c5 - 1)]
    assert [part.iterations for part in parts] == [c5 - 1, 1]
    cert = _assembled(g, [[0, 1, 2, 3, 4], [5]], parts)
    assert (err.value.primal_bound, err.value.dual_bound, err.value.iterations) == (
        cert.value, cert.dual_bound, c5)


def test_theta_stalled_bracket_stops_early():
    # ks18's bracket stops narrowing near 4.7e-13, above its rounding
    # floor of 1.5e-13: at 3e-13 the stall rule ends the loop
    with pytest.raises(ThetaNonConvergence) as err:
        solve_theta(get_set("ks18").graph, tol=3e-13)
    exc = err.value
    assert exc.iterations < 5_000
    assert exc.primal_bound <= 4.5 <= exc.dual_bound


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_a_bad_tol_is_refused_before_the_search(monkeypatch, tol):
    def never(*args):
        raise AssertionError("no independent set may be searched for")

    monkeypatch.setattr(bounds, "max_weight_independent_set", never)
    with pytest.raises(ValueError, match="^tol must be a positive finite number"):
        bounds_report(get_set("yo13"), tol=tol)


def test_a_tol_below_the_rounding_floor_runs_nothing(monkeypatch):
    # ks18's floor is 2 * 19 * eps * 18, about 1.5e-13: a tol below it is
    # refused before any certificate is computed or any loop runs.  Its
    # closed form, no narrower than the floor, cannot take such a tol
    # either, so bounds_report refuses it with the same error
    sic = get_set("ks18")
    floor = bounds._rounding_floor(sic.graph, bounds._decompose(sic.graph)[1])
    assert floor == 2 * 19 * bounds._EPS * 18.0
    tols = (1e-13, 5e-324, math.nextafter(floor, 0.0))
    for tol in tols:
        with pytest.raises(ValueError, match="rounding floor 1.52e-13"):
            bounds_report(sic, tol=tol)

    def never(*args):
        raise AssertionError("no certificate may be computed")

    monkeypatch.setattr(bounds, "_loop", never)
    monkeypatch.setattr(_Program, "certify", never)
    for tol in tols:
        with pytest.raises(ValueError, match="rounding floor 1.52e-13"):
            solve_theta(sic.graph, tol=tol)


def test_a_join_certifies_below_the_whole_graph_floor():
    # C5 joined to a vertex of weight 3: theta = 3, the vertex's, so the
    # join's bracket is as narrow as the vertex's, below the floor of a
    # certificate on the whole graph.  The join's floor is therefore the
    # least of its parts', here the vertex's
    g = c5_plus_vertex(3, joined=True)
    assert bounds._rounding_floor(g, bounds._decompose(g)[1]) == 2 * 2 * bounds._EPS * 3.0
    res = solve_theta(g, tol=2e-14)
    assert res.gap < 2 * 7 * bounds._EPS * 8.0
    assert res.value <= 3.0 <= res.dual_bound
    # C5, whose theta sqrt(5) is below 3, is solved at tol all the same:
    # its loop stalls short of 2e-14, and the vertex's takes one iteration
    c5 = bounds._loop(_Program(cycle5()), 2e-14, bounds._MAX_ITER)
    assert c5.gap > 2e-14
    assert res.iterations == c5.iterations + 1 == 2_701


def test_a_fixed_point_stops_the_loop():
    # a single vertex reaches its loop's fixed point at once: the
    # residual is exactly 0, so no later iterate differs.  At weight 2 its
    # first certificate, 9.3e-15 wide, is above a tol of 7.1e-15 (its
    # rounding floor is 1.8e-15), and the loop returns it at iteration 1
    # instead of waiting out the stall rule
    vertex = WeightedGraph(1, (2,), ())
    res = bounds._loop(_Program(vertex), 7.1e-15, bounds._MAX_ITER)
    assert res.iterations == 1 and res.gap > 7.1e-15
    assert res.value <= 2.0 <= res.dual_bound
    with pytest.raises(ThetaNonConvergence) as err:
        solve_theta(vertex, tol=7.1e-15)
    assert err.value.iterations == 1


def test_a_fixed_point_part_costs_one_iteration():
    # C5 apart from a vertex of weight 2 at 2.5e-14: C5 stalls short of
    # its share of tol, and the vertex, whose first certificate is above
    # its 7.1e-15 share, stops at its fixed point after one iteration
    g = c5_plus_vertex(2, joined=False)
    c5_graph, c5_tol, _, _ = c5_and_vertex_at(2.5e-14)
    c5 = bounds._loop(_Program(c5_graph), c5_tol, bounds._MAX_ITER)
    with pytest.raises(ThetaNonConvergence) as err:
        solve_theta(g, tol=2.5e-14)
    assert err.value.iterations == c5.iterations + 1 == 2_701


# ---------------------------------------------------------------- report

def test_bounds_report_catalog():
    rep = bounds_report(get_set("yo13"))
    assert isinstance(rep, BoundsReport)
    assert rep.set_name == "yo13"
    assert rep.alpha == 11
    assert abs(rep.theta - (11.0 + 2.0 / 3.0)) < 1e-5
    assert abs(rep.beta_ideal - 35.0 / 3.0) < 1e-10
    assert abs(rep.margin_quantum - 2.0 / 3.0) < 1e-5
    assert abs(rep.margin_ideal - 2.0 / 3.0) < 1e-10
    assert rep.alpha <= rep.theta + rep.theta_gap
    # the graph relaxation can only sit above the realization ceiling
    assert rep.theta_graph >= rep.theta - 1e-6


def test_bounds_report_on_a_direct_sum_takes_the_heavier_part():
    # every cross pair of yo13 (+) ks18 is orthogonal: the graph is a join,
    # so alpha and theta_graph are yo13's.  ks18's coordinate block
    # closes in closed form, and yo13's runs its loop as it does alone:
    # the iterations are yo13's
    yo13, ks18 = get_set("yo13"), get_set("ks18")
    rep = bounds_report(direct_sum(yo13, ks18))
    parts = [bounds_report(sic) for sic in (yo13, ks18)]
    assert (rep.alpha, rep.alpha_witness) == (11, parts[0].alpha_witness)
    assert (rep.theta_graph, rep.theta_graph_gap) == (
        parts[0].theta_graph, parts[0].theta_graph_gap)
    assert rep.theta_graph_iterations == solve_theta(yo13.graph).iterations


def failing_solve(lower, upper):
    """A ``solve_theta`` that fails after 7 iterations with the bracket
    [lower, upper]."""
    def fail(graph, tol):
        zeros = np.zeros((graph.n, graph.n))
        raise ThetaNonConvergence(ThetaResult(lower, upper - lower, upper, zeros, 7, zeros))
    return fail


def test_a_failed_solve_below_a_closed_form_part_certifies(monkeypatch, tmp_path):
    # yo13's block of yo13 (+) ks18 fails with a bracket below ks18's
    # 4.5: its certificate joins with ks18's closed form, whose bracket
    # is then theta_graph's, within tol, so the report stands and the
    # command exits 0
    ks18 = bounds_report(get_set("ks18"))
    monkeypatch.setattr(bounds, "solve_theta", failing_solve(1.0, 2.0))
    sic = direct_sum(get_set("yo13"), get_set("ks18"))
    rep = bounds_report(sic)
    assert (rep.theta_graph, rep.theta_graph_gap, rep.theta_graph_iterations) == (
        ks18.theta_graph, ks18.theta_graph_gap, 7)
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(set_doc(sic)))
    assert main(["bounds", str(path), "--out", str(tmp_path)]) == 0


def test_a_failed_solve_above_a_closed_form_part_raises_the_join(monkeypatch):
    # a failed part whose upper end, 20, lies above ks18's: the join is
    # [ks18's lower end, 20], wider than tol, and the one refusal raises
    # it with the failed loop's iterations
    ks18 = bounds_report(get_set("ks18"))
    monkeypatch.setattr(bounds, "solve_theta", failing_solve(1.0, 20.0))
    with pytest.raises(ThetaNonConvergence) as err:
        bounds_report(direct_sum(get_set("yo13"), get_set("ks18")))
    exc = err.value
    assert (exc.primal_bound, exc.dual_bound, exc.iterations) == (ks18.theta_graph, 20.0, 7)
    assert (exc.result.value, exc.result.dual_bound) == (exc.primal_bound, exc.dual_bound)


def test_bounds_report_on_a_disjoint_union_adds_the_parts():
    # yo13 rays (x) x and y (x) ks18 rays in d = 12: <a (x) x | y (x) b> =
    # <a|y><x|b>, and with entries in {0, +-1} neither factor vanishes
    # (balanced ternary), so no cross pair is orthogonal and the graph is
    # the disjoint union of yo13's and ks18's
    yo13, ks18 = get_set("yo13"), get_set("ks18")
    x, y = ((ExactScalar(c, 0) for c in t) for t in ((1, 3, 9, 27), (1, 3, 9)))
    x, y = tuple(x), tuple(y)

    def kron(u, v):
        return tuple(p * q for p in u for q in v)

    union = SicSet(name="yo13|ks18", dimension=12,
                   vectors=tuple(kron(v, x) for v in yo13.vectors)
                   + tuple(kron(y, v) for v in ks18.vectors),
                   weights=yo13.weights + ks18.weights)
    assert union.graph.edges == yo13.graph.edges + tuple(
        (i + 13, j + 13) for i, j in ks18.graph.edges)
    rep = bounds_report(union)
    assert rep.alpha == 15
    # each part is solved at its weight's share of tol, 35 / 53 and
    # 18 / 53, and the union's bracket, certified on the whole graph,
    # holds the sum of theirs
    parts = [solve_theta(sic.graph, tol=1e-6 * (sum(sic.weights) / 53))
             for sic in (yo13, ks18)]
    upper = rep.theta_graph + rep.theta_graph_gap
    assert rep.theta_graph <= sum(part.value for part in parts)
    assert sum(part.dual_bound for part in parts) <= upper
    assert rep.theta_graph_gap <= 1e-6
    assert rep.theta_graph_iterations == sum(part.iterations for part in parts)


def test_bell_operator_is_built_only_past_the_closed_bracket(monkeypatch):
    # ks18 and ks21 close [sum(w) / d, theta_graph's upper end] within tol;
    # yo13's theta_graph (11.978) lies above its ceiling 35/3
    class Built(Exception):
        pass

    def refuse(projectors, coefficients):
        raise Built(projectors.shape)

    monkeypatch.setattr(bounds, "block_operator", refuse)
    for name in ("ks18", "ks21"):
        rep = bounds_report(get_set(name))
        assert rep.theta == rep.beta_ideal
    with pytest.raises(Built):
        bounds_report(get_set("yo13"))


def test_the_ceiling_splits_over_coordinate_blocks(monkeypatch):
    # yo13 (+) ks18 brackets its ceiling from a 9 x 9 and a 16 x 16
    # operator, not its 49 x 49 one, and the bracket is yo13's bit for
    # bit.  On ks18 (+) ks21 the blocks' maximally entangled states give
    # the lower end 4.5, within tol of theta_graph's upper end, ks18's
    # closed form, so no operator is built
    yo13, ks18, ks21 = (get_set(name) for name in ("yo13", "ks18", "ks21"))
    alone = bounds_report(yo13)
    built = []

    def spy(projectors, coefficients):
        built.append(projectors.shape[-1])
        return block_operator(projectors, coefficients)

    monkeypatch.setattr(bounds, "block_operator", spy)
    rep = bounds_report(direct_sum(yo13, ks18))
    assert (rep.theta, rep.theta_gap) == (alone.theta, alone.theta_gap)
    assert sorted(built) == [3, 4]
    built.clear()
    rep = bounds_report(direct_sum(ks18, ks21))
    assert built == []
    assert rep.theta == 4.5
    assert 0.0 < rep.theta_gap <= 1e-12


@pytest.mark.parametrize("sic, ceiling, block", [
    (direct_sum(get_set("yo13"), basis_ray(1)), Fraction(35, 3), range(3)),
    (direct_sum(basis_ray(1), basis_ray(2)), Fraction(2), [1]),
    (direct_sum(get_set("yo13"), dimension=4), Fraction(35, 3), range(3))],
    ids=["yo13+e", "e1+e2", "yo13+unused"])
def test_block_brackets_hold_the_exact_ceiling(sic, ceiling, block):
    # the exact operator over Q(w): the maximally entangled state on the
    # heaviest block attains the ceiling and ceiling I - op is PSD, so
    # its top eigenvalue is the ceiling.  The reported lower end is at
    # most that, and t I - op is PSD at the reported upper end t
    op = bell_operator_exact(sic.vectors, sic.weights)
    d = sic.dimension
    diagonal = [a * d + a for a in block]
    attained = sum((op[r][c] for r in diagonal for c in diagonal), ZERO)
    assert attained == ExactScalar(ceiling * len(block), 0)
    assert is_above_spectrum(ceiling, op)
    rep = bounds_report(sic)
    assert Fraction(rep.theta) <= ceiling
    assert is_above_spectrum(Fraction(rep.theta) + Fraction(rep.theta_gap), op)
    if sic.n == 2:
        # e1 (weight 1) and e2 (weight 2): the ceiling 2 is alpha, exactly
        assert (rep.theta, rep.margin_quantum) == (2.0, 0.0)


def test_coordinate_blocks():
    # the (rays, coords) of the blocks that hold rays, in order of their
    # lowest coordinate; a set that is one block over all its coordinates
    # is one block of every ray and coordinate.  A coordinate no ray uses,
    # and a zero ray, are in no block
    yo13 = get_set("yo13")
    for name in ("yo13", "ks18", "ks21"):
        sic = get_set(name)
        assert _coordinate_blocks(sic) == [(list(range(sic.n)), list(range(sic.dimension)))]
    blocks = _coordinate_blocks(direct_sum(basis_ray(2), yo13, basis_ray(1)))
    assert blocks == [([0], [0]), (list(range(1, 14)), [1, 2, 3]), ([14], [4])]
    unused = _coordinate_blocks(direct_sum(yo13, dimension=5))
    assert unused == [(list(range(13)), [0, 1, 2])]
    zero = direct_sum(yo13, SicSet(name="zero", dimension=1, vectors=((ZERO,),),
                                   weights=(1,)))
    assert _coordinate_blocks(zero) == [(list(range(13)), [0, 1, 2])]


def test_round_down_is_the_float_just_below():
    for num in range(1, 60):
        for den in range(1, 40):
            q = _round_down(num, den)
            assert Fraction(q) <= Fraction(num, den) < Fraction(math.nextafter(q, math.inf))


# an orthonormal basis with phases, weight 3 on each ray: its ceiling is
# 3, and the float Rayleigh quotient of its top eigenvector 3.0000000000000027
_PHASED_BASIS = SicSet(name="phased", dimension=3, vectors=(
    (ZERO, ExactScalar(1, 0), ZERO), (ExactScalar(-1, 1), ZERO, ZERO),
    (ZERO, ZERO, ExactScalar(-1, -1))), weights=(3, 3, 3))


@pytest.mark.parametrize("sic, ceiling", [
    (get_set("yo13"), Fraction(35, 3)), (get_set("ks18"), Fraction(9, 2)),
    (get_set("ks21"), Fraction(7, 2)), (_PHASED_BASIS, Fraction(3))],
    ids=["yo13", "ks18", "ks21", "phased"])
def test_ceiling_brackets_hold_the_exact_ceiling(sic, ceiling):
    # the exact operator over Q(w): the maximally entangled state attains
    # the ceiling and ceiling I - op is PSD, so its top eigenvalue is the
    # ceiling; every bracket's upper end t has t I - op PSD too
    op = bell_operator_exact(sic.vectors, sic.weights)
    d = sic.dimension
    diagonal = [a * d + a for a in range(d)]
    attained = sum((op[r][c] for r in diagonal for c in diagonal), ZERO)
    assert attained == ExactScalar(ceiling * d, 0)
    assert is_above_spectrum(ceiling, op)
    ceiling_res = state_ceiling(bell_operator(sic))
    brackets = [(ceiling_res.value, ceiling_res.dual_bound),
                _ceiling_bracket(sic, range(sic.n), range(sic.dimension))]
    for lower, upper in brackets:
        assert Fraction(lower) <= ceiling
        assert is_above_spectrum(upper, op)
    rep = bounds_report(sic)
    assert Fraction(rep.theta) <= ceiling <= Fraction(rep.theta) + Fraction(rep.theta_gap)


# ------------------------------------------------- closed-form certificate

def _fields(res):
    return (res.value, res.gap, res.dual_bound, res.iterations, res.matrix.tolist(),
            res.h.tolist())


@pytest.mark.parametrize("name", ["ks18", "ks21"])
def test_closed_form_certificate_is_exact(name):
    # both halves over Fraction: X0_ij = |<v_i|v_j>|^2 / (|v_i|^2 |v_j|^2 n)
    # from the integer Gram product, |a + b w|^2 = a^2 + ab + b^2 for
    # w = e^(i pi / 3), and H from the bases, the d-cliques of the graph,
    # which are the declared contexts
    sic = get_set(name)
    n, d = sic.n, sic.dimension
    re, w = (array.tolist() for array in sic.gram)
    norm = [re[i][i] for i in range(n)]
    x0 = [[Fraction(re[i][j] ** 2 + re[i][j] * w[i][j] + w[i][j] ** 2,
                    norm[i] * norm[j] * n) for j in range(n)] for i in range(n)]
    assert all(x0[i][j] == x0[j][i] == 0 for i, j in sic.graph.edges)
    assert sum(x0[i][i] for i in range(n)) == 1
    assert is_psd(x0)
    assert sum(map(sum, x0)) == Fraction(n, d)

    derived = bases(sic.graph, d)
    assert derived == {frozenset(ctx) for ctx in sic.contexts}
    shared = [[sum(i in ctx and j in ctx for ctx in derived) for j in range(n)]
              for i in range(n)]
    r = shared[0][0]
    h = [[Fraction(n, d * r) * (shared[i][j] if i != j else 0) for j in range(n)]
         for i in range(n)]
    edges = set(sic.graph.edges)
    assert all(h[i][j] == 0 for i in range(n) for j in range(i, n) if (i, j) not in edges)
    assert is_psd([[Fraction(n, d) * (i == j) - 1 + h[i][j] for j in range(n)]
                   for i in range(n)])

    # the pair bounds_report passes on is these matrices in floating point
    x0_float, h_float = closed_form_start(sic)
    assert [[Fraction(v) for v in row] for row in h_float.tolist()] == h
    assert np.abs(x0_float - np.array(x0, dtype=float)).max() <= 1e-15


@pytest.mark.parametrize("name", ["ks18", "ks21"])
def test_closed_form_start_certifies_before_the_loop(name):
    sic = get_set(name)
    target = sic.n / sic.dimension
    res = _Program(sic.graph).certify_start(closed_form_start(sic))
    assert res.iterations == 0
    assert res.gap <= 1e-12
    # bounds_report takes it as theta_graph's bracket, and runs no loop
    rep = bounds_report(sic)
    assert (rep.theta_graph, rep.theta_graph_gap, rep.theta_graph_iterations) == (
        res.value, res.gap, 0)
    assert res.value <= target <= res.dual_bound
    # the certified point is feasible and attains the value, exactly
    x = res.matrix
    assert (x == x.T).all() and all(x[i, j] == 0.0 for i, j in sic.graph.edges)
    assert is_psd(x)
    exact = [[Fraction(v) for v in row] for row in x.tolist()]
    trace = sum(exact[i][i] for i in range(sic.n))
    assert sum(map(sum, exact)) / trace >= Fraction(res.value)


@pytest.mark.parametrize("name", ["ks18", "ks21"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_form_start_survives_relabelling(name, seed):
    # vectors and contexts permuted together: the same certificate
    sic = get_set(name)
    rep = bounds_report(relabelled(sic, seed))
    assert rep.theta_graph_iterations == 0
    assert rep.theta_graph <= sic.n / sic.dimension <= rep.theta_graph + rep.theta_graph_gap


@pytest.mark.parametrize("case", ["one_removed", "none"])
def test_no_regular_cover_falls_back_to_the_loop(case):
    # no declared contexts, and bases that cover the rays unevenly: ks18
    # less ray 0, whose seven bases without it cover the rays of ray 0's
    # two bases once and the rest twice, and yo13 at unit weights, whose
    # four bases cover its rays 0, 1 or 2 times
    if case == "one_removed":
        ks18 = get_set("ks18")
        sic = dataclasses.replace(ks18, vectors=ks18.vectors[1:],
                                  weights=ks18.weights[1:], contexts=None)
        assert len(bases(sic.graph, 4)) == 7
    else:
        yo13 = get_set("yo13")
        sic = dataclasses.replace(yo13, weights=(1,) * yo13.n)
        assert len(bases(sic.graph, 3)) == 4
    assert closed_form_start(sic) is None
    rep = bounds_report(sic)
    plain = solve_theta(sic.graph)
    assert plain.iterations > 0
    assert (rep.theta_graph, rep.theta_graph_gap, rep.theta_graph_iterations) == (
        plain.value, plain.gap, plain.iterations)


@pytest.mark.parametrize("scale", [0.99, 1.01, 0.0])
def test_a_wrong_dual_start_never_excludes_the_optimum(scale, monkeypatch):
    # any edge-supported H is dual feasible: a scaled one only loosens
    # the bracket.  bounds_report then runs the loop exactly as on a set
    # without a closed form, and takes the loose bracket as it is at a
    # tol wide enough for it
    ks18 = get_set("ks18")
    x0, h = closed_form_start(ks18)
    start = (x0, scale * h)
    cert = _Program(ks18.graph).certify_start(start)
    assert cert.iterations == 0 and cert.gap > 1e-6
    assert cert.value <= 4.5 <= cert.dual_bound
    monkeypatch.setattr(bounds, "_block_start", lambda sic, adj, rays, coords: start)
    rep, plain = bounds_report(ks18), solve_theta(ks18.graph)
    assert (rep.theta_graph, rep.theta_graph_gap, rep.theta_graph_iterations) == (
        plain.value, plain.gap, plain.iterations)
    loose = bounds_report(ks18, tol=20.0)
    assert (loose.theta_graph, loose.theta_graph_gap, loose.theta_graph_iterations) == (
        cert.value, cert.gap, 0)


def test_start_off_the_edges_is_projected():
    # a primal start that is not zero on edges, or not symmetric, is
    # projected before it is certified, so its lower bound still holds
    ks18 = get_set("ks18")
    x0, h = closed_form_start(ks18)
    skewed = x0 + 0.01 * np.triu(np.ones_like(x0))
    res = _Program(ks18.graph).certify_start((skewed, h))
    assert res.iterations == 0
    assert all(res.matrix[i, j] == 0.0 for i, j in ks18.graph.edges)
    assert res.value <= 4.5 <= res.dual_bound


@pytest.mark.parametrize("kind", ["leaf", "union", "join"])
def test_a_result_certifies_as_its_own_start(kind):
    # (matrix, h) is the whole certificate: passed back, it certifies on
    # the whole graph within tol, with no iteration
    g = {"leaf": cycle5(), "union": c5_plus_vertex(2, joined=False),
         "join": c5_plus_vertex(2, joined=True)}[kind]
    res = solve_theta(g)
    assert res.iterations > 0
    again = _Program(g).certify_start((res.matrix, res.h))
    assert again.iterations == 0 and again.gap <= 1e-6
    theta = np.sqrt(5.0) + (2.0 if kind == "union" else 0.0)
    assert again.value <= theta <= again.dual_bound


@pytest.mark.parametrize("name", ["ks18", "ks21"])
def test_a_closed_form_runs_no_solver(name, monkeypatch):
    # bounds_report certifies ks18's and ks21's closed form itself: it
    # never calls solve_theta, nor walks the rounding floor
    def never(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(bounds, "solve_theta", never)
    monkeypatch.setattr(bounds, "_rounding_floor", never)
    rep = bounds_report(get_set(name))
    assert rep.theta_graph_iterations == 0
    assert rep.theta == rep.beta_ideal


@pytest.mark.parametrize("sic", [
    direct_sum(get_set("ks18"), get_set("ks21")),
    relabelled(direct_sum(get_set("ks18"), get_set("ks21")), 5),
    direct_sum(get_set("ks18"), get_set("ks21"), get_set("ks18")),
    direct_sum(get_set("ks18"), dimension=6)],
    ids=["ks18+ks21", "relabelled", "ks18+ks21+ks18", "ks18+unused"])
def test_closed_form_blocks_run_no_solver(sic, monkeypatch):
    # no contexts are declared: each coordinate block's bases are its
    # d-cliques, every block closes, and the join takes the bracket of a
    # ks18 block, the heaviest, with no solver and no loop
    def never(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(bounds, "solve_theta", never)
    monkeypatch.setattr(bounds, "_loop", never)
    rep = bounds_report(sic)
    assert sic.contexts is None
    assert rep.theta_graph_iterations == 0
    assert rep.theta == 4.5
    assert Fraction(rep.theta_graph) <= Fraction(9, 2) <= (
        Fraction(rep.theta_graph) + Fraction(rep.theta_graph_gap))
    assert 0.0 < rep.theta_graph_gap <= 1e-12


def _ray(d, entries):
    """The ray of dimension d with ``entries`` ({coordinate: (a, b)}, a + b w)."""
    return tuple(ExactScalar(*entries[c]) if c in entries else ZERO for c in range(d))


def _pairs_and_ones():
    """e_0..e_29, e_2k +- e_2k+1 and the all-ones ray in d = 30: one block
    of 61 rays, whose bases the all-ones ray does not tile."""
    d = 30
    rays = [_ray(d, {c: (1, 0)}) for c in range(d)]
    rays += [_ray(d, {c: (1, 0), c + 1: (s, 0)}) for c in range(0, d, 2) for s in (1, -1)]
    rays.append(_ray(d, dict.fromkeys(range(d), (1, 0))))
    return SicSet(name="pairs", dimension=d, vectors=tuple(rays), weights=(1,) * len(rays))


def _pairs_and_hadamard():
    """In d = 16, each coordinate pair's bases {e, e'}, {e +- e'} and
    {e +- w e'}, glued by the rows of the Sylvester Hadamard matrix: 64
    rays, a tight frame whose bases do not cover them evenly."""
    d = 16
    rays = [ray for c in range(0, d, 2) for ray in (
        _ray(d, {c: (1, 0)}), _ray(d, {c + 1: (1, 0)}),
        *(_ray(d, {c: (1, 0), c + 1: b}) for b in ((1, 0), (-1, 0), (0, 1), (0, -1))))]
    rays += [_ray(d, {c: ((-1) ** bin(row & c).count("1"), 0) for c in range(d)})
             for row in range(d)]
    return SicSet(name="hadamard", dimension=d, vectors=tuple(rays), weights=(1,) * len(rays))


@pytest.mark.parametrize("sic", [_pairs_and_ones(), _pairs_and_hadamard()],
                         ids=["pairs+ones", "pairs+hadamard"])
def test_the_bases_search_gives_up_past_its_budget(sic):
    # unit weights on one coordinate block whose d-cliques number in the
    # millions: the search stops after _BASES_BUDGET pops, and the block
    # has no closed form
    (block,) = _coordinate_blocks(sic)
    adj = _adjacency(sic.graph)[0]
    start = time.perf_counter()
    assert _block_start(sic, adj, *block) is None
    assert time.perf_counter() - start < 1.0


def test_declared_contexts_are_not_read():
    # ks18 with its contexts dropped finds them again as its bases: the
    # same report, bit for bit, at 0 iterations
    ks18 = get_set("ks18")
    rep = bounds_report(dataclasses.replace(ks18, contexts=None))
    assert rep == bounds_report(ks18)
    assert rep.theta_graph_iterations == 0


def test_the_ceiling_builds_the_graph_once(monkeypatch):
    # yo13 (+) ks18's blocks are read off the set's own projectors and
    # coefficient matrix: no block rebuilds its orthogonality graph
    calls = []

    def counted(sic):
        calls.append(sic.n)
        return orthogonality_graph(sic)

    monkeypatch.setattr(catalog, "orthogonality_graph", counted)
    rep = bounds_report(direct_sum(get_set("yo13"), get_set("ks18")))
    assert calls == [31]
    assert rep.theta == 35 / 3


def test_an_empty_set_has_zero_bounds():
    # no ray, so no coordinate block: every bound is 0
    rep = bounds_report(SicSet(name="empty", dimension=2, vectors=(), weights=()))
    assert (rep.alpha, rep.theta, rep.theta_gap, rep.theta_graph, rep.beta_ideal) == (
        0, 0.0, 0.0, 0.0, 0.0)


def test_a_zero_ray_is_refused():
    # no state clicks on a zero ray, so sum(w) / d would count weight no
    # state reaches: yo13 with a zero ray of weight 1 is refused, by name
    yo13 = get_set("yo13")
    sic = dataclasses.replace(yo13, vectors=yo13.vectors + ((ZERO,) * 3,),
                              weights=yo13.weights + (1,))
    with pytest.raises(ValueError, match="^ray 13 is the zero vector"):
        bounds_report(sic)


def test_bounds_report_margins():
    for name, margin in (("ks18", 0.5), ("ks21", 0.5)):
        rep = bounds_report(get_set(name))
        assert abs(rep.margin_quantum - margin) < 1e-5
        assert abs(rep.margin_ideal - margin) < 1e-10
        assert rep.beta_ideal <= rep.theta + 1e-5
        assert rep.beta_ideal > rep.alpha
        # unit weights: relaxation and ceiling coincide
        assert abs(rep.theta_graph - rep.theta) < 1e-5
