import random
import time
from itertools import combinations

import numpy as np
import pytest

from sicbell.bounds import (
    BoundsReport,
    ThetaNonConvergence,
    ThetaResult,
    _theta_bracket,
    bounds_report,
    max_weight_independent_set,
    solve_theta,
    state_ceiling,
)
from sicbell.catalog import SicSet, WeightedGraph, get_set, orthogonality_graph
from sicbell.exact import ZERO
from sicbell.quantum import bell_operator


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
    assert empty.matrix.shape == (0, 0) and empty.iterations == 0
    big = WeightedGraph(65, (1,) * 65, ())
    with pytest.raises(ValueError):
        max_weight_independent_set(big)
    with pytest.raises(ValueError):
        solve_theta(big)


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
        st = res.state
        assert abs(np.trace(st).real - 1.0) < 1e-10
        assert float(np.linalg.eigvalsh(st)[0]) >= -1e-8


def test_state_ceiling_catalog_operators():
    targets = {"yo13": 35.0 / 3.0, "ks18": 4.5, "ks21": 3.5}
    for name, target in targets.items():
        res = state_ceiling(bell_operator(get_set(name)))
        assert abs(res.value - target) < 1e-5


def test_state_ceiling_rejects_non_hermitian():
    with pytest.raises(ValueError):
        state_ceiling(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_theta_nonconvergence_reports_bracket():
    with pytest.raises(ThetaNonConvergence) as err:
        solve_theta(cycle5(), tol=1e-15, max_iter=30)
    exc = err.value
    assert exc.iterations == 30
    assert exc.primal_bound <= np.sqrt(5.0) + 1e-9
    assert exc.dual_bound >= np.sqrt(5.0) - 1e-9


def test_disconnected_graph_is_solved_whole():
    # theta_graph splits only at a join: C5 plus an isolated vertex is
    # one solve_theta call, bracket and iterations alike
    g = WeightedGraph(6, (1,) * 5 + (2,), cycle5().edges)
    whole = solve_theta(g, tol=1e-6)
    assert _theta_bracket(g, 1e-6) == (whole.value, whole.dual_bound, whole.iterations)


def test_split_theta_nonconvergence_reports_the_whole_bracket():
    # C5 joined to one more vertex: theta = max(sqrt(5), 1).  C5 stalls
    # short of tol, and the error brackets the max
    g = WeightedGraph(6, (1,) * 6,
                      cycle5().edges + tuple((v, 5) for v in range(5)))
    with pytest.raises(ThetaNonConvergence) as err:
        _theta_bracket(g, tol=1e-15)
    exc = err.value
    assert exc.primal_bound <= np.sqrt(5.0) <= exc.dual_bound
    assert exc.dual_bound - exc.primal_bound < 1e-12
    # the vertex after the stalled C5 gets one iteration, not a stall of its own
    with pytest.raises(ThetaNonConvergence) as alone:
        solve_theta(cycle5(), tol=1e-15)
    assert exc.iterations == alone.value.iterations + 1


def test_theta_stalled_bracket_stops_early():
    # ks18 certifies to about 4.7e-13 and no further
    with pytest.raises(ThetaNonConvergence) as err:
        solve_theta(get_set("ks18").graph, tol=1e-13)
    exc = err.value
    assert exc.iterations < 5_000
    assert exc.primal_bound <= 4.5 <= exc.dual_bound


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
    # so alpha and theta_graph are yo13's, and the iterations add up
    yo13, ks18 = get_set("yo13"), get_set("ks18")
    pad = (ZERO,)
    total = SicSet(name="yo13+ks18", dimension=7,
                   vectors=tuple(v + pad * 4 for v in yo13.vectors)
                   + tuple(pad * 3 + v for v in ks18.vectors),
                   weights=yo13.weights + ks18.weights)
    rep = bounds_report(total)
    parts = [bounds_report(sic) for sic in (yo13, ks18)]
    assert (rep.alpha, rep.alpha_witness) == (11, parts[0].alpha_witness)
    assert (rep.theta_graph, rep.theta_graph_gap) == (
        parts[0].theta_graph, parts[0].theta_graph_gap)
    assert rep.theta_graph_iterations == sum(p.theta_graph_iterations for p in parts)


def test_bounds_report_margins():
    for name, margin in (("ks18", 0.5), ("ks21", 0.5)):
        rep = bounds_report(get_set(name))
        assert abs(rep.margin_quantum - margin) < 1e-5
        assert abs(rep.margin_ideal - margin) < 1e-10
        assert rep.beta_ideal <= rep.theta + 1e-5
        assert rep.beta_ideal > rep.alpha
        # unit weights: relaxation and ceiling coincide
        assert abs(rep.theta_graph - rep.theta) < 1e-5
