"""Property tests over random Z[w] ray sets and random mixed states.

Each property compares the quantum layer against an independent route:
the closed-form noisy table against the Kronecker trace of the explicit
state and effects, the Bell operator against the single-pair Kronecker
oracle, a dense eigensolver, and pairwise float inner products.
The exact orthogonality graph is checked against the pairwise
``inner_product`` loop, and the maximum-weight independent set against
the weight-sum branch and bound, on random graphs and on nested unions
and joins of them, the split theta_graph bracket against the
whole-graph loop, both sides of its certificate exactly over Fraction,
its width against the rounding floor, a join's iterations against its
parts' solved alone, the closed form of a direct sum of ks-type blocks
against its heaviest block alone, and KS colorability against
enumeration of every 0/1 assignment.  The independence number is checked as the local bound of
the Bell functional, the best deterministic strategy found by
enumeration, on random ray sets, on rays realizing random weighted
graphs, and on the catalog.  The closed-form ideal prediction
is checked against the noise model run at IDEAL and against the
Cabello-Severini-Winter bound (at most theta_graph's upper end), the
quantum ceiling's bracket against that bound and, exactly over Q(w),
against the Bell operator built from the rays, the noise-model
inversion by a round trip through the forward model, the CLI's row-table
JSON writer against ``json.dumps`` on random count records and random
float tables, a run's size
against the set's own setting count, and fuzzed run configs and
mutated bundled set files by the CLI's exit contract and strict-JSON
artifacts.
"""

import io
import json
import math
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from sicbell import bounds
from sicbell.bounds import (
    ThetaNonConvergence,
    _Program,
    _adjacency,
    _block_start,
    _ceiling_bracket,
    _coordinate_blocks,
    _decompose,
    _induced,
    _loop,
    _rounding_floor,
    bounds_report,
    max_weight_independent_set,
    solve_theta,
    state_ceiling,
)
from sicbell.catalog import (
    SicSet,
    WeightedGraph,
    catalog_names,
    get_set,
    verify_set,
)
from sicbell.cli import _json_text, main
from sicbell.exact import ZERO, ExactScalar, coordinates, gram
from sicbell.montecarlo import (
    CountRecord,
    estimate_beta,
    estimate_probabilities,
    fit_visibility,
    run_experiment,
)
from sicbell.noise import IDEAL, NoiseConfig, apply_noise, expected_bell_value
from sicbell.quantum import (
    ProbabilityTable,
    bell_operator,
    bell_value,
    joint_probability,
)

from exact_oracle import (
    KRON_TOL,
    bell_operator_exact,
    branch_and_bound_mwis,
    colorable_by_enumeration,
    is_above_spectrum,
    is_coloring,
    is_psd,
    ks_colorable,
    kron_table,
    local_bound,
    loop_edges,
    model_state,
    unit_vectors,
    validate_state,
)
from test_catalog import bundled

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)

# Entries a + b*w with small a, b, and zero half the time, keep
# orthogonal pairs common.
_scalars = st.one_of(st.just(ZERO), st.builds(ExactScalar, st.integers(-1, 1),
                                              st.integers(-1, 1)))


@st.composite
def ray_sets(draw):
    d = draw(st.integers(3, 6))
    n = draw(st.integers(2, 8))
    # a zero draw becomes a basis ray, so every vector has a projector
    vector = st.lists(_scalars, min_size=d, max_size=d).map(
        lambda v: tuple(v) if any(s != ZERO for s in v)
        else (ExactScalar(1, 0),) + tuple(v[1:]))
    vectors = tuple(draw(st.lists(vector, min_size=n, max_size=n)))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    return SicSet(name="random", dimension=d, vectors=vectors, weights=weights)


def mixed_state(d: int, seed: int, rank: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d * d, rank)) + 1j * rng.normal(size=(d * d, rank))
    rho = g @ g.conj().T
    state = rho / np.trace(rho).real
    validate_state(state, d)
    return state


_seeds = st.integers(0, 2**32 - 1)
_ranks = st.integers(1, 36)


@st.composite
def spectra(draw, d):
    """Schmidt amplitudes c_k >= 0 with sum c_k^2 = 1, zeros included."""
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)
               .filter(lambda r: max(r) >= 0.1))
    norm = math.sqrt(sum(r * r for r in raw))
    return [r / norm for r in raw]


@PROPERTY_SETTINGS
@given(ray_sets(), _seeds, _ranks)
def test_contraction_matches_pairwise_oracle(sic, seed, rank):
    # the Bell operator, one contraction of the projector rows, against
    # the functional summed over single-pair Kronecker products
    state = mixed_state(sic.dimension, seed, min(rank, sic.dimension ** 2))
    vecs = sic.unit_vectors
    pairs = [joint_probability(state, vecs[i], vecs[j]) for i, j in sic.settings]
    traced = np.trace(state @ bell_operator(sic)).real
    assert abs(traced - sic.coefficients @ pairs) <= 1e-10


@PROPERTY_SETTINGS
@given(ray_sets(), st.floats(0.0, 1.0), st.floats(0.0, 1.0, exclude_max=True),
       st.data())
def test_noisy_table_matches_kron_trace(sic, visibility, crosstalk, data):
    # every entry of the closed form is the Born rule of the explicit
    # state and effects
    amps = data.draw(spectra(sic.dimension))
    _, table = expected_bell_value(sic, NoiseConfig(visibility, crosstalk, amps))
    oracle = kron_table(sic, model_state(amps, visibility), crosstalk)
    assert np.allclose(table.values, oracle, rtol=0.0, atol=KRON_TOL)


@PROPERTY_SETTINGS
@given(ray_sets(), st.floats(0.0, 1.0), st.data())
def test_bell_operator_trace_is_bell_value(sic, visibility, data):
    amps = data.draw(spectra(sic.dimension))
    beta, _ = bell_value(sic, apply_noise(sic, NoiseConfig(visibility, 0.0, amps)))
    traced = np.trace(model_state(amps, visibility) @ bell_operator(sic)).real
    assert abs(traced - beta) <= 1e-10


@PROPERTY_SETTINGS
@given(ray_sets())
def test_state_ceiling_is_top_eigenvalue(sic):
    op = bell_operator(sic)
    res = state_ceiling(op)
    assert abs(res.value - np.linalg.eigvalsh(op)[-1]) <= 1e-9
    assert 0.0 <= res.gap <= 1e-6
    assert res.value <= res.dual_bound
    assert abs(np.linalg.norm(res.vector) - 1.0) <= 1e-12
    assert abs(np.vdot(res.vector, op @ res.vector).real - res.value) <= 1e-9


@PROPERTY_SETTINGS
@given(ray_sets())
def test_exact_and_float_edges_agree(sic):
    fv = sic.unit_vectors
    floating = tuple(pair for pair in combinations(range(sic.n), 2)
                     if abs(np.vdot(fv[pair[0]], fv[pair[1]])) < 1e-9)
    assert floating == sic.graph.edges
    # the Bell layout and its consumers take the graph's edge order as sorted
    assert sic.graph.edges == tuple(sorted(sic.graph.edges))
    checks = {c.name: c.passed for c in verify_set(sic).checks}
    assert checks["exact_float_agreement"]


def assert_unit_vectors_are_entry_walk(sic):
    """unit_vectors and projectors equal the per-entry reference bit
    for bit."""
    reference = unit_vectors(sic.vectors)
    projectors = np.einsum("ia,ib->iab", reference, reference.conj())
    for ours, theirs in ((sic.unit_vectors, reference), (sic.projectors, projectors)):
        assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()


@PROPERTY_SETTINGS
@given(ray_sets())
def test_unit_vectors_match_entry_walk(sic):
    assert_unit_vectors_are_entry_walk(sic)


@pytest.mark.parametrize("name", ["yo13", "ks18", "ks21"])
def test_huge_entry_unit_vectors_match_entry_walk(name):
    # each ray times 10**30 - 7w: entries near 10**30, exact ints
    sic = get_set(name)
    scale = ExactScalar(10**30, -7)
    huge = SicSet(name=name, dimension=sic.dimension, weights=sic.weights,
                  vectors=tuple(tuple(scale * x for x in v) for v in sic.vectors))
    assert huge.coordinates.dtype == object
    assert_unit_vectors_are_entry_walk(huge)
    assert huge.graph == sic.graph


# Entry bounds on both sides of the int64 threshold of the Gram product,
# which lies between 2**28 and 2**30 for d = 3..6.
_scale_bounds = st.sampled_from([1, 2**26, 2**29, 2**31, 10**30])


@PROPERTY_SETTINGS
@given(ray_sets(), _scale_bounds, st.data())
def test_gram_edges_match_exact_loop(sic, bound, data):
    # scaling a ray by a nonzero ring element keeps its orthogonality,
    # so large scales keep edges while pushing entries past int64
    scalar = st.builds(ExactScalar, st.integers(-bound, bound),
                       st.integers(-bound, bound))
    vectors = tuple(tuple(s * x for x in v)
                    for v, s in zip(sic.vectors, data.draw(
                        st.lists(scalar, min_size=sic.n, max_size=sic.n))))
    scaled = SicSet(name="scaled", dimension=sic.dimension, vectors=vectors,
                    weights=sic.weights)
    assert scaled.graph.edges == loop_edges(vectors)
    assert all(type(k) is int for edge in scaled.graph.edges for k in edge)
    assert list(np.diag(scaled.orthogonal)) == [
        all(x == ZERO for x in v) for v in vectors]
    top = max(max(abs(x.a), abs(x.b)) for v in vectors for x in v)
    expected = np.int64 if 4 * sic.dimension * top**2 < 2**62 else object
    event(f"gram dtype {expected.__name__}")
    assert gram(*coordinates(vectors))[0].dtype == expected


@PROPERTY_SETTINGS
@given(ray_sets(), st.floats(0.0, 1.0))
def test_fit_visibility_round_trips(sic, t):
    beta_mixed, _ = expected_bell_value(sic, NoiseConfig(visibility=0.0))
    beta_ideal, _ = expected_bell_value(sic, NoiseConfig(visibility=1.0))
    target = beta_mixed + t * (beta_ideal - beta_mixed)
    v = fit_visibility(target, sic)
    beta, _ = expected_bell_value(sic, NoiseConfig(visibility=v))
    assert abs(beta - target) <= 1e-9


@PROPERTY_SETTINGS
@given(ray_sets(), st.floats(0.0, 1.0), st.floats(0.0, 0.9), st.data())
def test_amplitude_k_belongs_to_basis_index_k(sic, visibility, crosstalk, data):
    # relabel the basis: coordinate k of every ray and amplitude k move
    # to the same new index, and every probability stays put
    d = sic.dimension
    perm = data.draw(st.permutations(range(d)))
    amps = data.draw(spectra(d))
    moved = SicSet(name=sic.name, dimension=d, weights=sic.weights,
                   vectors=tuple(tuple(v[k] for k in perm) for v in sic.vectors))
    beta, table = expected_bell_value(
        sic, NoiseConfig(visibility, crosstalk, amps))
    beta_moved, table_moved = expected_bell_value(
        moved, NoiseConfig(visibility, crosstalk, [amps[k] for k in perm]))
    assert moved.settings == sic.settings
    assert np.allclose(table_moved.values, table.values, rtol=0.0, atol=1e-12)
    assert abs(beta_moved - beta) <= 1e-12


@PROPERTY_SETTINGS
@given(ray_sets())
def test_closed_form_ideal_matches_noise_model(sic):
    beta, table = expected_bell_value(sic, IDEAL)
    assert np.allclose(table.values, sic.ideal_probabilities, rtol=0.0, atol=KRON_TOL)
    assert abs(beta - sum(sic.weights) / sic.dimension) <= 1e-12


@PROPERTY_SETTINGS
@given(ray_sets())
# a table may round this set's beta above its exact optimum 1, as a
# Born-rule contraction did (1.0000000000000002): the exact value
# sum(w) / d is what the ceiling bounds
@example(SicSet(name="random", dimension=3,
                vectors=((ExactScalar(1, 0), ZERO, ZERO), (ZERO, ZERO, ExactScalar(0, 1)),
                         (ZERO, ExactScalar(0, 1), ZERO)),
                weights=(1, 1, 1)))
def test_ideal_value_is_below_the_ceiling(sic):
    beta_ideal, _ = expected_bell_value(sic, IDEAL)
    assert abs(beta_ideal - sum(sic.weights) / sic.dimension) <= 1e-12
    ceiling = state_ceiling(bell_operator(sic))
    assert Fraction(sum(sic.weights), sic.dimension) <= Fraction(ceiling.dual_bound)


@PROPERTY_SETTINGS
@given(ray_sets())
# ks18 and ks21 meet the bound (beta_ideal = theta_graph = n / d), so their
# upper ends clear beta_ideal by the certificate's rounding allowance, about 3e-13
@example(get_set("ks18"))
@example(get_set("ks21"))
def test_ideal_value_is_below_theta_graph(sic):
    # Cabello-Severini-Winter: no quantum realization of the graph beats
    # its weighted Lovasz number, so the certified upper end holds beta_ideal
    report = bounds_report(sic)
    assert report.beta_ideal <= report.theta_graph + report.theta_graph_gap


@PROPERTY_SETTINGS
@given(ray_sets())
@example(get_set("ks18"))
@example(get_set("ks21"))
def test_theta_bracket_sits_under_theta_graph(sic):
    # the ceiling's bracket keeps the maximally entangled state's exact
    # value, rounded down at worst, and closes no higher than theta_graph
    report = bounds_report(sic)
    total = Fraction(sum(sic.weights), sic.dimension)
    lower = Fraction(report.theta)
    upper = lower + Fraction(report.theta_gap)
    assert total - Fraction(math.ulp(report.beta_ideal)) < lower <= upper
    assert total <= upper
    assert upper <= Fraction(report.theta_graph) + Fraction(report.theta_graph_gap)
    assert report.theta_gap <= 1e-6


@settings(max_examples=10, deadline=None)
@given(ray_sets())
def test_theta_upper_end_holds_the_exact_operator(sic):
    # upper I - B is PSD over Q(w) for the exact Bell operator B, whether
    # the upper end is theta_graph's or the eigendecomposition's
    report = bounds_report(sic)
    upper = Fraction(report.theta) + Fraction(report.theta_gap)
    assert is_above_spectrum(upper, bell_operator_exact(sic.vectors, sic.weights))


def padded_sum(parts, order) -> SicSet:
    """The direct sum of ``parts``: each ray zero-padded into its part's
    coordinate block, in order, ray k of the concatenation placed at
    position k of ``order``'s inverse, i.e. the rays taken in ``order``."""
    d = sum(part.dimension for part in parts)
    rays, weights, offset = [], (), 0
    for part in parts:
        after = d - offset - part.dimension
        rays += [(ZERO,) * offset + v + (ZERO,) * after for v in part.vectors]
        weights += part.weights
        offset += part.dimension
    return SicSet(name="sum", dimension=d, vectors=tuple(rays[k] for k in order),
                  weights=tuple(weights[k] for k in order))


def block_set(sic: SicSet, rays, coords) -> SicSet:
    """The set's ``rays`` on its ``coords``, a coordinate block, alone."""
    return SicSet(name="block", dimension=len(coords),
                  vectors=tuple(tuple(sic.vectors[i][c] for c in coords) for i in rays),
                  weights=tuple(sic.weights[i] for i in rays))


def _ends(report):
    """A report's quantum ceiling bracket, read exactly."""
    lower = Fraction(report.theta)
    return lower, lower + Fraction(report.theta_gap)


@settings(max_examples=15, deadline=None)
@given(ray_sets(), ray_sets(), st.data())
def test_a_direct_sum_ceiling_is_its_largest_part(first, second, data):
    # the Bell operator of a direct sum is block diagonal, its cross
    # blocks negative semidefinite, so its ceiling is the larger of the
    # parts'.  The split bracket holds it, and so meets both the bracket
    # of the whole operator and [max of the parts' lower ends, max of
    # their upper ends]
    order = data.draw(st.permutations(range(first.n + second.n)))
    total = padded_sum([first, second], order)
    lower, upper = _ends(bounds_report(total))
    assert upper - lower <= Fraction(1e-6)
    whole = _ceiling_bracket(total, range(total.n), range(total.dimension))
    assert lower <= Fraction(whole[1]) and Fraction(whole[0]) <= upper
    parts = [_ends(bounds_report(part)) for part in (first, second)]
    assert lower <= max(up for _, up in parts)
    assert max(low for low, _ in parts) <= upper


@PROPERTY_SETTINGS
@given(ray_sets(), _seeds)
def test_estimate_beta_checks_the_size_alone(sic, seed):
    record, table, _ = run_experiment(sic, IDEAL, 1e4, seed)
    size = len(sic.settings)
    assert len(record.counts) == len(table.values) == size
    short = CountRecord(record.counts[:-1], record.exposure, record.seed)
    long = ProbabilityTable(np.append(table.values, 0.0), np.append(table.sigmas, 0.0))
    # a table one value short or one long, and a record one count short
    for wrong, rec, length in ((estimate_probabilities(short), None, size - 1),
                               (long, None, size + 1),
                               (table, short, size - 1)):
        with pytest.raises(ValueError) as refused:
            estimate_beta(wrong, sic, rec)
        assert str(refused.value) == (f"{length} entries given for the {size} "
                                      f"settings of set {sic.name}")


@PROPERTY_SETTINGS
@given(ray_sets())
def test_independence_number_is_below_theta_graph(sic):
    alpha, _ = max_weight_independent_set(sic.graph)
    theta = solve_theta(sic.graph)
    assert alpha <= theta.value + theta.gap


@PROPERTY_SETTINGS
@given(ray_sets())
def test_alpha_is_the_local_bound(sic):
    assert (local_bound(sic.settings, sic.coefficients)
            == max_weight_independent_set(sic.graph)[0])


@PROPERTY_SETTINGS
@given(ray_sets())
def test_coefficients_match_the_setting_loop(sic):
    # the signed-weight matrix, read off the orthogonality mask, holds
    # each setting's coefficient at that setting and is zero elsewhere;
    # the per-setting rule, a loop over the settings, is the reference
    w = sic.weights
    expected = [float(w[i]) if i == j else -float(max(w[i], w[j])) / 2.0
                for i, j in sic.settings]
    assert sic.coefficients.tolist() == expected
    matrix = sic.coefficient_matrix
    assert [matrix[i, j] for i, j in sic.settings] == expected
    assert np.count_nonzero(matrix) == len(sic.settings)


def realize(graph: WeightedGraph) -> SicSet:
    """Real rays whose orthogonality graph is ``graph``: ray v has a 1 on
    its own coordinate and on one coordinate per non-edge {u, v}, which
    it shares with u, so two rays overlap exactly on a non-edge."""
    one = ExactScalar(1, 0)
    apart = [e for e in combinations(range(graph.n), 2) if e not in graph.edges]
    d = graph.n + len(apart)
    rows = [[ZERO] * d for _ in range(graph.n)]
    for v, row in enumerate(rows):
        row[v] = one
    for k, pair in enumerate(apart, graph.n):
        for v in pair:
            rows[v][k] = one
    return SicSet("realized", d, tuple(map(tuple, rows)), graph.weights)


@st.composite
def local_bound_graphs(draw):
    """Graphs of 1-12 vertices with weights in {1, 2, 3, 5, 9}, where the
    max(w_i, w_j) / 2 penalty of an edge often differs from either end's
    weight."""
    n = draw(st.integers(1, 12))
    density = draw(st.floats(0.0, 1.0))
    rng = draw(st.randoms(use_true_random=False))
    edges = tuple(e for e in combinations(range(n), 2) if rng.random() < density)
    weights = tuple(draw(st.lists(st.sampled_from([1, 2, 3, 5, 9]),
                                  min_size=n, max_size=n)))
    return WeightedGraph(n, weights, edges)


@PROPERTY_SETTINGS
@given(local_bound_graphs())
def test_alpha_is_the_local_bound_on_weighted_graphs(graph):
    sic = realize(graph)
    assert sic.graph == graph
    assert (local_bound(sic.settings, sic.coefficients)
            == max_weight_independent_set(graph)[0])


@pytest.mark.parametrize("name, alpha", [("yo13", 11), ("ks18", 4), ("ks21", 3)])
def test_catalog_alpha_is_the_local_bound(name, alpha):
    sic = get_set(name)
    assert local_bound(sic.settings, sic.coefficients) == alpha
    assert max_weight_independent_set(sic.graph)[0] == alpha


@st.composite
def weighted_graphs(draw):
    """Graphs up to 24 vertices with unit weights or weights in 1..3, so
    that optimal sets tie often and the witness rests on the lexicographic
    rule."""
    n = draw(st.integers(0, 24))
    density = draw(st.floats(0.05, 0.9))
    rng = draw(st.randoms(use_true_random=False))
    edges = tuple(e for e in combinations(range(n), 2) if rng.random() < density)
    top = draw(st.sampled_from([1, 3]))
    weights = tuple(draw(st.lists(st.integers(1, top), min_size=n, max_size=n)))
    return WeightedGraph(n, weights, edges)


@settings(max_examples=150, deadline=None)
@given(weighted_graphs())
def test_mwis_matches_branch_and_bound_oracle(graph):
    assert max_weight_independent_set(graph) == branch_and_bound_mwis(graph)


def _compose(kind, parts):
    """The disjoint union, or the join (every cross pair an edge), of
    ``(weights, edges)`` parts, numbered in order."""
    weights, edges, blocks = [], [], []
    for part_weights, part_edges in parts:
        offset = len(weights)
        weights += part_weights
        edges += [(i + offset, j + offset) for i, j in part_edges]
        blocks.append(range(offset, len(weights)))
    if kind == "join":
        edges += [(i, j) for a, b in combinations(blocks, 2) for i in a for j in b]
    return weights, edges


@st.composite
def composed_graphs(draw, depth=2, max_parts=3, weight=st.integers(1, 3),
                    max_piece=4):
    """Random graphs of 1 to ``max_piece`` vertices nested up to
    ``depth`` levels in unions and joins of 2 to ``max_parts`` parts,
    then relabelled at random, so that every piece of the split is
    scattered over the vertex order.  Weights are drawn from ``weight``;
    the default, 1..3, makes ties, and the lexicographic rule, common."""
    rng = draw(st.randoms(use_true_random=False))

    def pieces(level):
        if level == 0 or draw(st.booleans()):
            n = draw(st.integers(1, max_piece))
            density = draw(st.floats(0.0, 1.0))
            return ([draw(weight) for _ in range(n)],
                    [e for e in combinations(range(n), 2) if rng.random() < density])
        kind = draw(st.sampled_from(["union", "join"]))
        return _compose(kind, [pieces(level - 1)
                               for _ in range(draw(st.integers(2, max_parts)))])

    weights, edges = pieces(depth)
    perm = list(range(len(weights)))
    rng.shuffle(perm)
    placed = [0] * len(weights)
    for v, w in enumerate(weights):
        placed[perm[v]] = w
    return WeightedGraph(len(weights), tuple(placed), tuple(sorted(
        (min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges)))


@settings(max_examples=150, deadline=None)
@given(composed_graphs())
def test_split_mwis_matches_branch_and_bound_oracle(graph):
    assert max_weight_independent_set(graph) == branch_and_bound_mwis(graph)


@settings(max_examples=30, deadline=None)
@given(composed_graphs(max_parts=2), st.sampled_from([1e-2, 1e-4, 1e-6]))
def test_split_theta_bracket_meets_the_whole_graph_bracket(graph, tol):
    # the split solve and the loop on the whole graph are both
    # certified, so both brackets hold theta and they overlap
    whole = _loop(_Program(graph), tol, 5_000)
    assume(whole.gap <= tol)
    split = solve_theta(graph, tol=tol)
    assert split.value <= whole.dual_bound
    assert whole.value <= split.dual_bound
    assert 0.0 <= split.gap <= tol
    edges = set(graph.edges)
    for i, j in combinations(range(graph.n), 2):
        assert split.matrix[i, j] == split.matrix[j, i]
        if (i, j) in edges:
            assert split.matrix[i, j] == 0.0
        else:
            assert split.h[i, j] == split.h[j, i] == 0.0


def _catalog_with_start(name):
    sic = get_set(name)
    (block,) = _coordinate_blocks(sic)
    return sic.graph, _block_start(sic, _adjacency(sic.graph)[0], *block)


@settings(max_examples=30, deadline=None)
@given(st.one_of(composed_graphs().map(lambda graph: (graph, None)),
                 st.sampled_from(["yo13", "ks18", "ks21"]).map(_catalog_with_start)),
       st.sampled_from([None, 1e-6]))
def test_no_bracket_is_narrower_than_the_rounding_floor(problem, tol):
    # the best certificate a short run reaches, certified or not, at the
    # floor itself and at a loose tol, and ks18's and ks21's closed form:
    # each gap is at least the floor
    graph, start = problem
    floor = _rounding_floor(graph, _decompose(graph)[1])
    try:
        res = solve_theta(graph, tol=floor if tol is None else tol, max_iter=300)
        gap = res.gap
    except ThetaNonConvergence as exc:
        gap = exc.dual_bound - exc.primal_bound
    assert gap >= floor
    if start is not None:
        assert _Program(graph).certify_start(start).gap >= floor


def test_catalog_and_dense_random_graphs_are_one_piece():
    # each of these graphs is one piece, on which the MWIS search and the
    # theta_graph loop run whole: the catalog timings, and this dense
    # 44-vertex graph that the loop does not certify, measure the loop
    # itself.  The scaled-sets union and direct sums do split, into
    # catalog graphs
    rng = random.Random(7)
    n = 44
    dense = WeightedGraph(n, tuple(rng.randint(1, 3) for _ in range(n)),
                          tuple(e for e in combinations(range(n), 2)
                                if rng.random() < 0.5))
    graphs = [get_set(name).graph for name in ("yo13", "ks18", "ks21")] + [dense]
    for graph in graphs:
        assert _decompose(graph)[1] == (1 << graph.n) - 1


@st.composite
def context_families(draw):
    """A graph of 1-8 vertices at edge probability 0.3 and 1-4 contexts,
    each a random vertex subset, so clique and non-clique contexts both
    occur."""
    n = draw(st.integers(1, 8))
    rng = draw(st.randoms(use_true_random=False))
    edges = tuple(e for e in combinations(range(n), 2) if rng.random() < 0.3)
    context = st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                       unique=True).map(tuple)
    contexts = tuple(draw(st.lists(context, min_size=1, max_size=4)))
    return WeightedGraph(n, (1,) * n, edges), contexts


@settings(max_examples=200, deadline=None)
@given(context_families())
@example((WeightedGraph(3, (1, 1, 1), ()), ((0, 1), (1, 2))))
def test_ks_colorable_matches_enumeration(family):
    graph, contexts = family
    colorable, witness = ks_colorable(graph, contexts)
    assert colorable == colorable_by_enumeration(graph, contexts)
    if colorable:
        assert witness == tuple(sorted(witness))
        assert is_coloring(graph, contexts, witness)
    else:
        assert witness is None


@st.composite
def square_weighted_graphs(draw):
    """Graphs up to 30 vertices with weights in {1, 4, 9}, whose square
    roots are exact."""
    n = draw(st.integers(1, 30))
    density = draw(st.floats(0.05, 0.9))
    rng = draw(st.randoms(use_true_random=False))
    edges = tuple(e for e in combinations(range(n), 2) if rng.random() < density)
    weights = tuple(draw(st.lists(st.sampled_from([1, 4, 9]),
                                  min_size=n, max_size=n)))
    return WeightedGraph(n, weights, edges)


def _assert_lower_side_exact(graph, res):
    """res.matrix is exactly feasible and attains at least res.value."""
    x = res.matrix
    assert (x == x.T).all()
    for i, j in graph.edges:
        assert x[i, j] == 0.0
    assert is_psd(x)
    root = [math.isqrt(w) for w in graph.weights]
    exact = [[Fraction(v) for v in row] for row in x.tolist()]
    trace = sum(exact[i][i] for i in range(graph.n))
    attained = sum(root[i] * root[j] * exact[i][j]
                   for i in range(graph.n) for j in range(graph.n))
    assert trace > 0
    assert attained / trace >= Fraction(res.value)


@settings(max_examples=20, deadline=None)
@given(square_weighted_graphs(), st.sampled_from([1e-2, 1e-4, 1e-6]))
def test_theta_lower_bound_holds_exactly(graph, tol):
    # a loose tol ends the loop on a less-converged iterate, where the
    # shift delta that makes it PSD, and its rounding allowance, matter
    try:
        res = solve_theta(graph, tol=tol, max_iter=1_000)
    except ThetaNonConvergence:
        assume(False)
    _assert_lower_side_exact(graph, res)


@settings(max_examples=40, deadline=None)
@given(st.one_of(square_weighted_graphs(),
                 composed_graphs(max_parts=2, weight=st.sampled_from([1, 4, 9]),
                                 max_piece=7)),
       st.sampled_from([1e-2, 1e-4, 1e-6]))
def test_theta_certificate_holds_exactly(graph, tol):
    # leaves, unions and joins with exact square roots of the weights:
    # h is edge-supported and dual_bound I - (W - h) is PSD over Fraction,
    # so lambda_max(W - h) <= dual_bound; the matrix attains value
    try:
        res = solve_theta(graph, tol=tol, max_iter=1_000)
    except ThetaNonConvergence:
        assume(False)
    tree = _decompose(graph)[1]
    event(f"n = {graph.n // 10 * 10}+, " + ("leaf" if isinstance(tree, int) else tree[0]))
    _assert_lower_side_exact(graph, res)
    _assert_upper_side_exact(graph, res)


def _assert_upper_side_exact(graph, res):
    """res.h is edge-supported and dual_bound I - (W - h) is PSD over
    Fraction, so lambda_max(W - h) <= dual_bound."""
    n, edges = graph.n, set(graph.edges)
    h = [[Fraction(v) for v in row] for row in res.h.tolist()]
    assert all(h[i][j] == h[j][i] == 0 for i in range(n) for j in range(i, n)
               if (i, j) not in edges)
    root = [math.isqrt(w) for w in graph.weights]
    upper = Fraction(res.dual_bound)
    assert is_psd([[upper * (i == j) - root[i] * root[j] + h[i][j] for j in range(n)]
                   for i in range(n)])


@pytest.mark.parametrize("c5_weight, vertex_weight", [(1, 4), (4, 9)])
@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_a_join_part_under_the_cap_keeps_the_join_certified(c5_weight, vertex_weight,
                                                            tol):
    # C5 joined to a heavier vertex: theta is the vertex's weight.  Both
    # parts are solved at tol, and C5's upper end lies under the vertex's
    # lower end, so the join's bracket is the vertex's, C5's certificate
    # fills its block of h, and the iterations are the parts' own.  With
    # square weights both sides of the join's certificate hold exactly
    c5 = WeightedGraph(5, (c5_weight,) * 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    graph = WeightedGraph(6, c5.weights + (vertex_weight,),
                          c5.edges + tuple((v, 5) for v in range(5)))
    vertex = _loop(_Program(WeightedGraph(1, (vertex_weight,), ())), tol, bounds._MAX_ITER)
    part = _loop(_Program(c5), tol, bounds._MAX_ITER)
    assert vertex.gap <= tol and part.gap <= tol
    assert part.dual_bound < vertex.value
    res = solve_theta(graph, tol=tol)
    assert (res.value, res.dual_bound, res.iterations) == (
        vertex.value, vertex.dual_bound, vertex.iterations + part.iterations)
    assert res.value <= vertex_weight <= res.dual_bound
    assert (res.h[:5, :5] == part.h).all()
    _assert_lower_side_exact(graph, res)
    _assert_upper_side_exact(graph, res)


_BASIS_RAY = SicSet(name="e", dimension=1, vectors=((ExactScalar(1, 0),),), weights=(1,))


@st.composite
def closed_form_sums(draw):
    """A direct sum of ks18, ks21 (each at most once) and up to three
    unit-weight basis rays, at least one part, the parts in random order
    and the rays shuffled."""
    names = draw(st.sets(st.sampled_from(["ks18", "ks21"])))
    rays = draw(st.integers(0 if names else 1, 3))
    parts = draw(st.permutations([get_set(name) for name in sorted(names)]
                                 + [_BASIS_RAY] * rays))
    return padded_sum(parts, draw(st.permutations(range(sum(p.n for p in parts)))))


@settings(max_examples=25, deadline=None)
@given(closed_form_sums())
def test_closed_form_blocks_join_to_the_heaviest(sic):
    # every block closes on its own bases, so no loop runs, the bracket
    # holds max n_b / d_b exactly, and the report is that of the heaviest
    # block alone, its rays in the same order, bit for bit
    blocks = _coordinate_blocks(sic)
    rep = bounds_report(sic)
    assert rep.theta_graph_iterations == 0
    lower, top = Fraction(rep.theta_graph), max(Fraction(len(r), len(c)) for r, c in blocks)
    assert lower <= top <= lower + Fraction(rep.theta_graph_gap)
    heaviest = max((block_set(sic, *block) for block in blocks),
                   key=lambda part: Fraction(part.n, part.dimension))
    alone = bounds_report(heaviest)
    assert (rep.theta_graph, rep.theta_graph_gap, rep.theta, rep.theta_gap) == (
        alone.theta_graph, alone.theta_graph_gap, alone.theta, alone.theta_gap)


def test_joined_closed_form_certificate_holds_exactly(monkeypatch):
    # ks18 (+) ks21: the join of its blocks' closed forms is the
    # certificate bounds_report takes.  Its matrix is PSD, zero on edges,
    # of trace 1 up to rounding and of value at least the lower end, and
    # dual_bound I - (W - h) is PSD, all over Fraction
    joined = []
    join = bounds._join_result

    def spy(*args):
        joined.append(join(*args))
        return joined[-1]

    monkeypatch.setattr(bounds, "_join_result", spy)
    sic = padded_sum([get_set("ks18"), get_set("ks21")], range(39))
    rep = bounds_report(sic)
    (res,) = joined
    assert (res.value, res.gap, res.iterations) == (rep.theta_graph, rep.theta_graph_gap, 0)
    assert abs(sum(map(Fraction, np.diagonal(res.matrix).tolist())) - 1) <= 1e-14
    _assert_lower_side_exact(sic.graph, res)
    _assert_upper_side_exact(sic.graph, res)


def _joins(node):
    """The join nodes of a split tree (:func:`_decompose`)."""
    if isinstance(node, int):
        return []
    kind, _, parts = node
    return [node] * (kind == "join") + [j for part in parts for j in _joins(part)]


@settings(max_examples=60, deadline=None)
@given(composed_graphs(max_parts=3, weight=st.sampled_from([1, 4, 9]), max_piece=5),
       st.sampled_from([1e-2, 1e-4, 1e-6]))
def test_a_join_costs_its_parts_own(graph, tol):
    # each join of the split, solved alone at tol: its parts solved alone
    # at tol certify, so it does too, with both sides of its certificate
    # exact.  Its bracket is [max lower, max upper] of theirs, and its
    # iterations are the sum of theirs
    joins = _joins(_decompose(graph)[1])
    assume(joins)
    for _, mask, parts in joins:
        try:
            alone = [solve_theta(_induced(graph, part if isinstance(part, int) else part[1]),
                                 tol=tol) for part in parts]
        except ThetaNonConvergence:
            assume(False)
        sub = _induced(graph, mask)
        res = solve_theta(sub, tol=tol)
        assert res.gap <= tol
        _assert_lower_side_exact(sub, res)
        _assert_upper_side_exact(sub, res)
        assert (res.value, res.dual_bound, res.iterations) == (
            max(part.value for part in alone), max(part.dual_bound for part in alone),
            sum(part.iterations for part in alone))


# zero counts, counts near 2**62, and names JSON must escape
_counts = st.one_of(st.just(0), st.integers(0, 10**6),
                    st.integers(2**62 - 2**10, 2**62 + 2**10))
_names = st.one_of(st.text(max_size=8), st.sampled_from(
    ['a"b', "back\\slash", "ks21\u00e9\u2192\U0001f600", '"counts": null',
     '"settings": null']))


@st.composite
def count_records(draw):
    """A set name, its settings and a count record laid out in them."""
    index = st.integers(0, 300)
    settings = draw(st.lists(st.tuples(index, index), max_size=12, unique=True))
    counts = draw(st.lists(_counts, min_size=len(settings),
                           max_size=len(settings)))
    exposure = draw(st.floats(min_value=0.0, exclude_min=True,
                              allow_infinity=False))
    return draw(_names), settings, CountRecord(
        tuple(counts), exposure, draw(st.integers(0, 2**64 - 1)))


@PROPERTY_SETTINGS
@given(count_records())
def test_counts_file_text_is_json_dumps(drawn):
    name, settings, record = drawn
    doc = {"set": name, "exposure": record.exposure, "seed": record.seed,
           "counts": [{"alice": i, "bob": j, "count": c}
                      for (i, j), c in zip(settings, record.counts)]}
    oracle = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert _json_text({"set": name, "exposure": record.exposure,
                       "seed": record.seed},
                      counts={"alice": [i for i, _ in settings],
                              "bob": [j for _, j in settings],
                              "count": record.counts}) == oracle


# signed zeros, subnormals, one and the largest decades, next to any float
_finite = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                                     1.0, 1e308, -1e308]),
                    st.floats(allow_nan=False, allow_infinity=False))


@PROPERTY_SETTINGS
@given(name=_names, beta=_finite, rows=st.lists(
    st.tuples(st.integers(1, 300), _finite, _finite), max_size=12))
def test_float_table_text_is_json_dumps(name, beta, rows):
    # "settings" sorts after "set", so the table is spliced in after the
    # name; the columns are not given in sorted order, as in predict
    columns = {"sigma": [s for _, _, s in rows], "index": [i for i, _, _ in rows],
               "p_hat": [p for _, p, _ in rows]}
    doc = {"set": name, "beta_expected": beta,
           "settings": [{"index": i, "p_hat": p, "sigma": s} for i, p, s in rows]}
    oracle = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert _json_text({"set": name, "beta_expected": beta},
                      settings=columns) == oracle


_CONFIG_KEYS = ["set", "visibility", "crosstalk", "spectrum_width", "spectrum",
                "exposure", "seed", "bootstrap_replicates"]
# what a JSON config can hold: every JSON type, the non-finite floats
# Python's json reads and writes, integers beyond 64 bits, and numbers
# in range for most keys
_numbers = st.one_of(st.integers(-4, 4), st.floats(0.0, 1.0))
_config_values = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.integers(2**64, 2**80), st.integers(-(2**80), -(2**64)),
    st.lists(_numbers, max_size=3),
    st.lists(st.lists(_numbers, max_size=3), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.floats(0.0, 1.0), st.integers(0, 100),
)


def _refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


def _exits_cleanly(argv, out):
    """Run the CLI: it exits 0 and every artifact in ``out`` is strict
    JSON (no NaN or Infinity), or it exits 1 with one ``error:`` line.
    ``catalog`` may instead exit 1 after its report, with one INVALID line."""
    report, err = io.StringIO(), io.StringIO()
    with redirect_stdout(report), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        text = err.getvalue()
        invalid = argv[0] == "catalog" and text.endswith(": INVALID\n")
        assert text.startswith("error:") or (invalid and "[FAIL]" in report.getvalue())
        assert text.count("\n") == 1 and text.endswith("\n")
        return
    for name in os.listdir(out) if os.path.isdir(out) else ():
        if name.endswith(".json"):
            with open(os.path.join(out, name), encoding="utf-8") as handle:
                json.loads(handle.read(), parse_constant=_refuse)


@PROPERTY_SETTINGS
@given(st.sampled_from(_CONFIG_KEYS), _config_values)
@example("set", 5)
@example("set", True)
def test_fuzzed_config_exits_cleanly(key, value):
    config = {"set": "yo13", key: value}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        out = os.path.join(tmp, "out")
        for command in ("predict", "simulate"):
            _exits_cleanly([command, "--config", path, "--out", out], out)


_MUTATIONS = ("wrong_type", "huge", "drop", "duplicate", "zero", "missing",
              "extra", "empty")
# st.builds, not st.just: a later mutation may fill the container in place,
# and one shared across examples would make generation depend on the past
_wrong_types = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.just(1.0),
    st.sampled_from([1.5, math.inf, math.nan]), st.builds(dict),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
    st.lists(st.booleans(), max_size=2))

# the values each in-place mutation puts where it finds the type it replaces
_FILLS = {"wrong_type": (object, _wrong_types), "empty": (list, st.builds(list)),
          "huge": (int, st.sampled_from([10**30, -(10**30)]))}


def _slots(node):
    """Every (container, key) of a JSON tree, depth first."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


@st.composite
def mutated_sets(draw):
    """A bundled set with one or two mutations: a value of the wrong type,
    a vector entry of 10**30, a vector dropped, duplicated or zeroed, a
    key missing or extra, or a list emptied."""
    root = {"doc": bundled(draw(st.sampled_from(catalog_names())))}
    for kind in draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=2)):
        doc = root["doc"]
        vectors = doc.get("vectors") if isinstance(doc, dict) else None
        if kind in ("drop", "duplicate", "zero"):
            if not isinstance(vectors, list) or not vectors:
                continue
            i = draw(st.integers(0, len(vectors) - 1))
            weights = doc.get("weights")
            with_weight = (isinstance(weights, list) and len(weights) == len(vectors)
                           and draw(st.booleans()))
            if kind == "drop":
                del vectors[i]
                if with_weight:
                    del weights[i]
            elif kind == "duplicate":
                vectors.append(json.loads(json.dumps(vectors[i])))
                if with_weight:
                    weights.append(weights[i])
            elif isinstance(vectors[i], list):
                vectors[i] = [[0, 0] for _ in vectors[i]]
        elif kind in ("missing", "extra"):
            objects = [node[key] for node, key in _slots(root)
                       if isinstance(node[key], dict)]
            if not objects:
                continue
            target = draw(st.sampled_from(objects))
            if kind == "extra":
                target[draw(st.text(max_size=4))] = draw(_wrong_types)
            elif target:
                del target[draw(st.sampled_from(sorted(target)))]
        else:
            want, fill = _FILLS[kind]
            # an entry of 10**30 in a weight stalls theta_graph (exit 2)
            tree = {"vectors": vectors} if kind == "huge" else root
            slots = [(node, key) for node, key in _slots(tree)
                     if isinstance(node[key], want) and not isinstance(node[key], bool)]
            if not slots:
                continue
            node, key = draw(st.sampled_from(slots))
            node[key] = draw(fill)
        event(kind)
    return root["doc"]


@settings(max_examples=100, deadline=None)
@given(mutated_sets())
def test_fuzzed_set_exits_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "set.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out = os.path.join(tmp, "out")
        _exits_cleanly(["catalog", path], out)
        _exits_cleanly(["bounds", path, "--out", out], out)
        for command in ("predict", "simulate"):
            _exits_cleanly([command, "--set", path, "--out", out], out)
