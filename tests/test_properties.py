"""Property tests over random Z[w] ray sets and random mixed states.

Each property compares the one-contraction quantum layer against an
independent route: the single-pair Kronecker oracle, the trace of the
Bell operator, a dense eigensolver, and pairwise float inner products.
The exact orthogonality graph is checked against the pairwise
``inner_product`` loop.  The noise-model inversion is checked by a round
trip through the forward model, and fuzzed run configs by the CLI's exit
contract.
"""

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from sicbell.bounds import max_weight_independent_set, solve_theta, state_ceiling
from sicbell.catalog import SicSet, verify_set
from sicbell.cli import main
from sicbell.exact import ONE, ZERO, ExactScalar, gram
from sicbell.montecarlo import fit_visibility
from sicbell.noise import NoiseConfig, expected_bell_value, measurement_effects
from sicbell.quantum import (
    BipartiteState,
    bell_operator,
    bell_value,
    born_probabilities,
    joint_probability,
    max_entangled_state,
)

from exact_oracle import loop_edges

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
        lambda v: tuple(v) if any(not s.is_zero() for s in v) else (ONE,) + tuple(v[1:]))
    vectors = tuple(draw(st.lists(vector, min_size=n, max_size=n)))
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    return SicSet(name="random", dimension=d, vectors=vectors, weights=weights)


def mixed_state(d: int, seed: int, rank: int) -> BipartiteState:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d * d, rank)) + 1j * rng.normal(size=(d * d, rank))
    rho = g @ g.conj().T
    state = BipartiteState(d, rho / np.trace(rho).real)
    state.validate()
    return state


_seeds = st.integers(0, 2**32 - 1)
_ranks = st.integers(1, 36)


@PROPERTY_SETTINGS
@given(ray_sets(), _seeds, _ranks)
def test_contraction_matches_pairwise_oracle(sic, seed, rank):
    state = mixed_state(sic.dimension, seed, min(rank, sic.dimension ** 2))
    pairs = [(i, j) for i in range(sic.n) for j in range(sic.n)]
    alice = sic.projectors
    table = born_probabilities(state.rho, alice, alice.conj(), pairs)
    vecs = sic.float_vectors()
    oracle = [joint_probability(state, vecs[i], vecs[j]) for i, j in pairs]
    assert np.allclose(table, oracle, rtol=0.0, atol=1e-12)


@PROPERTY_SETTINGS
@given(ray_sets(), _seeds, st.floats(0.0, 0.9))
def test_noisy_contraction_matches_kron_trace(sic, seed, crosstalk):
    state = mixed_state(sic.dimension, seed, 2)
    alice, bob = measurement_effects(sic, crosstalk)
    pairs = [(i, j) for i in range(sic.n) for j in range(sic.n)]
    table = born_probabilities(state.rho, alice, bob, pairs)
    oracle = [np.trace(state.rho @ np.kron(alice[i], bob[j])).real
              for i, j in pairs]
    assert np.allclose(table, oracle, rtol=0.0, atol=1e-12)


@PROPERTY_SETTINGS
@given(ray_sets(), _seeds, _ranks)
def test_bell_operator_trace_is_bell_value(sic, seed, rank):
    state = mixed_state(sic.dimension, seed, min(rank, sic.dimension ** 2))
    beta, _ = bell_value(sic, state)
    traced = np.trace(state.rho @ bell_operator(sic)).real
    assert abs(traced - beta) <= 1e-10


@PROPERTY_SETTINGS
@given(ray_sets())
def test_state_ceiling_is_top_eigenvalue(sic):
    op = bell_operator(sic)
    res = state_ceiling(op)
    assert abs(res.value - np.linalg.eigvalsh(op)[-1]) <= 1e-9
    assert 0.0 <= res.gap <= 1e-6
    assert res.value <= res.dual_bound
    assert abs(np.trace(res.state).real - 1.0) <= 1e-12
    assert abs(np.trace(res.state @ op).real - res.value) <= 1e-9


@PROPERTY_SETTINGS
@given(ray_sets())
def test_exact_and_float_edges_agree(sic):
    fv = sic.float_vectors()
    floating = tuple(pair for pair in combinations(range(sic.n), 2)
                     if abs(np.vdot(fv[pair[0]], fv[pair[1]])) < 1e-9)
    assert floating == sic.graph.edges
    checks = {c.name: c.passed for c in verify_set(sic).checks}
    assert checks["exact_float_agreement"]


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
        all(x.is_zero() for x in v) for v in vectors]
    top = max(max(abs(x.a), abs(x.b)) for v in vectors for x in v)
    expected = np.int64 if 4 * sic.dimension * top**2 < 2**62 else object
    event(f"gram dtype {expected.__name__}")
    assert gram(vectors)[0].dtype == expected


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
@given(ray_sets())
def test_ideal_value_is_below_the_ceiling(sic):
    beta_ideal, _ = bell_value(sic, max_entangled_state(sic.dimension))
    ceiling = state_ceiling(bell_operator(sic))
    assert beta_ideal <= ceiling.value + ceiling.gap


@PROPERTY_SETTINGS
@given(ray_sets())
def test_independence_number_is_below_theta_graph(sic):
    alpha, _ = max_weight_independent_set(sic.graph)
    theta = solve_theta(sic.graph)
    assert alpha <= theta.value + theta.gap


_CONFIG_KEYS = ["set", "visibility", "crosstalk", "spectrum_width", "spectrum",
                "pair_rate", "integration_time", "seed", "bootstrap_replicates"]
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


@PROPERTY_SETTINGS
@given(st.sampled_from(_CONFIG_KEYS), _config_values)
@example("set", 5)
@example("set", True)
def test_fuzzed_config_exits_cleanly(key, value):
    config = {"set": "yo13", "bootstrap_replicates": 100, key: value}
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        for command in ("predict", "simulate"):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([command, "--config", path, "--out", out])
            assert code in (0, 1)
            if code == 1:
                text = err.getvalue()
                assert text.startswith("error:") and text.count("\n") == 1
                assert text.endswith("\n")
