"""Property tests over random Z[w] ray sets and random mixed states.

Each property compares the one-contraction quantum layer against an
independent route: the single-pair Kronecker oracle, the trace of the
Bell operator, a dense eigensolver, and pairwise float inner products.
"""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sicbell.bounds import state_ceiling
from sicbell.catalog import SicSet, verify_set
from sicbell.exact import ONE, ZERO, ExactScalar
from sicbell.noise import measurement_effects
from sicbell.quantum import (
    BipartiteState,
    bell_operator,
    bell_value,
    born_probabilities,
    joint_probability,
    ray_projectors,
)

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
    alice = ray_projectors(sic)
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
