import json
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from sicbell.catalog import (
    ExactScalar,
    SicSet,
    WeightedGraph,
    bell_coefficients,
    bell_settings,
    build_ks18,
    build_ks21,
    build_yo13,
    catalog_names,
    from_json_dict,
    get_set,
    ks_colorable,
    load_set,
    orthogonality_graph,
    save_set,
    to_json_dict,
    verify_set,
)
from sicbell.exact import from_int, inner_product

from exact_oracle import projector_sum_equals


def test_catalog_names_and_lookup():
    assert catalog_names() == ("ks18", "ks21", "yo13")
    for name in catalog_names():
        s = get_set(name)
        assert s.name == name
        assert len(s.vectors) == s.n == len(s.weights)
    with pytest.raises(KeyError):
        get_set("nope")


def test_yo13_shape_and_edges():
    s = build_yo13()
    assert s.n == 13 and s.dimension == 3
    assert s.contexts is None
    g = orthogonality_graph(s)
    # count by brute inspection of every pair, independently of the graph code
    manual = sum(
        1 for i, j in combinations(range(13), 2)
        if inner_product(s.vectors[i], s.vectors[j]).is_zero()
    )
    assert manual == 24 == len(g.edges)
    # the weight-2 rays are exactly the degree-3 vertices
    deg = Counter()
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    for v in range(13):
        assert deg[v] in (3, 4)
        assert s.weights[v] == (2 if deg[v] == 3 else 3)
    assert sum(s.weights) == 35


def test_yo13_projector_resolution():
    # the thirteen unnormalized projectors sum to 13/3 of the identity
    s = build_yo13()
    assert projector_sum_equals(list(s.vectors), Fraction(13, 3))


def test_ks18_structure():
    s = build_ks18()
    assert s.n == 18 and s.dimension == 4
    assert len(s.contexts) == 9
    counts = Counter(v for ctx in s.contexts for v in ctx)
    assert set(counts.values()) == {2}
    g = orthogonality_graph(s)
    assert len(g.edges) == 63
    rep = verify_set(s)
    assert rep.ok, rep.failures()


def test_ks21_structure():
    s = build_ks21()
    assert s.n == 21 and s.dimension == 6
    assert len(s.contexts) == 7
    counts = Counter(v for ctx in s.contexts for v in ctx)
    assert set(counts.values()) == {2}
    g = orthogonality_graph(s)
    assert len(g.edges) == 105
    # every edge lies inside some context: the graph carries no accidental pairs
    within = set()
    for ctx in s.contexts:
        within.update(tuple(sorted(p)) for p in combinations(ctx, 2))
    assert set(g.edges) == within
    rep = verify_set(s)
    assert rep.ok, rep.failures()


def test_ks21_is_triangular_graph():
    # vertices biject with the 21 pairs of a 7-element context list so that
    # adjacency is exactly "the pairs intersect"
    s = build_ks21()
    membership = {v: [] for v in range(s.n)}
    for k, ctx in enumerate(s.contexts):
        for v in ctx:
            membership[v].append(k)
    pair_of = {v: tuple(membership[v]) for v in range(s.n)}
    assert len(set(pair_of.values())) == 21
    g = orthogonality_graph(s)
    for i, j in combinations(range(s.n), 2):
        meets = bool(set(pair_of[i]) & set(pair_of[j]))
        assert ((i, j) in set(g.edges)) == meets


@pytest.mark.parametrize("name", ["ks18", "ks21"])
def test_parity_sets_not_colorable(name):
    s = get_set(name)
    g = orthogonality_graph(s)
    ok, witness = ks_colorable(g, s.contexts)
    assert not ok and witness is None


def test_single_basis_is_colorable():
    # control: one orthonormal basis alone always admits an assignment
    basis = tuple(tuple(from_int(1 if i == j else 0) for j in range(4)) for i in range(4))
    s = SicSet(name="basis4", dimension=4, vectors=basis, weights=(1,) * 4,
               contexts=((0, 1, 2, 3),))
    g = orthogonality_graph(s)
    ok, witness = ks_colorable(g, s.contexts)
    assert ok
    assert len(witness) == 1 and witness[0] in range(4)


def test_ks_colorable_rejects_bad_context():
    g = WeightedGraph(3, (1, 1, 1), ((0, 1),))
    with pytest.raises(ValueError):
        ks_colorable(g, [(0, 5)])


def test_graph_property_is_built_once():
    s = get_set("ks18")
    assert s.graph is s.graph
    assert s.graph == orthogonality_graph(s)


def test_bell_layout_is_cached_and_read_only():
    s = get_set("yo13")
    assert s.settings is s.settings
    assert list(s.settings) == bell_settings(s.n, s.graph.edges)
    assert s.coefficients is s.coefficients
    assert np.array_equal(s.coefficients, bell_coefficients(s.weights, s.graph.edges))
    with pytest.raises(ValueError):
        s.coefficients[0] = 0.0


def test_verify_set_passes_builtin():
    for name in catalog_names():
        rep = verify_set(get_set(name))
        assert rep.ok, (name, rep.failures())
        assert rep.set_name == name


def test_verify_set_flags_corruption():
    s = build_yo13()
    vecs = list(s.vectors)
    row = list(vecs[3])
    assert row[1] == from_int(1)
    row[1] = from_int(2)
    vecs[3] = tuple(row)
    bad = SicSet(name=s.name, dimension=s.dimension, vectors=tuple(vecs),
                 weights=s.weights, contexts=None, expected_edges=s.expected_edges)
    rep = verify_set(bad)
    assert not rep.ok
    assert any(c.name == "edge_count" for c in rep.failures())


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(3, (1, 1, 1), ((1, 1),))
    with pytest.raises(ValueError):
        WeightedGraph(3, (1, 1, 1), ((2, 1),))
    with pytest.raises(ValueError):
        WeightedGraph(2, (1, 0), ())


def test_json_round_trip(tmp_path):
    for name in catalog_names():
        s = get_set(name)
        doc = to_json_dict(s)
        back = from_json_dict(json.loads(json.dumps(doc)))
        assert back.vectors == s.vectors
        assert back.weights == s.weights
        assert back.contexts == s.contexts
        path = tmp_path / f"{name}.json"
        save_set(s, path)
        again = load_set(path)
        assert again.vectors == s.vectors
        assert verify_set(again).ok


def test_json_entries_are_ring_pairs():
    doc = to_json_dict(build_ks21())
    # sixth-root coefficients: entry [a, b] means a + b*omega
    flat = {tuple(e) for vec in doc["vectors"] for e in vec}
    assert (1, 0) in flat and (-1, 1) in flat and (0, -1) in flat


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        from_json_dict({"name": "x", "dimension": 2, "vectors": "oops", "weights": [1]})


def test_scaling_leaves_graph_alone():
    # doubling a ray must not change the edge set
    s = build_yo13()
    vecs = list(s.vectors)
    vecs[0] = tuple(x * ExactScalar(2, 0) for x in vecs[0])
    scaled = SicSet(name="scaled", dimension=3, vectors=tuple(vecs),
                    weights=s.weights)
    assert orthogonality_graph(scaled).edges == orthogonality_graph(s).edges


def test_float_vectors_unit_norm():
    for name in catalog_names():
        for arr in get_set(name).float_vectors():
            assert abs(np.linalg.norm(arr) - 1.0) < 1e-12


def test_bundled_data_files_match_builders():
    from importlib import resources

    base = resources.files("sicbell") / "data"
    for name in catalog_names():
        doc = json.loads((base / f"{name}.json").read_text())
        sic = from_json_dict(doc)
        assert sic == get_set(name)
        assert verify_set(sic).ok
