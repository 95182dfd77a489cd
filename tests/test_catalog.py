import json
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import sicbell.catalog
from sicbell.catalog import (
    ExactScalar,
    SicSet,
    WeightedGraph,
    catalog_names,
    from_json_dict,
    get_set,
    load_set,
    orthogonality_graph,
    verify_set,
)
from sicbell.exact import ZERO, inner_product

from exact_oracle import ks_colorable, projector_sum_equals
from test_bounds import set_doc

DATA = Path(sicbell.catalog.__file__).with_name("data")


def bundled(name: str) -> dict:
    """A built-in set's definition, read from its bundled data file."""
    return json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))


def test_catalog_names_and_lookup():
    assert catalog_names() == ("ks18", "ks21", "yo13")
    for name in catalog_names():
        s = get_set(name)
        assert s.name == name
        assert len(s.vectors) == s.n == len(s.weights)
    # a built-in name is exactly as listed, in the library as in the CLI
    for name in ("nope", "YO13", "Ks18"):
        with pytest.raises(KeyError, match="unknown set"):
            get_set(name)


def test_yo13_shape_and_edges():
    s = get_set("yo13")
    assert s.n == 13 and s.dimension == 3
    assert s.contexts is None
    g = orthogonality_graph(s)
    # count by brute inspection of every pair, independently of the graph code
    manual = sum(
        1 for i, j in combinations(range(13), 2)
        if inner_product(s.vectors[i], s.vectors[j]) == ZERO
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
    s = get_set("yo13")
    assert projector_sum_equals(list(s.vectors), Fraction(13, 3))


def test_ks18_structure():
    s = get_set("ks18")
    assert s.n == 18 and s.dimension == 4
    assert len(s.contexts) == 9
    counts = Counter(v for ctx in s.contexts for v in ctx)
    assert set(counts.values()) == {2}
    g = orthogonality_graph(s)
    assert len(g.edges) == 63
    rep = verify_set(s)
    assert rep.ok, rep.failures()


def test_ks21_structure():
    s = get_set("ks21")
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
    s = get_set("ks21")
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
    basis = tuple(tuple(ExactScalar(int(i == j), 0) for j in range(4)) for i in range(4))
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
    edges = sorted(s.graph.edges)
    assert s.settings == tuple([(i, i) for i in range(s.n)]
                               + [p for i, j in edges for p in ((i, j), (j, i))])
    assert s.coefficients is s.coefficients
    # w_i on a diagonal, minus half the larger weight on each orientation
    expected = [float(w) for w in s.weights]
    for i, j in edges:
        expected += [-max(s.weights[i], s.weights[j]) / 2] * 2
    assert s.coefficients.tolist() == expected
    with pytest.raises(ValueError):
        s.coefficients[0] = 0.0
    assert s.coefficient_matrix is s.coefficient_matrix
    assert [s.coefficient_matrix[i, j] for i, j in s.settings] == expected
    with pytest.raises(ValueError):
        s.coefficient_matrix[0, 0] = 0.0


def test_verify_set_passes_builtin():
    for name in catalog_names():
        rep = verify_set(get_set(name))
        assert rep.ok, (name, rep.failures())
        assert rep.set_name == name


def test_verify_set_flags_corruption():
    s = get_set("yo13")
    vecs = list(s.vectors)
    row = list(vecs[3])
    assert row[1] == ExactScalar(1, 0)
    row[1] = ExactScalar(2, 0)
    vecs[3] = tuple(row)
    bad = SicSet(name=s.name, dimension=s.dimension, vectors=tuple(vecs),
                 weights=s.weights, contexts=None, expected_edges=s.expected_edges)
    rep = verify_set(bad)
    assert not rep.ok
    assert any(c.name == "edge_count" for c in rep.failures())


def test_graph_validation():
    # every edge is a pair 0 <= i < j < n, which also leaves out a
    # self-loop; each graph is refused with its own message
    for n, weights, edges, message in [
            (3, (1, 1, 1), ((1, 1),), r"bad edge \(1, 1\) for n=3"),
            (3, (1, 1, 1), ((2, 1),), r"bad edge \(2, 1\) for n=3"),
            (3, (1, 1, 1), ((0, 3),), r"bad edge \(0, 3\) for n=3"),
            (3, (1, 1), (), "weight count does not match vertex count"),
            (2, (1, 0), (), "weights must be positive")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            WeightedGraph(n, weights, edges)


def test_json_round_trip():
    # each bundled definition decodes without loss, from a dict or a file
    for name in catalog_names():
        doc = bundled(name)
        contexts = doc.get("contexts")
        for s in (from_json_dict(doc), load_set(DATA / f"{name}.json")):
            assert set_doc(s) == {key: doc[key] for key in set_doc(s)}
            assert s.contexts == (None if contexts is None
                                  else tuple(map(tuple, contexts)))
            assert s.expected_edges == doc.get("expected_edges")
            assert verify_set(s).ok


def test_json_entries_are_ring_pairs():
    doc = bundled("ks21")
    # sixth-root coefficients: entry [a, b] means a + b*omega
    flat = {tuple(e) for vec in doc["vectors"] for e in vec}
    assert (1, 0) in flat and (-1, 1) in flat and (0, -1) in flat


@pytest.mark.parametrize("twin", [[True, 0], [1.0, 0]], ids=["bool", "float"])
def test_shared_entries_keep_the_type_check(twin):
    # [1, 0] is decoded first and shared; a later [true, 0] or [1.0, 0]
    # equals its key, and must still be refused for its type
    doc = bundled("yo13")
    assert doc["vectors"][0][0] == [1, 0]
    doc["vectors"][1][1] = twin
    with pytest.raises(ValueError, match=r"^malformed set definition: vector entry "
                                         r"must be a JSON integer, not "):
        from_json_dict(doc)


@pytest.mark.parametrize("name", ["yo13_ks18", "ks18_ks21", "..", "set 1.v2"])
def test_file_safe_names_are_kept(name):
    doc = bundled("ks18")
    doc["name"] = name
    assert from_json_dict(doc).name == name


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        from_json_dict({"name": "x", "dimension": 2, "vectors": "oops", "weights": [1]})


def test_scaling_leaves_graph_alone():
    # doubling a ray must not change the edge set
    s = get_set("yo13")
    vecs = list(s.vectors)
    vecs[0] = tuple(x * ExactScalar(2, 0) for x in vecs[0])
    scaled = SicSet(name="scaled", dimension=3, vectors=tuple(vecs),
                    weights=s.weights)
    assert orthogonality_graph(scaled).edges == orthogonality_graph(s).edges


def test_unit_vectors_unit_norm():
    for name in catalog_names():
        s = get_set(name)
        assert s.unit_vectors.shape == (s.n, s.dimension)
        assert not s.unit_vectors.flags.writeable
        for arr in s.unit_vectors:
            assert abs(np.linalg.norm(arr) - 1.0) < 1e-12


def test_bundled_data_files_are_the_catalog():
    # the data files are the only copy of the built-in sets: one per
    # name, and each a valid set (test_json_round_trip decodes them)
    assert catalog_names() == tuple(sorted(p.stem for p in DATA.glob("*.json")))
    for name in catalog_names():
        sic = get_set(name)
        rep = verify_set(sic)
        assert rep.ok, (name, rep.failures())
