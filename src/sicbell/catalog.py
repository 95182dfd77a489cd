"""Catalog of state-independent contextuality sets and their graphs.

Ships three built-in sets:

* ``yo13``: 13 rays in d=3, integer entries, no contexts; weight 2 on the
  four rays of orthogonality-degree 3, weight 3 elsewhere.
* ``ks18``: 18 vectors in d=4 forming 9 orthonormal contexts, every
  vector in exactly two contexts, unit weights.
* ``ks21``: 21 vectors in d=6 forming 7 orthonormal contexts, every
  vector in exactly two contexts, unit weights.  Entries are cube roots
  of unity; each of the 15 non-basis vectors vanishes on two
  coordinates, and within a context the entrywise exponent differences
  cover all residues mod 3, which forces the inner products to zero.

Orthogonality is always decided in exact arithmetic; floating point
enters only when vectors are normalized for quantum predictions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .exact import (
    ExactScalar,
    cube_root_power,
    from_int,
    inner_product,
    projector_sum_equals,
    to_complex_vector,
    vector_norm_sq,
)

ExactVector = tuple[ExactScalar, ...]


@dataclass(frozen=True)
class SicSet:
    """A labeled set of rays with weights and optional measurement contexts.

    Vectors are stored unnormalized; ``norm_sq`` records the exact squared
    norms so normalization can be deferred to floating conversion.
    ``expected_edges`` is a structural signature used by :func:`verify_set`
    to detect corrupted entries.
    """

    name: str
    dimension: int
    vectors: tuple[ExactVector, ...]
    weights: tuple[int, ...]
    contexts: Optional[tuple[tuple[int, ...], ...]] = None
    expected_edges: Optional[int] = None
    labels: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(1, len(self.vectors) + 1)))

    @property
    def n(self) -> int:
        return len(self.vectors)

    @cached_property
    def graph(self) -> "WeightedGraph":
        """The exact orthogonality graph, built on first use."""
        return orthogonality_graph(self)

    @property
    def norm_sq(self) -> tuple[int, ...]:
        return tuple(vector_norm_sq(v) for v in self.vectors)

    def float_vectors(self) -> list[np.ndarray]:
        """Unit-norm complex vectors, one per ray."""
        out = []
        for v in self.vectors:
            arr = np.array(to_complex_vector(v), dtype=complex)
            out.append(arr / np.sqrt(vector_norm_sq(v)))
        return out


@dataclass(frozen=True)
class WeightedGraph:
    """Vertex-weighted undirected graph; edges stored as sorted index pairs."""

    n: int
    weights: tuple
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad edge ({i}, {j}) for n={self.n}")
        if len(self.weights) != self.n:
            raise ValueError("weight count does not match vertex count")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")

    def adjacency(self) -> list[set]:
        adj = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def without_edge(self, edge: tuple[int, int]) -> "WeightedGraph":
        e = (min(edge), max(edge))
        return WeightedGraph(self.n, self.weights, tuple(x for x in self.edges if x != e))


# ---------------------------------------------------------------------------
# Built-in set tables
# ---------------------------------------------------------------------------

_YO13_ROWS = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),           # basis rays, weight 3
    (0, 1, -1), (1, 0, -1), (1, -1, 0),        # difference rays, weight 3
    (0, 1, 1), (1, 0, 1), (1, 1, 0),           # sum rays, weight 3
    (1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1),  # diagonal rays, weight 2
]
_YO13_WEIGHTS = (3,) * 9 + (2,) * 4

_KS18_ROWS = [
    (0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0),
    (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0),
    (1, -1, 1, -1), (1, -1, -1, 1), (0, 0, 1, 1),
    (1, 1, 1, 1), (0, 1, 0, -1),
    (1, 0, 0, 1), (1, 0, 0, -1), (0, 1, -1, 0),
    (1, 1, -1, 1), (1, 1, 1, -1), (-1, 1, 1, 1),
]
_KS18_CONTEXTS = (
    (0, 1, 2, 3), (0, 4, 5, 6), (7, 8, 2, 9),
    (7, 10, 6, 11), (1, 4, 12, 13), (8, 10, 13, 14),
    (15, 16, 3, 9), (15, 17, 5, 11), (16, 17, 12, 14),
)

# KS21 pair vectors: coordinate -> cube-root exponent; missing coordinates
# are the two zero entries of the pair.
_KS21_PAIR_EXPONENTS = {
    (0, 1): {2: 0, 3: 0, 4: 0, 5: 0},
    (0, 2): {1: 0, 3: 0, 4: 1, 5: 2},
    (0, 3): {1: 0, 2: 0, 4: 2, 5: 1},
    (0, 4): {1: 0, 2: 1, 3: 2, 5: 0},
    (0, 5): {1: 0, 2: 2, 3: 1, 4: 0},
    (1, 2): {0: 0, 3: 0, 4: 2, 5: 1},
    (1, 3): {0: 0, 2: 0, 4: 1, 5: 2},
    (1, 4): {0: 0, 2: 2, 3: 1, 5: 0},
    (1, 5): {0: 0, 2: 1, 3: 2, 4: 0},
    (2, 3): {0: 0, 1: 0, 4: 0, 5: 0},
    (2, 4): {0: 0, 1: 1, 3: 2, 5: 2},
    (2, 5): {0: 0, 1: 2, 3: 1, 4: 1},
    (3, 4): {0: 0, 1: 2, 2: 1, 5: 1},
    (3, 5): {0: 0, 1: 1, 2: 2, 4: 2},
    (4, 5): {0: 0, 1: 0, 2: 0, 3: 0},
}


def _int_vector(row: Sequence[int]) -> ExactVector:
    return tuple(from_int(k) for k in row)


def build_yo13() -> SicSet:
    """The 13-ray set in dimension 3 with the gap-maximizing 3/2 weights."""
    return SicSet(
        name="yo13",
        dimension=3,
        vectors=tuple(_int_vector(r) for r in _YO13_ROWS),
        weights=_YO13_WEIGHTS,
        contexts=None,
        expected_edges=24,
    )


def build_ks18() -> SicSet:
    """The 18-vector, nine-context set in dimension 4, unit weights."""
    return SicSet(
        name="ks18",
        dimension=4,
        vectors=tuple(_int_vector(r) for r in _KS18_ROWS),
        weights=(1,) * 18,
        contexts=_KS18_CONTEXTS,
        expected_edges=63,
    )


def build_ks21() -> SicSet:
    """The 21-vector, seven-context set in dimension 6, unit weights."""
    vectors: list[ExactVector] = []
    zero = from_int(0)
    for m in range(6):
        vectors.append(tuple(from_int(1 if k == m else 0) for k in range(6)))
    pairs = list(combinations(range(6), 2))
    for p in pairs:
        exps = _KS21_PAIR_EXPONENTS[p]
        vectors.append(tuple(
            cube_root_power(exps[m]) if m in exps else zero for m in range(6)
        ))
    pair_index = {p: 6 + k for k, p in enumerate(pairs)}
    contexts = []
    for i in range(6):
        ctx = [i] + [pair_index[tuple(sorted((i, j)))] for j in range(6) if j != i]
        contexts.append(tuple(sorted(ctx)))
    contexts.append(tuple(range(6)))
    return SicSet(
        name="ks21",
        dimension=6,
        vectors=tuple(vectors),
        weights=(1,) * 21,
        contexts=tuple(contexts),
        expected_edges=105,
    )


_BUILDERS = {"yo13": build_yo13, "ks18": build_ks18, "ks21": build_ks21}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def get_set(name: str) -> SicSet:
    """Look up a built-in set by name."""
    try:
        return _BUILDERS[name.lower()]()
    except KeyError:
        raise KeyError(f"unknown set {name!r}; built-ins: {', '.join(catalog_names())}")


# ---------------------------------------------------------------------------
# Graph construction and structural checks
# ---------------------------------------------------------------------------

def orthogonality_graph(sic: SicSet) -> WeightedGraph:
    """Graph with an edge wherever two rays have exact inner product zero."""
    edges = []
    for i, j in combinations(range(sic.n), 2):
        if inner_product(sic.vectors[i], sic.vectors[j]).is_zero():
            edges.append((i, j))
    return WeightedGraph(sic.n, sic.weights, tuple(edges))


def ks_colorable(graph: WeightedGraph, contexts) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Search for a {0,1} vertex assignment with exactly one 1 per context
    and no two adjacent 1s.

    Exhaustive backtracking over contexts in the given order; deterministic.
    Returns ``(True, chosen_vertices)`` or ``(False, None)``.
    """
    contexts = [tuple(c) for c in contexts]
    for ctx in contexts:
        for v in ctx:
            if not (0 <= v < graph.n):
                raise ValueError(f"context vertex {v} out of range for n={graph.n}")
    adj = graph.adjacency()
    UNKNOWN, ONE, IS_ZERO = 0, 1, 2
    state = [UNKNOWN] * graph.n

    def place(k: int) -> bool:
        if k == len(contexts):
            return True
        ctx = contexts[k]
        if any(state[v] == ONE for v in ctx):
            return place(k + 1)
        for v in ctx:
            if state[v] == IS_ZERO:
                continue
            touched = []
            state[v] = ONE
            touched.append(v)
            ok = True
            for u in adj[v]:
                if state[u] == ONE:
                    ok = False
                    break
                if state[u] == UNKNOWN:
                    state[u] = IS_ZERO
                    touched.append(u)
            if ok and place(k + 1):
                return True
            for u in touched:
                state[u] = UNKNOWN
        return False

    if place(0):
        witness = tuple(v for v in range(graph.n) if state[v] == ONE)
        return True, witness
    return False, None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    set_name: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def verify_set(sic: SicSet) -> ValidationReport:
    """Run every structural invariant of a set and itemize the results."""
    checks: list[CheckResult] = []

    nonzero = all(vector_norm_sq(v) > 0 for v in sic.vectors)
    checks.append(CheckResult("nonzero_vectors", nonzero))

    dims_ok = all(len(v) == sic.dimension for v in sic.vectors)
    checks.append(CheckResult("vector_dimension", dims_ok,
                              f"d={sic.dimension}, n={sic.n}"))

    checks.append(CheckResult("positive_weights",
                              len(sic.weights) == sic.n and all(w > 0 for w in sic.weights)))

    if sic.contexts is not None:
        in_range = all(0 <= v < sic.n for ctx in sic.contexts for v in ctx)
        sized = all(len(ctx) == sic.dimension for ctx in sic.contexts)
        checks.append(CheckResult("context_shape", in_range and sized,
                                  f"{len(sic.contexts)} contexts of size {sic.dimension}"))
        ortho = True
        bad = ""
        if in_range:
            for ctx in sic.contexts:
                for a, b in combinations(ctx, 2):
                    if not inner_product(sic.vectors[a], sic.vectors[b]).is_zero():
                        ortho = False
                        bad = f"vectors {a} and {b} not orthogonal"
                        break
                if not ortho:
                    break
        checks.append(CheckResult("context_orthogonality", in_range and ortho, bad))
        ident = in_range and all(
            projector_sum_equals([sic.vectors[v] for v in ctx], Fraction(1))
            for ctx in sic.contexts
        )
        checks.append(CheckResult("context_identity", ident))

    if nonzero and dims_ok:
        graph = sic.graph
        if sic.expected_edges is not None:
            checks.append(CheckResult(
                "edge_count", len(graph.edges) == sic.expected_edges,
                f"found {len(graph.edges)}, expected {sic.expected_edges}"))
        # float classification must agree with the exact edge set
        exact = np.zeros((sic.n, sic.n), dtype=bool)
        rows, cols = np.array(graph.edges, dtype=int).reshape(-1, 2).T
        exact[rows, cols] = exact[cols, rows] = True
        fv = np.array(sic.float_vectors()).reshape(sic.n, sic.dimension)
        floating = np.abs(fv.conj() @ fv.T) < 1e-9
        checks.append(CheckResult("exact_float_agreement",
                                  bool(np.array_equal(exact, floating))))

    return ValidationReport(sic.name, tuple(checks))


# ---------------------------------------------------------------------------
# JSON set-definition format
# ---------------------------------------------------------------------------

def to_json_dict(sic: SicSet) -> dict:
    """Serialize to the documented schema: entries as [a, b] pairs meaning a + b*w."""
    doc = {
        "name": sic.name,
        "dimension": sic.dimension,
        "vectors": [[[s.a, s.b] for s in v] for v in sic.vectors],
        "weights": list(sic.weights),
    }
    if sic.contexts is not None:
        doc["contexts"] = [list(c) for c in sic.contexts]
    if sic.expected_edges is not None:
        doc["expected_edges"] = sic.expected_edges
    return doc


def from_json_dict(doc: dict) -> SicSet:
    try:
        vectors = tuple(
            tuple(ExactScalar(int(a), int(b)) for a, b in vec) for vec in doc["vectors"]
        )
        contexts = doc.get("contexts")
        return SicSet(
            name=str(doc["name"]),
            dimension=int(doc["dimension"]),
            vectors=vectors,
            weights=tuple(int(w) for w in doc["weights"]),
            contexts=None if contexts is None else tuple(tuple(int(v) for v in c) for c in contexts),
            expected_edges=(int(doc["expected_edges"]) if "expected_edges" in doc else None),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed set definition: {exc}") from exc


def load_set(path) -> SicSet:
    with open(path, encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


def save_set(sic: SicSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(sic), fh, indent=1)
        fh.write("\n")
