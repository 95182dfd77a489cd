"""Catalog of state-independent contextuality sets and their graphs.

Ships three built-in sets, each defined only by its bundled
``data/<name>.json`` file and decoded by :func:`from_json_dict`, like
any custom set:

* ``yo13``: 13 rays in d=3, integer entries, no contexts; weight 2 on the
  four rays of orthogonality-degree 3, weight 3 elsewhere.
* ``ks18``: 18 vectors in d=4 forming 9 orthonormal contexts, every
  vector in exactly two contexts, unit weights.
* ``ks21``: 21 vectors in d=6 forming 7 orthonormal contexts, every
  vector in exactly two contexts, unit weights.  Entries are cube roots
  of unity; each of the 15 non-basis vectors vanishes on two
  coordinates, and within a context the entrywise exponent differences
  cover all residues mod 3, which forces the inner products to zero.
  The cube roots 1, w^2 and w^4 are stored as the pairs (1, 0), (-1, 1)
  and (0, -1).

A set's entries are unpacked once, into integer coordinates
(:func:`sicbell.exact.coordinates`).  Their integer Gram product
(:func:`sicbell.exact.gram`) decides orthogonality exactly; floating
point enters only in the unit vectors, scaled by its diagonal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from pathlib import Path
from typing import Optional

import numpy as np

from . import exact
from .exact import OMEGA, ExactScalar

ExactVector = tuple[ExactScalar, ...]


@dataclass(frozen=True)
class SicSet:
    """A labeled set of rays with weights and optional measurement contexts.

    Vectors are stored unnormalized, to be normalized on floating conversion.
    ``expected_edges`` is a structural signature used by :func:`verify_set`
    to detect corrupted entries.
    """

    name: str
    dimension: int
    vectors: tuple[ExactVector, ...]
    weights: tuple[int, ...]
    contexts: Optional[tuple[tuple[int, ...], ...]] = None
    expected_edges: Optional[int] = None

    @property
    def n(self) -> int:
        return len(self.vectors)

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Read-only (2, n, d) integer array [A, B] of the entries
        a + b*w, unpacked once (:func:`sicbell.exact.coordinates`)."""
        coords = exact.coordinates(self.vectors)
        coords.setflags(write=False)
        return coords

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        """Every <v_i|v_j> as two read-only (n, n) integer arrays
        ``(re, w)`` (:func:`sicbell.exact.gram`)."""
        products = exact.gram(*self.coordinates)
        for array in products:
            array.setflags(write=False)
        return products

    @cached_property
    def orthogonal(self) -> np.ndarray:
        """Read-only (n, n) mask of the exactly vanishing inner products;
        the diagonal marks the zero vectors."""
        re, w = self.gram
        mask = (re == 0) & (w == 0)
        mask.setflags(write=False)
        return mask

    @cached_property
    def unit_vectors(self) -> np.ndarray:
        """The rays scaled to unit norm, a read-only (n, d) complex array:
        (A + B*w) / sqrt(<v_i|v_i>), the squared norms being the real
        diagonal of the Gram product."""
        a, b = self.coordinates
        norms = np.diagonal(self.gram[0])
        # math.sqrt: np.sqrt has no loop for the exact ints of dtype=object
        roots = (np.array([math.sqrt(x) for x in norms]) if norms.dtype == object
                 else np.sqrt(norms))
        vecs = (a + b * OMEGA).astype(complex) / roots[:, None]
        vecs.setflags(write=False)
        return vecs

    @cached_property
    def graph(self) -> "WeightedGraph":
        """The exact orthogonality graph, built on first use."""
        return orthogonality_graph(self)

    @cached_property
    def settings(self) -> tuple[tuple[int, int], ...]:
        """Every measurement setting of the inequality, in canonical order:
        diagonals, then both orientations of each edge of :attr:`graph`,
        in its order."""
        return tuple([(i, i) for i in range(self.n)] + [
            s for i, j in self.graph.edges for s in ((i, j), (j, i))])

    @cached_property
    def coefficient_matrix(self) -> np.ndarray:
        """The signed weights as a read-only (n, n) array C: w_i on the
        diagonal, -max(w_i, w_j)/2 on an edge (i, j), 0 elsewhere.  Read
        off :attr:`orthogonal`; the graph checks the weights first."""
        w = np.array(self.graph.weights, dtype=float)
        coeffs = np.where(self.orthogonal, np.maximum.outer(w, w) / -2.0, 0.0)
        coeffs[np.diag_indices(self.n)] = w
        coeffs.setflags(write=False)
        return coeffs

    @cached_property
    def coefficients(self) -> np.ndarray:
        """:attr:`coefficient_matrix` at each setting, aligned with
        :attr:`settings`: the diagonal, then each graph edge's entry twice."""
        matrix, edges = self.coefficient_matrix, self.graph.edges
        on_edges = matrix[[i for i, _ in edges], [j for _, j in edges]]
        coeffs = np.concatenate([np.diagonal(matrix), np.repeat(on_edges, 2)])
        coeffs.setflags(write=False)
        return coeffs

    @cached_property
    def ideal_probabilities(self) -> np.ndarray:
        """Click probability of each setting in the ideal experiment,
        aligned with :attr:`settings`.  The maximally entangled state
        measured with conjugate projectors clicks on (i, j) with
        probability |<v_i|v_j>|^2 / d: 1/d on a diagonal, and exactly 0
        on an edge, whose rays are exactly orthogonal."""
        probs = np.zeros(len(self.settings))
        probs[:self.n] = 1.0 / self.dimension
        probs.setflags(write=False)
        return probs

    @cached_property
    def projectors(self) -> np.ndarray:
        """The rank-1 projectors onto the rays, a read-only (n, d, d)
        stack.  The other arm's family is its entrywise conjugate, formed
        only in :func:`sicbell.quantum.block_operator`."""
        vecs = self.unit_vectors
        stack = np.einsum("ia,ib->iab", vecs, vecs.conj())
        stack.setflags(write=False)
        return stack


@dataclass(frozen=True)
class WeightedGraph:
    """Vertex-weighted undirected graph: positive weights, one per vertex,
    and edges (i, j) with 0 <= i < j < n, so never one with i == j."""

    n: int
    weights: tuple
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad edge ({i}, {j}) for n={self.n}")
        if len(self.weights) != self.n:
            raise ValueError("weight count does not match vertex count")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")


# ---------------------------------------------------------------------------
# The built-in sets: the bundled data/<name>.json files
# ---------------------------------------------------------------------------

_DATA = Path(__file__).with_name("data")
_CATALOG_NAMES = ("ks18", "ks21", "yo13")


def catalog_names() -> tuple[str, ...]:
    return _CATALOG_NAMES


def get_set(name: str) -> SicSet:
    """Look up a built-in set by name and decode its bundled definition."""
    if name not in _CATALOG_NAMES:
        raise KeyError(f"unknown set {name!r}; built-ins: {', '.join(_CATALOG_NAMES)}")
    return from_json_dict(json.loads((_DATA / f"{name}.json").read_bytes()))


# ---------------------------------------------------------------------------
# Graph construction and structural checks
# ---------------------------------------------------------------------------

def orthogonality_graph(sic: SicSet) -> WeightedGraph:
    """Graph with an edge wherever two rays have exact inner product zero,
    the edges in row-major order."""
    rows, cols = np.nonzero(sic.orthogonal)
    upper = rows < cols
    return WeightedGraph(sic.n, sic.weights,
                         tuple(zip(rows[upper].tolist(), cols[upper].tolist())))


# states and Bell operators are (d^2, d^2) arrays: 1024 x 1024 at most
_MAX_DIMENSION = 32


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

    # a + b*w = 0 only when a = b = 0
    nonzero = all(any(x.a or x.b for x in v) for v in sic.vectors)
    checks.append(CheckResult("nonzero_vectors", nonzero))

    capped = sic.dimension <= _MAX_DIMENSION
    dims_ok = capped and all(len(v) == sic.dimension for v in sic.vectors)
    checks.append(CheckResult(
        "vector_dimension", dims_ok, f"d={sic.dimension}, n={sic.n}"
        + ("" if capped else f", above the cap of d={_MAX_DIMENSION}")))

    weights_ok = len(sic.weights) == sic.n and all(w > 0 for w in sic.weights)
    checks.append(CheckResult("positive_weights", weights_ok))

    if sic.contexts is not None:
        in_range = all(0 <= v < sic.n for ctx in sic.contexts for v in ctx)
        sized = all(len(ctx) == sic.dimension for ctx in sic.contexts)
        checks.append(CheckResult("context_shape", in_range and sized,
                                  f"{len(sic.contexts)} contexts of size {sic.dimension}"))
        # the exact checks below need well-sized vectors; a wrong length
        # is already reported by vector_dimension
        usable = in_range and dims_ok
        bad, ident = "", False
        if usable:
            pairs = np.array([p for ctx in sic.contexts for p in combinations(ctx, 2)],
                             dtype=int).reshape(-1, 2)
            failing = pairs[~sic.orthogonal[pairs[:, 0], pairs[:, 1]]]
            if len(failing):
                bad = "vectors {} and {} not orthogonal".format(*failing[0])
            # d pairwise-orthogonal nonzero vectors in C^d resolve the identity
            members = [v for ctx in sic.contexts for v in ctx]
            ident = sized and not bad and not sic.orthogonal[members, members].any()
        checks.append(CheckResult("context_orthogonality", usable and not bad, bad))
        checks.append(CheckResult("context_identity", bool(ident)))

    if nonzero and dims_ok and weights_ok:
        graph = sic.graph
        if sic.expected_edges is not None:
            checks.append(CheckResult(
                "edge_count", len(graph.edges) == sic.expected_edges,
                f"found {len(graph.edges)}, expected {sic.expected_edges}"))
        # float classification must agree with the exact one
        fv = sic.unit_vectors
        floating = np.abs(fv.conj() @ fv.T) < 1e-9
        checks.append(CheckResult("exact_float_agreement",
                                  bool(np.array_equal(sic.orthogonal, floating))))

    return ValidationReport(sic.name, tuple(checks))


# ---------------------------------------------------------------------------
# JSON set-definition format
# ---------------------------------------------------------------------------

def _json_int(value, field: str) -> int:
    """A JSON integer, taken as it is: a bool, a string or a float, even
    a whole one, is refused rather than truncated."""
    if type(value) is not int:
        raise TypeError(f"{field} must be a JSON integer, not {value!r}")
    return value


def _set_name(value) -> str:
    """A set's name goes into artifact file names: a non-empty string
    with no path separator and no NUL."""
    if type(value) is not str or not value or any(c in value for c in "/\\\0"):
        raise ValueError("name must be a non-empty string without '/', '\\' "
                         f"or NUL, not {value!r}")
    return value


def from_json_dict(doc: dict) -> SicSet:
    # one shared scalar per distinct entry: ExactScalar is frozen, and the
    # entries are type-checked before the lookup, since True == 1 as a key
    scalars: dict[tuple[int, int], ExactScalar] = {}

    def scalar(a, b) -> ExactScalar:
        key = (_json_int(a, "vector entry"), _json_int(b, "vector entry"))
        value = scalars.get(key)
        if value is None:
            value = scalars[key] = ExactScalar(*key)
        return value

    try:
        vectors = tuple(tuple(scalar(a, b) for a, b in vec) for vec in doc["vectors"])
        if not vectors:
            raise ValueError("a set needs at least one vector")
        contexts = doc.get("contexts")
        return SicSet(
            name=_set_name(doc["name"]),
            dimension=_json_int(doc["dimension"], "dimension"),
            vectors=vectors,
            weights=tuple(_json_int(w, "weight") for w in doc["weights"]),
            contexts=None if contexts is None else tuple(
                tuple(_json_int(v, "context index") for v in c) for c in contexts),
            expected_edges=(_json_int(doc["expected_edges"], "expected_edges")
                            if "expected_edges" in doc else None),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed set definition: {exc}") from exc


def load_set(path) -> SicSet:
    with open(path, encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))

