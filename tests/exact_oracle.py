"""Exact oracles for the tests, independent of the routes the package
uses.

``loop_edges`` decides orthogonality one pair at a time through
:func:`sicbell.exact.inner_product`, not the integer Gram product;
``projector_sum_equals`` sums rank-1 projectors with Fraction
coefficients; ``branch_and_bound_mwis`` is a maximum-weight independent
set search with a greedy warm start, weight-sum pruning and an explicit
lexicographic tie test, not the clique-cover search; ``is_psd`` decides
positive semidefiniteness by LDL^T elimination over ``Fraction``, not by
a floating-point eigensolver; ``colorable_by_enumeration`` tries every
0/1 assignment of the context members, not an independent set search.
``validate_state`` checks that a matrix is a density matrix on a d x d
joint system: its shape, Hermiticity, unit trace and no negative
eigenvalue.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from sicbell.exact import ZERO, ExactScalar, inner_product, vector_norm_sq


def loop_edges(vectors) -> tuple[tuple[int, int], ...]:
    """Every pair (i, j), i < j, with exact inner product zero."""
    return tuple((i, j) for i, j in combinations(range(len(vectors)), 2)
                 if inner_product(vectors[i], vectors[j]).is_zero())


def projector_sum_equals(vectors, scale: Fraction) -> bool:
    """Check sum_i |v_i><v_i| / |v_i|^2 == scale * I, exactly.

    Works in rational w-coordinates (ExactScalar with Fraction
    coefficients), so there is no tolerance to tune.
    """
    if not vectors:
        return False
    d = len(vectors[0])
    total = [[ZERO] * d for _ in range(d)]
    for v in vectors:
        ns = vector_norm_sq(v)
        if ns == 0:
            return False
        for r in range(d):
            for c in range(d):
                # (|v><v|)_{rc} = v_r * conj(v_c)
                p = v[r] * v[c].conjugate()
                total[r][c] += ExactScalar(Fraction(p.a, ns), Fraction(p.b, ns))
    return all(total[r][c] == ExactScalar(scale if r == c else 0, 0)
               for r in range(d) for c in range(d))


def branch_and_bound_mwis(graph):
    """``(value, witness)`` of a maximum-weight independent set, the
    witness being the lexicographically smallest optimal vertex tuple.

    Pruning is strict so weight ties survive long enough for the
    lexicographic rule.
    """
    n = graph.n
    if n == 0:
        return 0, ()
    w = list(graph.weights)
    adj = [0] * n
    for i, j in graph.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    # greedy warm start: repeatedly take the densest weight-per-blocked-vertex pick
    cand = (1 << n) - 1
    greedy = []
    while cand:
        members = list(bits(cand))
        v = max(members, key=lambda b: (w[b] / (bin(cand & adj[b]).count("1") + 1), -b))
        greedy.append(v)
        cand &= ~(adj[v] | (1 << v))
    best_set = tuple(sorted(greedy))
    best_w = sum(w[v] for v in greedy)

    def rec(cand, cur_w, cur, rest):
        nonlocal best_w, best_set
        if cand == 0:
            if cur_w > best_w or (cur_w == best_w and tuple(cur) < best_set):
                best_w = cur_w
                best_set = tuple(cur)
            return
        if cur_w + rest < best_w:
            return
        v = (cand & -cand).bit_length() - 1
        drop = cand & (adj[v] | (1 << v))
        lost = sum(w[u] for u in bits(drop))
        cur.append(v)
        rec(cand & ~drop, cur_w + w[v], cur, rest - lost)
        cur.pop()
        rec(cand & ~(1 << v), cur_w, cur, rest - w[v])

    rec((1 << n) - 1, 0, [], sum(w))
    return best_w, best_set


def is_coloring(graph, contexts, ones) -> bool:
    """Whether the vertices ``ones`` are pairwise non-adjacent in
    ``graph`` and meet each context in exactly one vertex."""
    chosen = set(ones)
    return (not any(i in chosen and j in chosen for i, j in graph.edges)
            and all(len(chosen & set(ctx)) == 1 for ctx in contexts))


def colorable_by_enumeration(graph, contexts) -> bool:
    """Whether some subset of the context members is a colouring in
    the sense of :func:`is_coloring`; tries all of them."""
    members = sorted({v for ctx in contexts for v in ctx})
    return any(is_coloring(graph, contexts, ones)
               for size in range(len(members) + 1)
               for ones in combinations(members, size))


def is_psd(matrix) -> bool:
    """Whether a symmetric matrix is positive semidefinite, exactly.

    The lower triangle's entries (floats or rationals) convert to
    Fractions without rounding, and LDL^T elimination runs on them: a
    negative pivot is a negative direction; a zero pivot is allowed only
    with the rest of its column zero, since a PSD matrix with a zero
    diagonal entry is zero on that row and column, and the step is
    skipped.
    """
    n = len(matrix)
    a = [[Fraction(matrix[i][j]) for j in range(i + 1)] for i in range(n)]
    for k in range(n):
        pivot = a[k][k]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(a[i][k] for i in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            ratio = a[i][k] / pivot
            if ratio:
                row = a[i]
                for j in range(k + 1, i + 1):
                    row[j] -= ratio * a[j][k]
    return True


def validate_state(rho, d: int) -> None:
    """Raise ValueError unless rho is a density matrix on a d x d system."""
    if np.shape(rho) != (d * d, d * d):
        raise ValueError(f"state matrix must be {d * d} x {d * d}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-12:
        raise ValueError("state trace is not 1")
    if float(np.linalg.eigvalsh(rho)[0]) < -1e-10:
        raise ValueError("state has a negative eigenvalue")
