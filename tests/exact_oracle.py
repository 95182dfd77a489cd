"""Exact oracles for the tests, independent of the routes the package
uses.

``loop_edges`` decides orthogonality one pair at a time through
:func:`sicbell.exact.inner_product`, not the integer Gram product;
``unit_vectors`` normalises each ray one entry at a time in complex
floating point, dividing by the square root of ``norm_sq``, the exact
squared norm <v|v>, not by the Gram diagonal of the coordinate arrays;
``projector_sum_equals`` sums rank-1 projectors with Fraction
coefficients; ``branch_and_bound_mwis`` is a maximum-weight independent
set search with a greedy warm start, weight-sum pruning and an explicit
lexicographic tie test, not the clique-cover search; ``is_psd`` decides
positive semidefiniteness by LDL^T elimination over ``Fraction``, not by
a floating-point eigensolver; ``colorable_by_enumeration`` tries every
0/1 assignment of the context members, not an independent set search.
``local_bound`` is the classical bound of the Bell functional as its
best deterministic local strategy, enumerated over every 0/1 assignment
of one arm, not an independent set of the graph.
``bell_operator_exact`` builds the Bell operator over Q(w) from the
rays, their exact norms and the ``loop_edges`` graph, one Kronecker
block per ray, not the package's float product of projector rows;
``is_hermitian_psd`` is ``is_psd`` for a Hermitian matrix over Q(w),
LDL* elimination on ``ExactScalar`` entries with ``Fraction``
coordinates, and ``is_above_spectrum`` applies it to t I - op.
``poisson_lower_tail`` is P(sum_k l_k N_k <= bound) for independent
Poisson N_k, summed exactly over every group but one, times the last
group's Poisson CDF, in integer arithmetic on the levels, not a
saddle point.
``validate_state`` checks that a matrix is a density matrix on a d x d
joint system: its shape, Hermiticity, unit trace and no negative
eigenvalue.  ``model_state`` builds the noise model's (d^2, d^2) state
v |psi><psi| + (1 - v) I / d^2 with |psi> = sum_k c_k |kk>, and
``kron_table`` is the Born rule Tr[rho (E_i x E_j*)] at every setting,
one explicit Kronecker product per setting with the crosstalk effects
E_i = (1 - eps) Pi_i + eps (I - Pi_i) / (d - 1), not the package's
closed form.

Two references of the acceptance suite are checks on the package rather
than independent of it.  ``ks_colorable`` decides Kochen-Specker
colourability with one call of the package's
``max_weight_independent_set``, which ``colorable_by_enumeration``
checks; ``procrustean_filter`` flattens a Schmidt spectrum by
attenuation, the concentration step whose output must be the maximally
entangled state.
"""

import math
from fractions import Fraction
from itertools import accumulate, combinations, product

import numpy as np

from sicbell.bounds import max_weight_independent_set
from sicbell.catalog import WeightedGraph
from sicbell.exact import OMEGA, ZERO, ExactScalar, inner_product
from sicbell.noise import schmidt_amplitudes


def loop_edges(vectors) -> tuple[tuple[int, int], ...]:
    """Every pair (i, j), i < j, with exact inner product zero."""
    return tuple((i, j) for i, j in combinations(range(len(vectors)), 2)
                 if inner_product(vectors[i], vectors[j]) == ZERO)


def to_complex(x: ExactScalar) -> complex:
    return x.a + x.b * OMEGA


def norm_sq(v) -> int:
    """<v|v>, a nonnegative integer."""
    return inner_product(v, v).a


def unit_vectors(vectors) -> np.ndarray:
    """The rays scaled to unit norm, an (n, d) complex array.  math.sqrt
    takes the exact squared norm as it is, also beyond int64."""
    return np.array([np.array([to_complex(x) for x in v], dtype=complex)
                     / math.sqrt(norm_sq(v)) for v in vectors])


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
        ns = norm_sq(v)
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


def local_bound(settings, coefficients) -> Fraction:
    """The largest value of sum_(i, j) C_ij P(a_i = 1, b_j = 1) that a
    local deterministic strategy a, b in {0, 1}^n reaches.  For a given
    a the best b clicks on j exactly when sum_i C_ij a_i > 0, so the
    bound is the maximum over a of sum_j max(0, sum_i C_ij a_i).  It is
    worked in integers on 2C, which the half-weight penalties leave
    integral, and in int32, which no partial sum can leave.  The rows of
    a split into a low half, whose 2^low partial column sums are
    tabulated once, and a high half, added one assignment at a time."""
    n = 1 + max(i for i, _ in settings)
    twice = np.zeros((n, n), dtype=np.int32)
    for (i, j), c in zip(settings, coefficients):
        assert float(2 * c).is_integer(), c
        twice[i, j] = int(2 * c)
    assert np.abs(twice.astype(np.int64)).sum() < 2**31

    def sums(rows):  # the column sums of every 0/1 choice of rows
        shifts = np.arange(len(rows), dtype=np.int32)
        return ((np.arange(2 ** len(rows), dtype=np.int32)[:, None] >> shifts) & 1) @ rows

    low = min(n, 12)
    tabulated = sums(twice[:low])
    best = max(int(np.maximum(tabulated + high, 0).sum(axis=1).max())
               for high in sums(twice[low:]))
    return Fraction(best, 2)


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


def ks_colorable(graph: WeightedGraph, contexts) -> tuple:
    """Whether the contexts admit a {0,1} vertex assignment with exactly
    one 1 per context and no two adjacent 1s: ``(True, ones)`` or
    ``(False, None)``.

    One ``max_weight_independent_set`` call decides it, on the graph
    induced by the context members with each context made a clique and
    each vertex weighted by the number of contexts that contain it.  An
    independent set there meets each context at most once, so its weight
    reaches the number of contexts exactly when it meets each one once;
    the witness is that optimum's vertex tuple.  It inherits the search's
    cap: more than 64 context members raise ValueError.
    """
    contexts = [set(c) for c in contexts]
    members = sorted(set().union(*contexts))
    bad = [v for v in members if not 0 <= v < graph.n]
    if bad:
        raise ValueError(f"context vertex {bad[0]} out of range for n={graph.n}")
    index = {v: k for k, v in enumerate(members)}
    edges = {(index[i], index[j]) for i, j in graph.edges
             if i in index and j in index}
    for ctx in contexts:
        edges.update(combinations(sorted(index[v] for v in ctx), 2))
    weights = tuple(sum(v in ctx for ctx in contexts) for v in members)
    value, witness = max_weight_independent_set(
        WeightedGraph(len(members), weights, tuple(sorted(edges))))
    if value < len(contexts):
        return False, None
    return True, tuple(members[k] for k in witness)


def procrustean_filter(amplitudes) -> tuple:
    """Flatten a spectrum by attenuating every mode down to the weakest.

    One arm passes through a mode-dependent attenuator with amplitude
    transmission t_l = min_k c_k / c_l, which equalizes all coefficients.
    Returns the concentrated (flat) amplitudes and the success
    probability d * min_k |c_k|^2, the fraction of pairs surviving the
    filter.  Fails if any coefficient is zero, since a missing mode can
    not be repopulated by attenuation.
    """
    amps = schmidt_amplitudes(amplitudes)
    if any(a == 0.0 for a in amps):
        raise ValueError("cannot concentrate a spectrum with a zero amplitude")
    d, c_min = len(amps), min(amps)
    return (1.0 / math.sqrt(d),) * d, d * c_min * c_min


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


def _times(x: ExactScalar, q: Fraction) -> ExactScalar:
    return ExactScalar(x.a * q, x.b * q)


def bell_operator_exact(vectors, weights) -> list:
    """The Bell operator sum_(i, j) C_ij P_i x conj(P_j) over Q(w), as
    d^2 x d^2 nested lists of ``ExactScalar`` with ``Fraction``
    coordinates, rows (a, b) and columns (c, e) at a d + b and c d + e.
    P_i = |v_i><v_i| / <v_i|v_i>; C_ii = w_i, and C_ij = C_ji =
    -max(w_i, w_j) / 2 on each pair of :func:`loop_edges`.  Each ray's
    block is P_i x S_i, with S_i = sum_j C_ij conj(P_j)."""
    n, d = len(vectors), len(vectors[0])
    zero = ExactScalar(Fraction(0), Fraction(0))
    projectors = [[[_times(v[r] * v[c].conjugate(), Fraction(1, norm_sq(v)))
                    for c in range(d)] for r in range(d)] for v in vectors]
    coeffs = [{i: Fraction(w)} for i, w in enumerate(weights)]
    for i, j in loop_edges(vectors):
        coeffs[i][j] = coeffs[j][i] = Fraction(-max(weights[i], weights[j]), 2)
    op = [[zero] * (d * d) for _ in range(d * d)]
    for i in range(n):
        partner = [[zero] * d for _ in range(d)]
        for j, c in coeffs[i].items():
            for b in range(d):
                for e in range(d):
                    partner[b][e] += _times(projectors[j][b][e].conjugate(), c)
        for a in range(d):
            for c in range(d):
                p = projectors[i][a][c]
                for b in range(d):
                    row = op[a * d + b]
                    for e in range(d):
                        row[c * d + e] += p * partner[b][e]
    return op


def is_hermitian_psd(matrix) -> bool:
    """:func:`is_psd` for a Hermitian matrix over Q(w), its entries
    ``ExactScalar`` with rational coordinates.  LDL* elimination on the
    lower triangle: the Schur step takes a_i conj(a_j) / pivot from entry
    (i, j), and a Hermitian matrix's pivots are real (b = 0), so each
    step divides by a rational."""
    n = len(matrix)
    a = [[matrix[i][j] for j in range(i + 1)] for i in range(n)]
    for k in range(n):
        assert a[k][k].b == 0, "a Hermitian matrix has a real diagonal"
        pivot = a[k][k].a
        if pivot < 0:
            return False
        if pivot == 0:
            if any(a[i][k] != ZERO for i in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            if a[i][k] != ZERO:
                ratio = _times(a[i][k], 1 / Fraction(pivot))
                row = a[i]
                for j in range(k + 1, i + 1):
                    row[j] += _times(ratio * a[j][k].conjugate(), -1)
    return True


def is_above_spectrum(t, op) -> bool:
    """Whether t (a float or a rational) is at least the top eigenvalue
    of the Hermitian matrix ``op`` over Q(w): t I - op is PSD, exactly."""
    t = Fraction(t)
    return is_hermitian_psd([[ExactScalar(t * (r == c) - x.a, -x.b)
                              for c, x in enumerate(row)] for r, row in enumerate(op)])


def _poisson_pmf(total: int) -> list:
    """Poisson(total) probabilities of 0, 1, ..., past 20 sigma above the
    mean, beyond which the tail is far below any float the tests read."""
    top = total + 20 * math.isqrt(total) + 20
    return [math.exp(k * math.log(total) - total - math.lgamma(k + 1))
            for k in range(top + 1)]


def poisson_lower_tail(levels, totals, bound) -> float:
    """P(sum_k l_k N_k <= bound) for independent N_k ~ Poisson(totals[k]),
    with rational ``levels``, the last of them positive, and a rational
    ``bound``.  The levels are scaled to integers, so every comparison is
    exact."""
    levels = [Fraction(level) for level in levels]
    scale = math.lcm(*[level.denominator for level in levels])
    *others, last = [int(level * scale) for level in levels]
    assert last > 0, "the last level must be positive"
    top = math.floor(Fraction(bound) * scale)
    *outer, inner = [_poisson_pmf(total) for total in totals]
    cdf = list(accumulate(inner))
    terms = []
    for ks in product(*[range(len(pmf)) for pmf in outer]):
        room = (top - sum(a * k for a, k in zip(others, ks))) // last
        if room >= 0:
            weight = math.prod(pmf[k] for pmf, k in zip(outer, ks))
            terms.append(weight * cdf[min(room, len(cdf) - 1)])
    return math.fsum(terms)


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


# the package's closed-form table agrees with kron_table this closely
KRON_TOL = 1e-14


def model_state(amplitudes, visibility: float = 1.0) -> np.ndarray:
    """v |psi><psi| + (1 - v) I / d^2 for |psi> = sum_k c_k |kk>."""
    psi = np.diag(np.asarray(amplitudes, dtype=complex)).ravel()
    d2 = len(psi)
    return visibility * np.outer(psi, psi.conj()) + (1.0 - visibility) * np.eye(d2) / d2


def kron_table(sic, rho, crosstalk: float = 0.0) -> np.ndarray:
    """Tr[rho (E_i x E_j*)] at each of ``sic.settings``, in that order."""
    d = sic.dimension
    pis = [np.outer(u, u.conj()) for u in unit_vectors(sic.vectors)]
    effects = [(1.0 - crosstalk) * pi + crosstalk * (np.eye(d) - pi) / max(d - 1, 1)
               for pi in pis]
    return np.array([np.trace(rho @ np.kron(effects[i], effects[j].conj())).real
                     for i, j in sic.settings])
