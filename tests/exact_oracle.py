"""Exact oracles over Z[w] and Q[w] for the tests, independent of the
integer Gram product the package uses.

``loop_edges`` decides orthogonality one pair at a time through
:func:`sicbell.exact.inner_product`; ``projector_sum_equals`` sums
rank-1 projectors with Fraction coefficients.
"""

from fractions import Fraction
from itertools import combinations

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
