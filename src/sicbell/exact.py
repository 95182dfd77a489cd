"""Exact arithmetic over the ring Z[w], w a primitive sixth root of unity.

Every catalog vector entry is an element a + b*w with integer a, b and
w^2 = w - 1.  This keeps orthogonality decisions exact: an inner product
is zero iff it reduces to (0, 0) in the ring, with no floating point
involved.  Rational combinations (projector entries, context identity
sums) reuse the same multiplication rules over Fraction coefficients.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

# w = exp(i*pi/3); conj(w) = 1 - w since w^5 = -w^2 = 1 - w.
OMEGA = cmath.exp(1j * cmath.pi / 3)


@dataclass(frozen=True)
class ExactScalar:
    """Element a + b*w of Z[w] with w^2 = w - 1.

    The same rules hold over Q[w]; :func:`projector_sum_equals` passes
    Fraction coefficients.
    """

    a: int
    b: int

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        # (a + bw)(c + dw) = ac + (ad+bc)w + bd(w-1)
        a, b, c, d = self.a, self.b, other.a, other.b
        return ExactScalar(a * c - b * d, a * d + b * c + b * d)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.a, -self.b)

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.a + self.b, -self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def norm_sq(self) -> int:
        """|a + bw|^2 = a^2 + ab + b^2 (always a nonnegative integer)."""
        return self.a * self.a + self.a * self.b + self.b * self.b

    def to_complex(self) -> complex:
        return self.a + self.b * OMEGA


ZERO = ExactScalar(0, 0)
ONE = ExactScalar(1, 0)
# Primitive cube root of unity w^2 = w - 1 and its square -w.
OMEGA3 = ExactScalar(-1, 1)
OMEGA3_SQ = ExactScalar(0, -1)


def from_int(k: int) -> ExactScalar:
    return ExactScalar(k, 0)


def cube_root_power(k: int) -> ExactScalar:
    """exp(2*pi*i*k/3) as an exact ring element."""
    return (ONE, OMEGA3, OMEGA3_SQ)[k % 3]


def inner_product(u, v) -> ExactScalar:
    """<u|v> = sum_k conj(u_k) v_k, exact in Z[w]."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    acc = ZERO
    for x, y in zip(u, v):
        acc = acc + x.conjugate() * y
    return acc


def vector_norm_sq(v) -> int:
    """Squared norm of an exact vector (a plain integer)."""
    return sum(x.norm_sq() for x in v)


def to_complex_vector(v):
    return [x.to_complex() for x in v]


def projector_sum_equals(vectors, scale: Fraction) -> bool:
    """Check sum_i |v_i><v_i| / |v_i|^2 == scale * I, exactly.

    `vectors` is a list of exact vectors of equal dimension.  Works in
    rational w-coordinates (ExactScalar with Fraction coefficients), so
    there is no tolerance to tune.
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
