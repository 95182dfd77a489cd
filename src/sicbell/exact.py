"""Exact arithmetic over the ring Z[w], w a primitive sixth root of unity.

Every catalog vector entry is an element a + b*w with integer a, b and
w^2 = w - 1.  This keeps orthogonality decisions exact: an inner product
is zero iff it reduces to (0, 0) in the ring, with no floating point
involved.  :func:`coordinates` unpacks a set's entries once, into one
integer array of their (a, b) coordinates; :func:`gram` decides every
pair of the set from it, with two integer matrix products.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

# w = exp(i*pi/3); conj(w) = 1 - w since w^5 = -w^2 = 1 - w.
OMEGA = cmath.exp(1j * cmath.pi / 3)


@dataclass(frozen=True)
class ExactScalar:
    """Element a + b*w of Z[w] with w^2 = w - 1."""

    a: int
    b: int

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.a + other.a, self.b + other.b)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        # (a + bw)(c + dw) = ac + (ad+bc)w + bd(w-1)
        a, b, c, d = self.a, self.b, other.a, other.b
        return ExactScalar(a * c - b * d, a * d + b * c + b * d)

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.a + self.b, -self.b)


ZERO = ExactScalar(0, 0)


def inner_product(u, v) -> ExactScalar:
    """<u|v> = sum_k conj(u_k) v_k, exact in Z[w]."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    acc = ZERO
    for x, y in zip(u, v):
        acc = acc + x.conjugate() * y
    return acc


def coordinates(vectors) -> np.ndarray:
    """The entries a + b*w of equal-length exact vectors, as one
    (2, n, d) integer array [A, B].

    Every sum in :func:`gram` is bounded by 4 d max(|a|, |b|)^2: int64 is
    used while that is below 2**62, exact Python ints (``dtype=object``)
    otherwise, so nothing ever wraps.
    """
    d, *other = sorted({len(v) for v in vectors}) or [0]
    if other:
        raise ValueError(f"dimension mismatch: vector lengths {[d, *other]}")
    a = [x.a for v in vectors for x in v]
    b = [x.b for v in vectors for x in v]
    bound = max(map(abs, a + b), default=0)
    dtype = np.int64 if 4 * d * bound * bound < 2**62 else object
    return np.array([a, b], dtype=dtype).reshape(2, len(vectors), d)


def gram(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every <u_i|u_j> of the vectors with coordinates ``a``, ``b``, as
    two (n, n) integer arrays ``(re, w)`` with <u_i|u_j> = re[i, j] +
    w[i, j]*w.

    conj(a + b*w) = p + q*w for P = A + B, Q = -B, so
    re = P A^T - Q B^T = [P | Q] [A | Q]^T and
    w = P B^T + Q P^T = [P | Q] [B | P]^T.
    """
    p, q = a + b, -b
    left = np.hstack([p, q])
    return left @ np.hstack([a, q]).T, left @ np.hstack([b, p]).T
