import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

from sicbell.exact import (
    OMEGA,
    ZERO,
    ExactScalar,
    coordinates,
    gram,
    inner_product,
)

from exact_oracle import norm_sq, projector_sum_equals, to_complex, unit_vectors


ONE = ExactScalar(1, 0)
# the primitive cube root of unity w^2 = w - 1, and its square w^4 = -w
OMEGA3 = ExactScalar(-1, 1)
OMEGA3_SQ = ExactScalar(0, -1)


def rand_scalar(rng):
    return ExactScalar(rng.randint(-6, 6), rng.randint(-6, 6))


def test_ring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(300):
        x, y, z = (rand_scalar(rng) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert x * y == y * x
        assert x + x * ExactScalar(-1, 0) == ZERO
        assert x * ONE == x


def test_conjugation_properties():
    rng = random.Random(99)
    for _ in range(200):
        x, y = rand_scalar(rng), rand_scalar(rng)
        assert x.conjugate().conjugate() == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        prod = x * x.conjugate()
        assert prod.b == 0
        assert prod.a == x.a * x.a + x.a * x.b + x.b * x.b


def test_matches_complex_embedding():
    rng = random.Random(5)
    for _ in range(200):
        x, y = rand_scalar(rng), rand_scalar(rng)
        fx, fy = to_complex(x), to_complex(y)
        assert abs(to_complex(x * y) - fx * fy) < 1e-12 * max(1.0, abs(fx * fy))
        assert abs(to_complex(x + y) - (fx + fy)) < 1e-12
        assert abs(to_complex(x.conjugate()) - fx.conjugate()) < 1e-12


def test_root_of_unity_identities():
    # OMEGA is the primitive sixth root; its square generates the cube roots.
    assert abs(OMEGA - cmath.exp(1j * cmath.pi / 3)) < 1e-15
    w = ExactScalar(0, 1)
    assert w * w == ExactScalar(-1, 1)          # w^2 = w - 1
    assert OMEGA3 * OMEGA3 == OMEGA3_SQ
    assert OMEGA3 * OMEGA3 * OMEGA3 == ONE
    assert ONE + OMEGA3 + OMEGA3_SQ == ZERO
    for k, root in enumerate((ONE, OMEGA3, OMEGA3_SQ)):
        assert abs(to_complex(root) - cmath.exp(2j * cmath.pi * k / 3)) < 1e-12


def test_inner_product_conjugate_symmetry():
    rng = random.Random(31)
    for _ in range(100):
        u = tuple(rand_scalar(rng) for _ in range(4))
        v = tuple(rand_scalar(rng) for _ in range(4))
        assert inner_product(u, v) == inner_product(v, u).conjugate()
        n = inner_product(u, u)
        assert n.b == 0
        assert n.a == sum(x.a * x.a + x.a * x.b + x.b * x.b for x in u) >= 0


def test_inner_product_dimension_mismatch():
    u = (ONE, ZERO)
    v = (ONE, ZERO, ZERO)
    with pytest.raises(ValueError):
        inner_product(u, v)


def test_reference_unit_vector_norm():
    v = (ONE, OMEGA3, OMEGA3_SQ, ZERO)
    assert norm_sq(v) == 3
    zs = unit_vectors([v])[0]
    assert len(zs) == 4
    assert abs(sum(abs(z) ** 2 for z in zs) - 1.0) < 1e-12


def test_projector_sum_standard_basis():
    basis = [tuple(ExactScalar(int(i == j), 0) for j in range(3)) for i in range(3)]
    assert projector_sum_equals(basis, Fraction(1))
    assert not projector_sum_equals(basis[:2], Fraction(1))
    doubled = basis + basis
    assert projector_sum_equals(doubled, Fraction(2))


def assert_gram_matches_loop(vectors):
    re, w = gram(*coordinates(vectors))
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            assert ExactScalar(int(re[i, j]), int(w[i, j])) == inner_product(u, v)
    return re.dtype


def extreme_vectors(m):
    """Four vectors in d = 4 with every coordinate of size m, so that
    <v, v> = 12 m**2 for the first: the largest sums int64 must hold."""
    top, low = ExactScalar(m, m), ExactScalar(-m, m)
    return [(top,) * 4, (low,) * 4, (top, low, top, low),
            (ExactScalar(m, 0), ExactScalar(0, -m), ExactScalar(-m, -m), top)]


def test_gram_int64_just_below_threshold():
    # 4 * d * m**2 < 2**62 with d = 4 allows m up to 2**29 - 1
    assert assert_gram_matches_loop(extreme_vectors(2**29 - 1)) == np.int64


def test_gram_exact_ints_just_above_threshold():
    assert assert_gram_matches_loop(extreme_vectors(2**29)) == object


def test_gram_never_wraps():
    # <u, u> = 4 * 2**62 = 2**64, which int64 arithmetic would wrap to 0
    u = (ExactScalar(2**31, 0),) * 4
    re, w = gram(*coordinates([u, u]))
    assert re.dtype == object
    assert re[0, 1] == 2**64 and w[0, 1] == 0


def test_gram_rejects_ragged_vectors():
    with pytest.raises(ValueError, match="dimension mismatch"):
        gram(*coordinates([(ONE, ZERO), (ONE, ZERO, ZERO)]))
