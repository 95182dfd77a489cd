import re

import numpy as np
import pytest

from sicbell.catalog import (
    catalog_names,
    get_set,
    orthogonality_graph,
)
from sicbell.noise import IDEAL, expected_bell_value
from sicbell.quantum import (
    ProbabilityTable,
    bell_value,
    born_probabilities,
    joint_probability,
    max_entangled_state,
    projector,
)

from exact_oracle import validate_state


def isotropic_state(d, v):
    ideal = max_entangled_state(d)
    return v * ideal + (1.0 - v) * np.eye(d * d) / d ** 2


def test_max_entangled_basics():
    st = max_entangled_state(3)
    validate_state(st, 3)
    assert abs(np.trace(st) - 1.0) < 1e-14
    assert abs(np.trace(st @ st) - 1.0) < 1e-12     # purity
    with pytest.raises(ValueError):
        max_entangled_state(1)


def test_max_entangled_reduced_state():
    d = 4
    rho = max_entangled_state(d)
    reduced = np.trace(rho.reshape(d, d, d, d), axis1=1, axis2=3)
    assert np.allclose(reduced, np.eye(d) / d, atol=1e-12)


def test_max_entangled_overlap_with_00():
    st = max_entangled_state(6)
    assert abs(st[0, 0] - 1.0 / 6.0) < 1e-14


def test_state_validation_rejects_bad_inputs():
    good = max_entangled_state(2)
    validate_state(good, 2)
    with pytest.raises(ValueError, match="must be 4 x 4"):
        validate_state(good[:3, :3], 2)
    skew = good.copy()
    skew[0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        validate_state(skew, 2)
    with pytest.raises(ValueError, match="trace is not 1"):
        validate_state(2.0 * good, 2)
    dented = np.diag([1.0 + 1e-9, -1e-9, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_state(dented, 2)


def test_projector_properties():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        p = projector(v)
        assert np.allclose(p, p.conj().T, atol=1e-12)
        assert np.allclose(p @ p, p, atol=1e-12)
        assert abs(np.trace(p) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        projector(np.zeros(3))


def test_conjugate_projector_real_vector_fixed():
    v = np.array([1.0, -2.0, 0.5])
    assert np.allclose(projector(np.conj(v)), projector(v), atol=1e-15)


def test_conjugate_projector_involution():
    # the oracle's |v*><v*| is the entrywise conjugate of the set's
    # projector, the family born_probabilities forms for the second arm
    s = get_set("ks21")
    for vec, proj in zip(s.unit_vectors[:8], s.projectors):
        p = projector(np.conj(vec))
        assert np.allclose(p, proj.conj(), atol=1e-14)
        assert np.allclose(projector(np.conj(np.conj(vec))), proj, atol=1e-14)
        assert np.allclose(p, p.conj().T, atol=1e-14)
        assert abs(np.trace(p) - 1.0) < 1e-12


def test_joint_probability_diagonal_is_inverse_dimension():
    for name in catalog_names():
        s = get_set(name)
        st = max_entangled_state(s.dimension)
        for v in s.unit_vectors:
            assert abs(joint_probability(st, v, v) - 1.0 / s.dimension) < 1e-12


def test_joint_probability_vanishes_on_edges():
    for name in catalog_names():
        s = get_set(name)
        st = max_entangled_state(s.dimension)
        vecs = s.unit_vectors
        for i, j in orthogonality_graph(s).edges:
            assert joint_probability(st, vecs[i], vecs[j]) < 1e-12


def test_joint_probability_amplitude_identity():
    # independent route: <psi| P_i x P_j* |psi> = |<v_i|v_j>|^2 / d
    for name in catalog_names():
        s = get_set(name)
        st = max_entangled_state(s.dimension)
        vecs = s.unit_vectors
        for i in range(0, s.n, 3):
            for j in range(0, s.n, 4):
                direct = joint_probability(st, vecs[i], vecs[j])
                amp = abs(np.vdot(vecs[i], vecs[j])) ** 2 / s.dimension
                assert abs(direct - amp) < 1e-12


def test_joint_probability_isotropic_closed_form():
    for d, v in ((3, 0.7), (4, 0.95), (6, 0.0)):
        st = isotropic_state(d, v)
        e = np.zeros(d)
        e[0] = 1.0
        expected = v / d + (1.0 - v) / d ** 2
        assert abs(joint_probability(st, e, e) - expected) < 1e-12


def test_joint_probability_dimension_mismatch():
    st = max_entangled_state(3)
    with pytest.raises(ValueError):
        joint_probability(st, np.ones(4), np.ones(4))
    # vectors of different lengths are refused before the state is read
    with pytest.raises(ValueError, match="^the two vectors differ in dimension$"):
        joint_probability(st, np.ones(3), np.ones(4))


@pytest.mark.parametrize("scale", [4.0, np.nan])
def test_born_probabilities_reject_unphysical_state(scale):
    # 4 rho puts every diagonal probability at 4/3; NaN is never in range
    s = get_set("yo13")
    rho = scale * max_entangled_state(3)
    with pytest.raises(ArithmeticError):
        born_probabilities(rho, s.projectors, [(0, 0)])


def test_bell_settings_and_coefficients():
    s = get_set("yo13")
    settings = s.settings
    assert len(settings) == 13 + 2 * 24
    assert settings[:2] == ((0, 0), (1, 1))
    coeffs = s.coefficients
    assert len(coeffs) == len(settings)
    # sum of coefficients collapses to sum(w) - sum over edges of w_ij
    assert abs(coeffs.sum() - (35.0 - 72.0)) < 1e-12


def test_bell_value_ideal_catalog():
    targets = {"yo13": 35.0 / 3.0, "ks18": 4.5, "ks21": 3.5}
    for name, target in targets.items():
        s = get_set(name)
        beta, table = bell_value(s, max_entangled_state(s.dimension), s.projectors)
        assert abs(beta - target) < 1e-12
        assert isinstance(table, ProbabilityTable)
        assert np.all(table.values >= 0.0) and np.all(table.values <= 1.0)


def test_bell_value_table_symmetric_for_ideal():
    s = get_set("ks18")
    _, table = bell_value(s, max_entangled_state(4), s.projectors)
    d = dict(zip(s.settings, table.values))
    for i, j in s.graph.edges:
        assert abs(d[(i, j)] - d[(j, i)]) < 1e-12


def test_bell_value_mixed_state_closed_form():
    # fully mixed: every setting has probability 1/d^2
    expected = {"yo13": -37.0 / 9.0, "ks18": -45.0 / 16.0, "ks21": -84.0 / 36.0}
    for name, target in expected.items():
        s = get_set(name)
        beta, _ = bell_value(s, isotropic_state(s.dimension, 0.0), s.projectors)
        assert abs(beta - target) < 1e-12


def test_bell_value_affine_in_state():
    s = get_set("yo13")
    rho1 = max_entangled_state(3)
    rho2 = isotropic_state(3, 0.0)
    b1, _ = bell_value(s, rho1, s.projectors)
    b2, _ = bell_value(s, rho2, s.projectors)
    for lam in (0.25, 0.5, 0.9):
        mix = lam * rho1 + (1.0 - lam) * rho2
        bmix, _ = bell_value(s, mix, s.projectors)
        assert abs(bmix - (lam * b1 + (1.0 - lam) * b2)) < 1e-12


def test_bell_value_dimension_mismatch():
    s = get_set("yo13")
    with pytest.raises(ValueError):
        bell_value(s, max_entangled_state(4), s.projectors)


def test_bell_value_basis_covariance():
    # rotating every vector by U while conjugating the state with U x U*
    # leaves the functional unchanged
    rng = np.random.default_rng(314)
    s = get_set("yo13")
    vecs = s.unit_vectors
    beta0, _ = bell_value(s, max_entangled_state(3), s.projectors)

    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(m)
    big = np.kron(u, u.conj())
    rotated_state = big @ max_entangled_state(3) @ big.conj().T
    validate_state(rotated_state, 3)
    rot_vecs = [u @ v for v in vecs]

    vals = np.array([
        joint_probability(rotated_state, rot_vecs[i], rot_vecs[j])
        for i, j in s.settings
    ])
    beta_rot = float(s.coefficients @ vals)
    assert abs(beta_rot - beta0) < 1e-9


# a (d^2, d^2) state for the wrong d, a state for no d, and not a matrix
_WRONG_SHAPES = [np.eye(16) / 16, np.eye(8) / 8, np.eye(9)[:, :8] / 9,
                 np.full(81, 1.0 / 81), np.array(1.0)]


@pytest.mark.parametrize("rho", _WRONG_SHAPES, ids=lambda m: str(m.shape))
def test_wrong_shape_state_is_refused(rho):
    # yo13 is d = 3, so only a (9, 9) state fits its effects
    s = get_set("yo13")
    message = rf"state matrix has shape {re.escape(str(rho.shape))}"
    with pytest.raises(ValueError, match=message):
        born_probabilities(rho, s.projectors, [(0, 0)])
    with pytest.raises(ValueError, match=message):
        bell_value(s, rho, s.projectors)
    v = s.unit_vectors[0]
    with pytest.raises(ValueError, match=message):
        joint_probability(rho, v, v)


@pytest.mark.parametrize("name", ["yo13", "ks18", "ks21"])
def test_one_born_path_bit_for_bit(name):
    s = get_set(name)
    d = s.dimension
    _, table = bell_value(s, max_entangled_state(d), s.projectors)
    _, expected = expected_bell_value(s, IDEAL)
    assert np.array_equal(table.values, expected.values)
    rng = np.random.default_rng(17)
    g = rng.normal(size=(d * d, 3)) + 1j * rng.normal(size=(d * d, 3))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    validate_state(rho, d)
    direct = born_probabilities(rho, s.projectors, s.settings)
    assert np.array_equal(direct, bell_value(s, rho, s.projectors)[1].values)
