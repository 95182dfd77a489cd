import numpy as np
import pytest

from sicbell.catalog import catalog_names, get_set, orthogonality_graph
from sicbell.quantum import (
    BipartiteState,
    ProbabilityTable,
    bell_coefficients,
    bell_settings,
    bell_value,
    born_probabilities,
    conjugate_projector,
    joint_probability,
    max_entangled_state,
    projector,
    ray_projectors,
)


def isotropic_state(d, v):
    ideal = max_entangled_state(d).rho
    return BipartiteState(d, v * ideal + (1.0 - v) * np.eye(d * d) / d ** 2)


def test_max_entangled_basics():
    st = max_entangled_state(3)
    st.validate()
    assert abs(np.trace(st.rho) - 1.0) < 1e-14
    assert abs(np.trace(st.rho @ st.rho) - 1.0) < 1e-12     # purity
    with pytest.raises(ValueError):
        max_entangled_state(1)


def test_max_entangled_reduced_state():
    d = 4
    rho = max_entangled_state(d).rho
    reduced = np.trace(rho.reshape(d, d, d, d), axis1=1, axis2=3)
    assert np.allclose(reduced, np.eye(d) / d, atol=1e-12)


def test_max_entangled_overlap_with_00():
    st = max_entangled_state(6)
    assert abs(st.rho[0, 0] - 1.0 / 6.0) < 1e-14


def test_state_validation_rejects_bad_inputs():
    good = max_entangled_state(2).rho
    with pytest.raises(ValueError):
        BipartiteState(2, good[:3, :3]).validate()
    skew = good.copy()
    skew[0, 1] += 1e-6
    with pytest.raises(ValueError):
        BipartiteState(2, skew).validate()
    with pytest.raises(ValueError):
        BipartiteState(2, 2.0 * good).validate()
    dented = np.diag([1.0 + 1e-9, -1e-9, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        BipartiteState(2, dented).validate()


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
    assert np.allclose(conjugate_projector(v), projector(v), atol=1e-15)


def test_conjugate_projector_involution():
    for vec in get_set("ks21").float_vectors()[:8]:
        once = np.conj(vec)
        assert np.allclose(conjugate_projector(np.conj(once)), projector(np.conj(vec)))
        assert np.allclose(conjugate_projector(once), projector(vec), atol=1e-14)
        p = conjugate_projector(vec)
        assert np.allclose(p, p.conj().T, atol=1e-14)
        assert abs(np.trace(p) - 1.0) < 1e-12


def test_joint_probability_diagonal_is_inverse_dimension():
    for name in catalog_names():
        s = get_set(name)
        st = max_entangled_state(s.dimension)
        for v in s.float_vectors():
            assert abs(joint_probability(st, v, v) - 1.0 / s.dimension) < 1e-12


def test_joint_probability_vanishes_on_edges():
    for name in catalog_names():
        s = get_set(name)
        st = max_entangled_state(s.dimension)
        vecs = s.float_vectors()
        for i, j in orthogonality_graph(s).edges:
            assert joint_probability(st, vecs[i], vecs[j]) < 1e-12


def test_joint_probability_amplitude_identity():
    # independent route: <psi| P_i x P_j* |psi> = |<v_i|v_j>|^2 / d
    for name in catalog_names():
        s = get_set(name)
        st = max_entangled_state(s.dimension)
        vecs = s.float_vectors()
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


@pytest.mark.parametrize("scale", [4.0, np.nan])
def test_born_probabilities_reject_unphysical_state(scale):
    # 4 rho puts every diagonal probability at 4/3; NaN is never in range
    s = get_set("yo13")
    alice = ray_projectors(s)
    rho = scale * max_entangled_state(3).rho
    with pytest.raises(ArithmeticError):
        born_probabilities(rho, alice, alice.conj(), [(0, 0)])


def test_bell_settings_and_coefficients():
    s = get_set("yo13")
    g = orthogonality_graph(s)
    settings = bell_settings(s.n, g.edges)
    assert len(settings) == 13 + 2 * 24
    assert settings[:2] == [(0, 0), (1, 1)]
    coeffs = bell_coefficients(s.weights, g.edges)
    assert len(coeffs) == len(settings)
    # sum of coefficients collapses to sum(w) - sum over edges of w_ij
    assert abs(coeffs.sum() - (35.0 - 72.0)) < 1e-12


def test_bell_value_ideal_catalog():
    targets = {"yo13": 35.0 / 3.0, "ks18": 4.5, "ks21": 3.5}
    for name, target in targets.items():
        s = get_set(name)
        beta, table = bell_value(s, max_entangled_state(s.dimension))
        assert abs(beta - target) < 1e-12
        assert isinstance(table, ProbabilityTable)
        assert np.all(table.values >= 0.0) and np.all(table.values <= 1.0)


def test_bell_value_table_symmetric_for_ideal():
    s = get_set("ks18")
    _, table = bell_value(s, max_entangled_state(4))
    d = table.as_dict()
    for i, j in table.edges:
        assert abs(d[(i, j)] - d[(j, i)]) < 1e-12


def test_bell_value_mixed_state_closed_form():
    # fully mixed: every setting has probability 1/d^2
    expected = {"yo13": -37.0 / 9.0, "ks18": -45.0 / 16.0, "ks21": -84.0 / 36.0}
    for name, target in expected.items():
        s = get_set(name)
        beta, _ = bell_value(s, isotropic_state(s.dimension, 0.0))
        assert abs(beta - target) < 1e-12


def test_bell_value_affine_in_state():
    s = get_set("yo13")
    rho1 = max_entangled_state(3)
    rho2 = isotropic_state(3, 0.0)
    b1, _ = bell_value(s, rho1)
    b2, _ = bell_value(s, rho2)
    for lam in (0.25, 0.5, 0.9):
        mix = BipartiteState(3, lam * rho1.rho + (1.0 - lam) * rho2.rho)
        bmix, _ = bell_value(s, mix)
        assert abs(bmix - (lam * b1 + (1.0 - lam) * b2)) < 1e-12


def test_bell_value_dimension_mismatch():
    with pytest.raises(ValueError):
        bell_value(get_set("yo13"), max_entangled_state(4))


def test_bell_value_basis_covariance():
    # rotating every vector by U while conjugating the state with U x U*
    # leaves the functional unchanged
    rng = np.random.default_rng(314)
    s = get_set("yo13")
    g = orthogonality_graph(s)
    vecs = s.float_vectors()
    beta0, _ = bell_value(s, max_entangled_state(3))

    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(m)
    big = np.kron(u, u.conj())
    rotated_state = BipartiteState(3, big @ max_entangled_state(3).rho @ big.conj().T)
    rotated_state.validate()
    rot_vecs = [u @ v for v in vecs]

    settings = bell_settings(s.n, g.edges)
    vals = np.array([
        joint_probability(rotated_state, rot_vecs[i], rot_vecs[j])
        for i, j in settings
    ])
    beta_rot = float(bell_coefficients(s.weights, g.edges) @ vals)
    assert abs(beta_rot - beta0) < 1e-9
