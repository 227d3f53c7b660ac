import warnings

import numpy as np
import pytest

from cliffharm import algebra as alg
from cliffharm import spin as sp


def test_compose_contract_example():
    # (2, s90, 0) . (1, 1, e1) = (2, s90, 2 e2)
    s90 = sp.spin2_from_angle(np.pi / 4)
    g = sp.GroupElement(2.0, s90, np.zeros(2))
    h = sp.GroupElement(1.0, sp.identity_spin(2), np.array([1.0, 0.0]))
    gh = sp.compose(g, h)
    assert gh.r == 2.0
    assert np.allclose(gh.b, [0.0, 2.0], atol=1e-14)
    assert alg.coeff_norm(gh.s.coeffs - s90.coeffs) == 0.0


def test_inverse_contract_example():
    # (1, s90, e1)^-1 = (1, s90^-1, e2)
    s90 = sp.spin2_from_angle(np.pi / 4)
    gi = sp.inverse(sp.GroupElement(1.0, s90, np.array([1.0, 0.0])))
    assert gi.r == 1.0
    assert np.allclose(gi.b, [0.0, 1.0], atol=1e-14)
    assert alg.coeff_norm(gi.s.coeffs - s90.inverse().coeffs) < 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_group_axioms_on_actions(n):
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((5, n))
    for _ in range(20):
        g = sp.GroupElement(float(rng.uniform(0.3, 3.0)), sp.random_spin(n, rng), rng.standard_normal(n))
        h = sp.GroupElement(float(rng.uniform(0.3, 3.0)), sp.random_spin(n, rng), rng.standard_normal(n))
        gh = sp.compose(g, h)
        gi = sp.inverse(g)
        for p in pts:
            assert np.allclose(sp.act_vector(gh, p), sp.act_vector(g, sp.act_vector(h, p)), atol=1e-10)
            assert np.allclose(sp.act_vector(gi, sp.act_vector(g, p)), p, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_rotation_matrix_is_special_orthogonal(n):
    rng = np.random.default_rng(23)
    for _ in range(50):
        A = sp.rotation_matrix(sp.random_spin(n, rng))
        assert np.allclose(A.T @ A, np.eye(n), atol=1e-12)
        assert abs(np.linalg.det(A) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_double_cover_sign_blindness(n):
    rng = np.random.default_rng(29)
    s = sp.random_spin(n, rng)
    assert np.allclose(sp.rotation_matrix(-s), sp.rotation_matrix(s), atol=1e-13)
    g = sp.GroupElement(1.0, s, np.zeros(n))
    h = sp.GroupElement(1.0, -s, np.zeros(n))
    probes = np.vstack([np.eye(n), np.ones((1, n))])
    assert np.abs(sp.act_vector(g, probes) - sp.act_vector(h, probes)).max() <= 1e-12
    assert not sp.strictly_equal(g, h)


def test_spin2_rotates_by_twice_the_angle():
    for theta in (0.1, np.pi / 4, 1.3, 2.9):
        A = sp.rotation_matrix(sp.spin2_from_angle(theta))
        want = np.array(
            [[np.cos(2 * theta), -np.sin(2 * theta)], [np.sin(2 * theta), np.cos(2 * theta)]]
        )
        assert np.allclose(A, want, atol=1e-12)


def test_spin3_fixes_axis_and_turns_plane():
    axis = np.array([0.0, 0.0, 1.0])
    s = sp.spin3_from_axis_angle(axis, 0.7)
    A = sp.rotation_matrix(s)
    assert np.allclose(A @ axis, axis, atol=1e-13)
    # turning e1 toward e2 by the stated angle
    assert np.allclose(A @ np.eye(3)[0], [np.cos(0.7), np.sin(0.7), 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        sp.spin3_from_axis_angle(np.array([0.0, 0.0, 2.0]), 0.7)


def test_rotor_product_covers_matrix_product():
    rng = np.random.default_rng(31)
    for n in (2, 3):
        s, t = sp.random_spin(n, rng), sp.random_spin(n, rng)
        assert np.allclose(
            sp.rotation_matrix(s * t),
            sp.rotation_matrix(s) @ sp.rotation_matrix(t),
            atol=1e-12,
        )


@pytest.mark.parametrize("n", [2, 3])
def test_section_hits_target_direction(n):
    rng = np.random.default_rng(37)
    ref = np.zeros(n)
    ref[-1] = 1.0
    worst = 0.0
    for _ in range(10_000):
        w = rng.standard_normal(n)
        w /= np.linalg.norm(w)
        got = sp.rotation_matrix(sp.section_s_omega(w)) @ ref
        worst = max(worst, float(np.linalg.norm(got - w)))
    assert worst < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_section_antipodal_fallback_is_deterministic(n):
    ref = np.zeros(n)
    ref[-1] = 1.0
    s1 = sp.section_s_omega(-ref)
    s2 = sp.section_s_omega(-ref)
    assert alg.coeff_norm(s1.coeffs - s2.coeffs) == 0.0
    assert np.allclose(sp.rotation_matrix(s1) @ ref, -ref, atol=1e-12)
    # directions just off the antipode still resolve
    eps = np.zeros(n)
    eps[0] = 1e-5
    w = -ref + eps
    w /= np.linalg.norm(w)
    assert np.allclose(sp.rotation_matrix(sp.section_s_omega(w)) @ ref, w, atol=1e-8)


def test_rotor_validation():
    bad = np.zeros(4, dtype=complex)
    bad[1] = 1.0  # odd grade
    with pytest.raises(ValueError):
        sp.SpinElement(2, bad)
    with pytest.raises(ValueError):
        sp.SpinElement(2, np.array([2.0, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        sp.GroupElement(0.0, sp.identity_spin(2), np.zeros(2))
    with pytest.raises(ValueError):
        sp.GroupElement(1.0, sp.identity_spin(2), np.zeros(3))
    for r in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            sp.GroupElement(r, sp.identity_spin(2), np.zeros(2))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            sp.GroupElement(1.0, sp.identity_spin(2), np.array([0.3, bad]))


def test_rotor_refuses_non_finite_coefficients():
    for bad in (float("nan"), float("inf"), complex(0.0, float("nan"))):
        with pytest.raises(ValueError, match="rotor coefficients must be finite"):
            sp.SpinElement(2, np.array([bad, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError, match="rotor coefficients must be finite"):
        sp.parse_group_element("1.0|4;0:nan,0.0|0.5,0.0")


@pytest.mark.parametrize("n", [2, 3])
def test_serialization_roundtrip_is_exact(n):
    rng = np.random.default_rng(41)
    for _ in range(20):
        g = sp.GroupElement(float(rng.uniform(0.5, 2.0)), sp.random_spin(n, rng), rng.standard_normal(n))
        back = sp.parse_group_element(sp.serialize_group_element(g))
        assert sp.strictly_equal(g, back)
    with pytest.raises(ValueError):
        sp.parse_group_element("1.0|4;0:1.0,0.0")


def _directions(n, count, seed):
    """Unit vectors in R^n, starting with -e_n and a point 1e-7 from it."""
    w = np.random.default_rng(seed).standard_normal((count, n))
    w[0] = 0.0
    w[0, -1] = -1.0
    w[1] = w[0]
    w[1, 0] = 1e-7
    return w / np.linalg.norm(w, axis=-1, keepdims=True)


@pytest.mark.parametrize("n", [2, 3])
def test_batched_section_equals_single_vector_calls(n):
    w = _directions(n, 10_000, 43)
    batch = sp.section_s_omega(w)
    assert batch.coeffs.shape == (10_000, 2**n)
    singles = np.stack([sp.section_s_omega(x).coeffs for x in w])
    assert np.array_equal(batch.coeffs, singles)


def test_angle_array_gives_one_rotor_per_angle():
    theta = np.linspace(-4.0, 4.0, 7)
    batch = sp.spin3_from_axis_angle([0.6, 0.0, 0.8], theta).coeffs
    assert np.array_equal(batch, np.stack([sp.spin3_from_axis_angle([0.6, 0.0, 0.8], t).coeffs for t in theta]))


def test_unit_checks_refuse_nan_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="omega must be a unit vector"):
            sp.section_s_omega([float("nan"), 0.0, 0.0])
        with pytest.raises(ValueError, match="omega must be a unit vector"):
            sp.section_s_omega([[0.0, 1.0], [float("nan"), 0.0]])
        with pytest.raises(ValueError, match="axis must be a unit vector"):
            sp.spin3_from_axis_angle([float("nan"), 0.0, 0.0], 1.0)


def test_rotor_dimension_outside_two_and_three_is_refused():
    with pytest.raises(ValueError, match="n must be 2 or 3"):
        sp.SpinElement(4, np.eye(16)[0])
    with pytest.raises(ValueError, match="n must be 2 or 3"):
        sp.identity_spin(4)
    with pytest.raises(ValueError, match="n must be 2 or 3"):
        sp.section_s_omega([0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("omega", [1.0, np.float64(0.0), np.array(1.0)])
def test_section_refuses_a_scalar(omega):
    with pytest.raises(ValueError, match="n must be 2 or 3"):
        sp.section_s_omega(omega)


@pytest.mark.parametrize(
    "slot,value,message",
    [
        (0, 2.0, "rotor norm 2.0 is not 1"),
        (1, 1.0, "rotor must be even-grade"),
        (0, float("nan"), "rotor coefficients must be finite"),
        (0, 1j, "rotor coefficients must be real"),
    ],
)
def test_batch_with_one_bad_row_is_refused(slot, value, message):
    c = sp.section_s_omega(_directions(3, 5, 47)).coeffs.copy()
    c[3] = 0.0
    c[3, slot] = value
    with pytest.raises(ValueError, match=message):
        sp.SpinElement(3, c)


def test_one_rotor_operations_refuse_a_batch():
    batch = sp.section_s_omega(_directions(3, 3, 53))
    with pytest.raises(ValueError, match="one rotor"):
        sp.GroupElement(1.0, batch, np.zeros(3))
    with pytest.raises(ValueError, match="one rotor"):
        sp.rotation_matrix(batch)
