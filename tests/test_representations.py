import numpy as np
import pytest

from cliffharm import algebra as alg
from cliffharm import fields as fl
from cliffharm import representations as rp
from cliffharm import spin as sp
from cliffharm import transforms as tr


def _quarter_turn(n):
    if n == 2:
        return sp.spin2_from_angle(np.pi / 4)
    return sp.spin3_from_axis_angle([0.0, 0.0, 1.0], np.pi / 2)


def _spec(n):
    return fl.GridSpec(n, 16, 10.0) if n == 3 else fl.GridSpec(2, 32, 12.0)


def test_parse_subspace_id():
    assert rp.parse_subspace_id("TildeH(1,+)") is rp.SubspaceId.TildeH1Plus
    assert rp.parse_subspace_id("TildeH1Plus") is rp.SubspaceId.TildeH1Plus
    with pytest.raises(KeyError):
        rp.parse_subspace_id("TildeH(9,+)")


def test_identity_shortcut_returns_fresh_copy():
    spec = _spec(2)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, 0)
    out = rp.natural_rep(sp.identity_element(2), f)
    assert out is not f and out.data is not f.data
    assert np.array_equal(out.data, f.data)


@pytest.mark.parametrize("n", [2, 3])
def test_natural_rep_unitary_and_compositional_on_grid_moves(n):
    spec = _spec(n)
    algebra = "Cl2" if n == 2 else "H"
    f = fl.make_band_limited_random(spec, algebra, 0.4, n)
    s = _quarter_turn(n)
    b1 = np.zeros(n)
    b1[0] = 3 * spec.h
    g1 = sp.GroupElement(1.0, s, b1)
    g2 = sp.GroupElement(1.0, s * s, np.zeros(n))
    assert abs(fl.norm(rp.natural_rep(g1, f)) - fl.norm(f)) < 1e-12 * fl.norm(f)
    lhs = rp.natural_rep(g1, rp.natural_rep(g2, f))
    rhs = rp.natural_rep(sp.compose(g1, g2), f)
    assert fl.rel_error(lhs, rhs) < 1e-12


def test_spectral_route_single_mode_bookkeeping():
    # one even-offset mode under (r=2, quarter turn, generic shift): the image
    # bin, the rotor factor, the phase, and the dilation power are all pinned
    spec = fl.GridSpec(2, 16, 8.0)
    c = np.array([1.7 - 0.3j, 0.0, 0.2j, 0.5], dtype=complex)
    F = fl.SpectralField(spec, "Cl2", np.zeros(spec.shape + (4,), dtype=complex))
    F.data[spec.N // 2 + 4, spec.N // 2 - 2] = c
    s = sp.spin2_from_angle(np.pi / 4)
    b = np.array([0.3, -0.7])
    g = sp.GroupElement(2.0, s, b)
    out = rp.natural_rep_spectral(g, F)
    eta = np.array([1.0, 2.0]) / spec.L  # A(4,-2)/L / r with A the quarter turn
    want_bin = (spec.N // 2 + 1, spec.N // 2 + 2)
    coeff = alg.geometric_product(rp.spin_value_coefficients(s, "Cl2"), c, "Cl2")
    want = (2.0 ** -1) * np.exp(-2j * np.pi * (b @ eta)) * coeff
    assert np.allclose(out.data[want_bin], want, atol=1e-14)
    rest = out.data.copy()
    rest[want_bin] = 0.0
    assert np.max(np.abs(rest)) == 0.0
    via_spatial = fl.spectral_forward(rp.natural_rep(g, fl.spectral_inverse(F)))
    assert np.linalg.norm(out.data - via_spatial.data) < 1e-13 * np.linalg.norm(out.data)


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_induced_rep_matches_longhand_evaluation(r):
    spec = fl.GridSpec(3, 16, 10.0)
    member = rp.random_subspace_member(rp.SubspaceId.TildeH1Plus, spec, 7)
    s = _quarter_turn(3)
    b = np.array([0.37, -1.21, 0.05])
    g = sp.GroupElement(r, s, b)
    out = rp.induced_rep("+", g, member)

    A_inv = sp.rotation_matrix(s).T
    K = np.indices(spec.shape)
    y = [-spec.L / 2 + spec.h * K[a] for a in range(3)]
    idx = []
    for a in range(3):
        xa = r * sum(A_inv[a, bb] * y[bb] for bb in range(3))
        j = np.round((xa + spec.L / 2) / spec.h).astype(int)
        assert np.max(np.abs((xa + spec.L / 2) / spec.h - j)) < 1e-9
        idx.append(j % spec.N)
    sampled = member.data[tuple(idx)]
    val = alg.geometric_product(rp.spin_value_coefficients(s, "H"), sampled, "H")
    phase = np.exp(2j * np.pi * sum(b[a] * y[a] for a in range(3)))
    want = r ** 1.5 * phase[..., None] * val
    assert np.linalg.norm(out.data - want) < 1e-12 * np.linalg.norm(want)


def test_induced_rep_guards_its_domain():
    spec = fl.GridSpec(3, 16, 10.0)
    raw = fl.make_band_limited_random(spec, "H", 0.3, 8)
    g = sp.GroupElement(1.0, _quarter_turn(3), np.zeros(3))
    with pytest.raises(rp.SubspaceMembershipError) as exc:
        rp.induced_rep("+", g, raw, rp.SubspaceId.TildeH1Plus)
    assert exc.value.residual > 1e-8
    member = rp.random_subspace_member(rp.SubspaceId.TildeH1Plus, spec, 9)
    with pytest.raises(ValueError):
        rp.induced_rep("-", g, member, rp.SubspaceId.TildeH1Plus)
    with pytest.raises(ValueError):
        rp.induced_rep("+", g, member, rp.SubspaceId.QHardy1Plus)


@pytest.mark.parametrize(
    "id",
    [
        rp.SubspaceId.TildeH1Plus,
        rp.SubspaceId.PrimeH3Minus,
        rp.SubspaceId.TildeTildeH2Plus,
    ],
)
def test_induced_rep_preserves_membership(id):
    info = rp.SUBSPACE_INFO[id]
    spec = _spec(info.n)
    member = rp.random_subspace_member(id, spec, 10)
    sign = "+" if info.sign > 0 else "-"
    s = _quarter_turn(info.n)
    on_grid = np.zeros(info.n)
    on_grid[-1] = -2 * spec.h
    for b in (on_grid, np.full(info.n, 0.271)):
        out = rp.induced_rep(sign, sp.GroupElement(1.0, s, b), member, id)
        assert rp.subspace_membership_residual(id, out) < 1e-10


@pytest.mark.parametrize("id", rp.QHARDY_IDS, ids=lambda s: s.value)
def test_qhardy_projection_matches_the_fourier_side_formula(id):
    spec = fl.GridSpec(3, 16, 10.0)
    f = fl.make_band_limited_random(spec, "H", 0.5, 8)
    info = rp.SUBSPACE_INFO[id]
    F = fl.spectral_forward(f)
    chi = tr.chi_multiplier_array(spec, "H", info.sign)
    proj = np.einsum("ab,...b->...a", alg.pair_projector("H", info.pair), F.data)
    want = fl.spectral_inverse(fl.SpectralField(spec, "H", f.algebra.product(chi, proj)))
    assert fl.rel_error(rp.subspace_project(id, f), want) < 1e-14


def test_natural_rep_preserves_qhardy_with_off_grid_shift():
    spec = fl.GridSpec(3, 16, 10.0)
    member = rp.random_subspace_member(rp.SubspaceId.QHardy2Minus, spec, 11)
    g = sp.GroupElement(1.0, _quarter_turn(3), np.array([0.123, 0.9, -0.4]))
    out = rp.natural_rep(g, member)
    assert rp.subspace_membership_residual(rp.SubspaceId.QHardy2Minus, out) < 1e-10


def test_translations_break_spatial_membership():
    # the pointwise direction factor is anchored at the origin, so a plain
    # shift under the unconditioned action leaves the subspace
    spec = fl.GridSpec(3, 16, 10.0)
    member = rp.random_subspace_member(rp.SubspaceId.TildeH1Plus, spec, 12)
    b = np.zeros(3)
    b[0] = 3 * spec.h
    out = rp.natural_rep(sp.GroupElement(1.0, sp.identity_spin(3), b), member)
    assert rp.subspace_membership_residual(rp.SubspaceId.TildeH1Plus, out) > 1e-2


@pytest.mark.parametrize(
    "src,dst",
    [
        (rp.SubspaceId.TildeH1Plus, rp.SubspaceId.TildeH2Plus),
        (rp.SubspaceId.TildeH1Minus, rp.SubspaceId.TildeH2Minus),
        (rp.SubspaceId.PrimeH1Plus, rp.SubspaceId.PrimeH2Plus),
        (rp.SubspaceId.PrimeH3Plus, rp.SubspaceId.PrimeH4Plus),
        (rp.SubspaceId.TildeTildeH1Plus, rp.SubspaceId.TildeTildeH2Plus),
    ],
)
def test_right_axis_factor_transfers_between_pairs(src, dst):
    spec = _spec(rp.SUBSPACE_INFO[src].n)
    member = rp.random_subspace_member(src, spec, 13)
    moved = rp.intertwiner_right_e1(member)
    assert rp.subspace_membership_residual(dst, moved) < 1e-10
    assert abs(fl.norm(moved) - fl.norm(member)) < 1e-13 * fl.norm(member)
    twice = rp.intertwiner_right_e1(moved)
    assert np.linalg.norm(twice.data + member.data) < 1e-14 * np.linalg.norm(member.data)


def test_right_axis_factor_commutes_with_value_action():
    spec = fl.GridSpec(3, 16, 10.0)
    rng = np.random.default_rng(14)
    f = fl.make_band_limited_random(spec, "Cl3", 0.4, 15)
    for _ in range(20):
        s = sp.random_spin(3, rng)
        c = rp.spin_value_coefficients(s, "Cl3")
        lhs = rp.intertwiner_right_e1(fl.left_multiply_constant(c, f))
        rhs = fl.left_multiply_constant(c, rp.intertwiner_right_e1(f))
        assert np.linalg.norm(lhs.data - rhs.data) < 1e-13 * np.linalg.norm(f.data)


def test_central_factor_commutes_and_sorts_the_pairs():
    spec = fl.GridSpec(3, 16, 10.0)
    rng = np.random.default_rng(16)
    f = fl.make_band_limited_random(spec, "Cl3", 0.4, 17)
    for _ in range(20):
        s = sp.random_spin(3, rng)
        c = rp.spin_value_coefficients(s, "Cl3")
        lhs = rp.intertwiner_left_w(fl.left_multiply_constant(c, f))
        rhs = fl.left_multiply_constant(c, rp.intertwiner_left_w(f))
        assert np.linalg.norm(lhs.data - rhs.data) < 1e-13 * np.linalg.norm(f.data)
    # the factor doubles the first two pairs and annihilates the other two
    low = rp.random_subspace_member(rp.SubspaceId.PrimeH1Plus, spec, 18)
    high = rp.random_subspace_member(rp.SubspaceId.PrimeH3Plus, spec, 19)
    assert np.linalg.norm(rp.intertwiner_left_w(low).data - 2 * low.data) < 1e-12 * np.linalg.norm(low.data)
    assert fl.norm(rp.intertwiner_left_w(high)) < 1e-12 * fl.norm(high)
    with pytest.raises(ValueError):
        rp.intertwiner_left_w(rp.random_subspace_member(rp.SubspaceId.TildeH1Plus, spec, 20))


def test_conjugation_map_properties():
    spec = _spec(2)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, 21)
    rho = rp.rho_conjugation_n2(f)
    assert abs(fl.norm(rho) - fl.norm(f)) < 1e-12 * fl.norm(f)
    twice = rp.rho_conjugation_n2(rho)
    assert np.linalg.norm(twice.data + f.data) < 1e-14 * np.linalg.norm(f.data)
    a = 0.8 - 1.1j
    scaled = rp.rho_conjugation_n2(fl.CliffordField(spec, "Cl2", a * f.data))
    assert np.linalg.norm(scaled.data - a * rho.data) < 1e-14 * np.linalg.norm(rho.data)
    plus = tr.hardy_project("+", f)
    minus = tr.hardy_project("-", f)
    assert rp.subspace_membership_residual(rp.SubspaceId.HardyMinus, rp.rho_conjugation_n2(plus)) < 1e-10
    assert rp.subspace_membership_residual(rp.SubspaceId.HardyPlus, rp.rho_conjugation_n2(minus)) < 1e-10
    member = rp.random_subspace_member(rp.SubspaceId.TildeTildeH1Plus, spec, 22)
    swapped = rp.rho_conjugation_n2(member)
    assert rp.subspace_membership_residual(rp.SubspaceId.TildeTildeH1Minus, swapped) < 1e-10
    with pytest.raises(ValueError):
        rp.rho_conjugation_n2(fl.make_band_limited_random(fl.GridSpec(3, 16, 10.0), "Cl3", 0.3, 23))


def test_value_action_rejects_mismatched_rotor():
    with pytest.raises(ValueError):
        rp.spin_value_coefficients(sp.spin2_from_angle(0.3), "Cl3")


@pytest.mark.parametrize("value_algebra,n", [("Cl2", 2), ("H", 3), ("Cl3", 3)])
def test_multiplier_equivariance_sampled(value_algebra, n):
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(200):
        s = sp.random_spin(n, rng)
        xi = rng.standard_normal(n)
        if np.linalg.norm(xi) < 1e-6:
            continue
        worst = max(worst, rp.multiplier_equivariance_residual(s, xi, value_algebra))
    assert worst < 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_riesz_covariance_for_quarter_turns(n):
    spec = _spec(n)
    algebra = "Cl2" if n == 2 else "Cl3"
    f = fl.make_band_limited_random(spec, algebra, 0.4, 25)
    g = sp.GroupElement(1.0, _quarter_turn(n), np.zeros(n))
    assert rp.riesz_covariance_residual(g.s, f, mode="grid") < 1e-12


def _zero_cl2_field():
    spec = fl.GridSpec(2, 8, 4.0)
    return fl.CliffordField(spec, "Cl2", np.zeros(spec.shape + (4,), dtype=complex))


@pytest.mark.parametrize("sign", ["+", "-"])
def test_hilbert_eigen_check_refuses_a_zero_field(sign):
    with pytest.raises(ValueError):
        rp.hilbert_eigen_check(sign, _zero_cl2_field())


def test_commutant_dimensions_at_the_small_size():
    r1 = rp.commutant_dimension_experiment(fl.GridSpec(3, 16, 10.0), restriction="S2")
    assert r1.dimension == 2
    assert r1.i_residual < 1e-8 and r1.h_residual < 1e-8
    assert not r1.under_sampled
    r2 = rp.commutant_dimension_experiment(fl.GridSpec(3, 16, 10.0), restriction="full")
    assert r2.dimension == 8
    assert r2.note
    r3 = rp.commutant_dimension_experiment(fl.GridSpec(2, 16, 12.0), restriction="S2")
    assert r3.dimension == 4
    assert r3.i_residual < 1e-8 and r3.h_residual < 1e-8


def test_shift_commutant_toy_is_diagonalized_by_the_dft():
    report = rp.translations_force_multiplier_toy(N=8, seed=3)
    assert report.dimension == report.expected == 8
    assert report.offdiagonal_residual < 1e-10


@pytest.mark.parametrize("mode", ["grid", "modes"])
def test_residuals_refuse_a_zero_field(mode):
    zero = _zero_cl2_field()
    s = _quarter_turn(2)
    with pytest.raises(ValueError):
        rp.commutation_residual(sp.GroupElement(1.0, s, np.zeros(2)), zero, mode=mode)
    with pytest.raises(ValueError):
        rp.riesz_covariance_residual(s, zero, mode=mode)


@pytest.mark.parametrize(
    "residual",
    [
        lambda f: rp.subspace_membership_residual(rp.SubspaceId.HardyPlus, f),
        lambda f: rp.subspace_membership_residual(rp.SubspaceId.TildeTildeH1Plus, f),
        lambda f: rp._spatial_half_residual(1, f),
    ],
    ids=["HardyPlus", "TildeTildeH1Plus", "half_space"],
)
def test_membership_residuals_refuse_a_zero_field(residual):
    with pytest.raises(ValueError):
        residual(_zero_cl2_field())


@pytest.mark.parametrize("subspace", [None, rp.SubspaceId.TildeTildeH1Plus])
def test_induced_rep_refuses_a_zero_field(subspace):
    g = sp.GroupElement(1.0, _quarter_turn(2), np.zeros(2))
    with pytest.raises(ValueError):
        rp.induced_rep("+", g, _zero_cl2_field(), subspace)
