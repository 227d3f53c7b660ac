import contextlib
import pickle
import tracemalloc

import numpy as np
import pytest

from cliffharm import algebra as alg
from cliffharm import fields as fl
from cliffharm import representations as rp
from cliffharm import spin as sp
from cliffharm import transforms as tr
from test_fields import _quarter_turn_rotors


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
    for member in rp.SubspaceId:
        assert rp.parse_subspace_id(member.value) is member
        assert rp.parse_subspace_id(member.name) is member
    assert set(rp.SUBSPACE_INFO) == set(rp.SubspaceId)


def test_catalogue_ids_survive_pickle():
    for member in (rp.SubspaceId.QHardy1Plus, alg.IdealId.W2minusE1E3):
        assert pickle.loads(pickle.dumps(member)) is member


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


_PAIR_FAMILIES = sorted({(id.value.split("(")[0], info.pair) for id, info in rp.SUBSPACE_INFO.items() if info.pair})


@pytest.mark.parametrize("N", [16, 32])
@pytest.mark.parametrize("family,pair", _PAIR_FAMILIES)
def test_qhardy_halves_split_the_pair_part_and_are_idempotent(family, pair, N):
    ids = [id for id in rp.SubspaceId if id.value.startswith(f"{family}({pair},")]
    info = rp.SUBSPACE_INFO[ids[0]]
    spec = fl.GridSpec(info.n, N, 10.0)
    f = fl.make_band_limited_random(spec, info.value_algebra, 0.5, N + pair)
    if info.domain == "spatial":
        f.data[(N // 2,) * info.n] = 0.0  # chi(x/|x|) is 1/2 at the origin sample, as chi(xi/|xi|) at xi = 0
    plus, minus = (rp.subspace_project(id, f) for id in ids)
    pf = f._like(np.einsum("ab,...b->...a", alg.pair_projector(info.value_algebra, pair), f.data))
    assert fl.rel_error(plus._like(plus.data + minus.data), pf) < 1e-13
    for id, half in zip(ids, (plus, minus)):
        assert fl.rel_error(rp.subspace_project(id, half), half) < 1e-12


def _dense_spatial_projection(id, f):
    """The pair part through the dim x dim projector, then the whole
    chi(x/|x|) array through Algebra.product: a reference kept apart from the
    spinor coordinates of transforms.pair_spatial_project."""
    info = rp.SUBSPACE_INFO[id]
    pf = np.einsum("ab,...b->...a", alg.pair_projector(f.value_algebra, info.pair), f.data)
    return f._like(f.algebra.product(rp._chi_spatial_array(f, info.sign), pf))


_SPATIAL_CASES = [(id, N) for ids, N in ((rp.QUATERNION_SPATIAL_IDS, 16), (rp.QUATERNION_SPATIAL_IDS, 32),
                                         (rp.CL3_SPATIAL_IDS, 32), (rp.CL2_SPATIAL_IDS, 64)) for id in ids]


@pytest.mark.parametrize("id,N", _SPATIAL_CASES, ids=[f"{id.value}-{N}" for id, N in _SPATIAL_CASES])
def test_spatial_projection_matches_the_dense_route(id, N):
    info = rp.SUBSPACE_INFO[id]
    spec = fl.GridSpec(info.n, N, 10.0)
    raw = fl.make_band_limited_random(spec, info.value_algebra, 0.5, N)
    for f in (raw, rp.random_subspace_member(id, spec, N + 1)):
        assert fl.rel_error(rp.subspace_project(id, f), _dense_spatial_projection(id, f)) < 1e-14


@pytest.mark.parametrize("name,pair", list(alg._PAIR_VECS))
def test_pair_hardy_projection_matches_the_whole_field_route_on_every_pair(name, pair):
    n = alg.SPATIAL_DIM[name]
    spec = fl.GridSpec(n, 16, 7.0) if n == 3 else fl.GridSpec(2, 64, 7.0)
    f = fl.make_band_limited_random(spec, name, 0.5, pair)
    pf = f._like(np.einsum("ab,...b->...a", alg.pair_projector(name, pair), f.data))
    for sign in (1, -1):
        assert fl.rel_error(tr.pair_hardy_project(sign, f, pair), tr.hardy_project(sign, pf)) < 1e-14


@pytest.mark.parametrize("ids", [rp.QHARDY_IDS, rp.QUATERNION_SPATIAL_IDS], ids=["QHardy", "TildeH"])
def test_qhardy_memory_stays_near_twice_the_field(ids):
    """The spinor coordinates are one component each.  The route through the
    whole-field Hardy projection peaked at 4x the field's bytes, and the
    spatial ids' dense projector and chi(x/|x|) array at 3.1x.  tracemalloc
    sees numpy's heap arrays but not the result's own memory mapping, so the
    result's bytes are added to the traced peak."""
    f = fl.make_band_limited_random(fl.GridSpec(3, 32, 10.0), "H", 0.4, 3)
    for id in ids:
        tracemalloc.start()
        try:
            out = rp.subspace_project(id, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = peak + (0 if out.data.flags.owndata else out.data.nbytes)
        assert held < 2.5 * f.data.nbytes, (id.value, held / f.data.nbytes)


@pytest.mark.parametrize("band", [0.2, 1.0])
def test_axis_permuting_natural_rep_holds_two_field_sized_arrays(band):
    # the phase sum peaked at 3.4x the field's bytes at band 0.2 and 48x at full band
    spec = fl.GridSpec(3, 32, 10.0)
    f = fl.make_band_limited_random(spec, "H", band, 32)
    g = sp.GroupElement(1.0, _quarter_turn(3), np.array([0.31, -0.52, 0.17]))
    assert not fl.is_grid_preserving(g, spec)
    tracemalloc.start()
    try:
        rp.natural_rep(g, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * f.data.nbytes, peak / f.data.nbytes


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


def test_nullspace_of_a_wide_matrix_pads_it_to_a_full_right_factor():
    # 4 x 6 of rank 2: without the zero rows, Vh would have 4 rows and miss 2 null directions
    rng = np.random.default_rng(5)
    left = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    R = left @ (rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6)))
    sv, rank, null = rp._nullspace(R, 1e-8)
    assert rank == 2 and sv.shape == (6,) and null.shape == (4, 6)
    assert np.allclose(sv[:4], np.linalg.svd(R, compute_uv=False), rtol=1e-12)
    assert np.linalg.norm(R @ null.conj().T) < 1e-12 * np.linalg.norm(R)
    assert np.allclose(null @ null.conj().T, np.eye(4), atol=1e-12)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("subspace", [None, rp.SubspaceId.TildeH1Plus])
def test_induced_rep_refuses_a_non_finite_field(subspace, bad):
    """A non-finite sample makes the membership residual NaN, which must not
    read as a pass."""
    spec = fl.GridSpec(3, 8, 10.0)
    member = rp.random_subspace_member(rp.SubspaceId.TildeH1Plus, spec, 13)
    g = sp.GroupElement(1.0, _quarter_turn(3), np.zeros(3))
    rp.induced_rep("+", g, member, subspace)
    member.data[1, 2, 3, 0] = bad
    with pytest.raises(rp.SubspaceMembershipError, match="residual nan"):
        rp.induced_rep("+", g, member, subspace)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("subspace", [rp.SubspaceId.TildeH1Plus, rp.SubspaceId.QHardy1Plus, rp.SubspaceId.HardyPlus])
def test_membership_residual_refuses_a_non_finite_field(subspace, bad):
    """A NaN residual passes a `residual > tol` test, and an inf sample makes
    numpy warn: either is refused by type before the projection runs."""
    member = rp.random_subspace_member(rp.SubspaceId.TildeH1Plus, fl.GridSpec(3, 8, 10.0), 13)
    member.data[1, 2, 3, 0] = bad
    with pytest.raises(rp.SubspaceMembershipError, match=r"non-finite sample \(residual nan\)"):
        rp.subspace_membership_residual(subspace, member)


def _refuse_transforms(monkeypatch):
    """Make every transform and resample the residuals reach fail loudly."""
    def boom(*args, **kwargs):
        raise AssertionError("a transform ran before the refusal")

    for module, name in ((rp, "hilbert"), (rp, "hardy_project"), (fl, "spectral_forward"), (fl, "resample_action")):
        monkeypatch.setattr(module, name, boom)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("residual", [
    lambda f, g: fl.rel_error(f._like(np.ones_like(f.data)), f),
    lambda f, g: fl.rel_error(f, f._like(np.ones_like(f.data))),
    lambda f, g: rp.hilbert_eigen_check("+", f),
    lambda f, g: rp.commutation_residual(g, f, mode="grid"),
], ids=["rel_error_reference", "rel_error_field", "hilbert_eigen_check", "commutation_grid"])
def test_residuals_refuse_a_non_finite_field(monkeypatch, residual, bad):
    """A NaN residual passes a `residual > tol` test, and an inf sample makes
    numpy warn: each residual refuses either by type, before any transform.
    (The modes route refuses through occupied_modes, after its transform.)"""
    f = fl.make_band_limited_random(_spec(3), "H", 0.3, 17)
    g = sp.GroupElement(1.3, _quarter_turn(3), np.array([0.2, -0.1, 0.4]))
    residual(f, g)
    f.data[1, 2, 3, 0] = bad
    _refuse_transforms(monkeypatch)
    with pytest.raises(ValueError, match="non-finite sample") as exc:
        residual(f, g)
    assert type(exc.value) is ValueError


def _dense_half_residual(sign, f):
    """|| f - chi_sign(x/|x|) f || / || f || with the whole chi array, written
    here from the symbol's definition, through Algebra.product."""
    X = f.spec.coords()
    mag = np.sqrt(sum(x * x for x in X))
    chi = np.zeros(f.data.shape, dtype=complex)
    chi[..., 0] = 0.5
    for j, x in enumerate(X):
        chi[..., j + 1] = sign * 0.5j * np.divide(x, mag, out=np.zeros_like(x), where=mag != 0)
    chi_f = f.algebra.product(chi, f.data)
    return np.linalg.norm(f.data - chi_f) / np.linalg.norm(f.data), chi_f


@pytest.mark.parametrize("value_algebra, n, N", [("H", 3, 16), ("Cl3", 3, 16), ("Cl2", 2, 64)])
@pytest.mark.parametrize("sign", [1, -1])
def test_half_space_residual_matches_the_dense_route(value_algebra, n, N, sign):
    f = fl.make_band_limited_random(fl.GridSpec(n, N, 10.0), value_algebra, 0.5, N + sign)
    want = _dense_half_residual(sign, f)[0]
    assert 0.3 < want < 1
    assert abs(rp._spatial_half_residual(sign, f) - want) <= 1e-14
    # a member of the half-space: chi f with f zero at the origin, where chi is 1/2
    f.data[(N // 2,) * n] = 0.0
    member = f._like(_dense_half_residual(sign, f)[1])
    want = _dense_half_residual(sign, member)[0]
    assert want < 1e-15
    assert abs(rp._spatial_half_residual(sign, member) - want) <= 1e-14
    assert rp._spatial_half_residual(-sign, member) > 0.99


@pytest.mark.parametrize("subspace", [None, rp.SubspaceId.TildeTildeH1Plus])
def test_induced_rep_refuses_a_zero_field(subspace):
    g = sp.GroupElement(1.0, _quarter_turn(2), np.zeros(2))
    with pytest.raises(ValueError):
        rp.induced_rep("+", g, _zero_cl2_field(), subspace)


def _chi_per_point(f, sign, section):
    """The section-gauged factor one grid point at a time: a reference kept
    apart from the batched assembly in rp._chi_spatial_array."""
    a = f.value_algebra
    ref = tr._symbol(np.eye(f.spec.n)[-1][:, None], a, 0.5, sign * 0.5j)[0]
    pts = np.stack([c.ravel() for c in f.spec.coords()], axis=-1)
    out = np.zeros((pts.shape[0], f.algebra.dim), dtype=complex)
    for k, x in enumerate(pts):
        mag = np.linalg.norm(x)
        if mag == 0:
            out[k, 0] = 0.5
            continue
        s = section(x / mag)
        sval = rp.spin_value_coefficients(s, a)
        sinv = rp.spin_value_coefficients(s.inverse(), a)
        out[k] = alg.geometric_product(alg.geometric_product(sval, ref, a), sinv, a)
    return out.reshape(f.spec.shape + (f.algebra.dim,))


def _regauged(w):
    """The reference section times a direction-dependent rotor fixing e_n:
    a turn about e3 for n = 3, a sign (the whole stabiliser) for n = 2."""
    w = np.asarray(w)
    if w.shape[-1] == 2:
        return sp.section_s_omega(w) * sp.SpinElement(2, np.where(w[..., :1] > 0, -1.0, 1.0) * np.eye(4)[0])
    return sp.section_s_omega(w) * sp.spin3_from_axis_angle([0.0, 0.0, 1.0], 0.7 + w[..., 0])


@pytest.mark.parametrize("section", [sp.section_s_omega, _regauged], ids=["reference", "regauged"])
@pytest.mark.parametrize("value_algebra,n,N", [("H", 3, 8), ("Cl3", 3, 8), ("Cl2", 2, 16)])
@pytest.mark.parametrize("sign", [1, -1])
def test_section_path_matches_the_per_point_sandwich(section, value_algebra, n, N, sign):
    f = fl.zero_field(fl.GridSpec(n, N, 10.0), value_algebra)
    got = rp._chi_spatial_array(f, sign, section)
    assert np.max(np.abs(got - _chi_per_point(f, sign, section))) <= 1e-15
    # and any valid section gives the direct factor
    assert np.max(np.abs(got - rp._chi_spatial_array(f, sign))) <= 1e-12


def test_section_with_non_unit_rotors_is_refused():
    f = fl.make_band_limited_random(_spec(3), "H", 0.3, 5)

    def stretched(w):
        return sp.SpinElement(3, 1.5 * sp.section_s_omega(w).coeffs)

    with pytest.raises(ValueError, match="rotor norm"):
        rp.subspace_project(rp.SubspaceId.TildeH1Plus, f, section=stretched)


@pytest.mark.parametrize("id", [rp.SubspaceId.QHardy1Plus, rp.SubspaceId.HardyPlus, rp.SubspaceId.HardyMinus])
def test_section_is_refused_for_fourier_side_ids(id):
    f = fl.make_band_limited_random(_spec(3), "H", 0.3, 5)
    with pytest.raises(ValueError, match="not a spatial subspace"):
        rp.subspace_project(id, f, section=sp.section_s_omega)


def _constants_each_caller_passes():
    """(algebra, constant) for every kind of left factor the library hands to
    left_multiply_constant: rotor values, the two basis constants and vector
    embeddings."""
    rng = np.random.default_rng(41)
    out = [pytest.param("Cl2", rp._E2E1, id="e2e1"), pytest.param("Cl3", rp._ONE_MINUS_E123, id="1-e123")]
    for va, n in (("Cl2", 2), ("Cl3", 3), ("H", 3)):
        out += [pytest.param(va, rp.spin_value_coefficients(sp.random_spin(n, rng), va), id=f"{va}-rotor{k}")
                for k in range(3)]
        out += [pytest.param(va, alg.vector_embed(e, va, n), id=f"{va}-e{j + 1}") for j, e in enumerate(np.eye(n))]
    return out


@pytest.mark.parametrize("value_algebra,c", _constants_each_caller_passes())
def test_left_multiply_constant_equals_the_product_kernel_bit_for_bit(value_algebra, c):
    n = alg.SPATIAL_DIM[value_algebra]
    # 4096 points: two blocks of the blade loop, eight of the product kernel
    spec = fl.GridSpec(n, 64 if n == 2 else 16, 10.0)
    rng = np.random.default_rng(42)
    shape = spec.shape + (alg.get_algebra(value_algebra).dim,)
    f = fl.CliffordField(spec, value_algebra, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    got = fl.left_multiply_constant(c, f)
    assert np.array_equal(got.data, f.algebra.product(c, f.data))


@pytest.mark.parametrize("n", [2, 3])
def test_spectral_route_and_mode_residual_equal_their_geometric_product_forms(n):
    spec, value_algebra = _spec(n), "Cl2" if n == 2 else "H"
    f = fl.make_band_limited_random(spec, value_algebra, 0.3, 43)
    F = fl.spectral_forward(f)
    occ, xi = fl.occupied_modes(F)
    c = F.data[tuple(occ.T)]
    rng = np.random.default_rng(44)
    quarter = _quarter_turn(n)
    for s in (quarter, quarter * quarter, -quarter):
        # on-grid assembly: quarter turns map bins onto bins
        g = sp.GroupElement(1.0, s, rng.standard_normal(n))
        xi_out = xi @ sp.rotation_matrix(s).T
        vals = alg.geometric_product(rp.spin_value_coefficients(s, value_algebra), c, value_algebra)
        bins = tuple(np.round(xi_out * spec.L + spec.N / 2).astype(int).T)
        want = np.zeros_like(F.data)
        want[bins] = np.exp(-2j * np.pi * (xi_out @ g.b))[:, None] * vals
        assert np.array_equal(rp.natural_rep_spectral(g, F).data, want)
    for _ in range(3):
        g = sp.GroupElement(float(rng.uniform(0.5, 2.0)), sp.random_spin(n, rng), rng.standard_normal(n))
        sval = rp.spin_value_coefficients(g.s, value_algebra)
        eta = (xi @ sp.rotation_matrix(g.s).T) / g.r
        gp = lambda x, y: alg.geometric_product(x, y, value_algebra)  # noqa: E731
        lhs = gp(tr._symbol(eta.T, value_algebra, 0, 1j), gp(sval, c))
        rhs = gp(sval, gp(tr._symbol(xi.T, value_algebra, 0, 1j), c))
        want = float(np.sqrt(float(np.sum(np.abs(lhs - rhs) ** 2)) / float(np.sum(np.abs(c) ** 2))))
        assert rp.commutation_residual(g, f, mode="modes") == want


@pytest.mark.parametrize("value_algebra", ["Cl2", "H", "Cl3"])
def test_natural_rep_on_grid_moves_is_the_rotor_times_the_permuted_samples_bit_for_bit(value_algebra):
    n = alg.SPATIAL_DIM[value_algebra]
    spec = fl.GridSpec(n, 16 if n == 2 else 8, 7.3)
    rng = np.random.default_rng(45)
    shape = spec.shape + (alg.get_algebra(value_algebra).dim,)
    f = fl.CliffordField(spec, value_algebra, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if n == 2:
        turns = [sp.spin2_from_angle(k * np.pi / 4) for k in (-1, 1, 2)]
    else:
        turns = [sp.spin3_from_axis_angle(e, t) for e in np.eye(3) for t in (-np.pi / 2, np.pi / 2)]
    for s in turns + [-s for s in turns]:
        for steps in (np.zeros(n), rng.integers(-spec.N, spec.N + 1, size=n)):
            g = sp.GroupElement(1.0, s, spec.h * steps)
            assert fl.is_grid_preserving(g, spec)
            want = fl.left_multiply_constant(rp.spin_value_coefficients(s, value_algebra), fl.resample_action(g, f))
            assert np.array_equal(rp.natural_rep(g, f).data, want.data)


@pytest.mark.parametrize("value_algebra", ["Cl2", "H", "Cl3"])
@pytest.mark.parametrize("r", [0.5, 2.0])
def test_natural_rep_off_grid_is_the_weight_and_rotor_times_the_resampled_samples(value_algebra, r):
    n = alg.SPATIAL_DIM[value_algebra]
    spec = fl.GridSpec(n, 16 if n == 2 else 8, 7.3)
    f = fl.make_band_limited_random(spec, value_algebra, 0.4, 46)
    rng = np.random.default_rng(47)
    rotors = [sp.random_spin(n, rng) for _ in range(3)] + _quarter_turn_rotors(n)
    for s in rotors:
        g = sp.GroupElement(r, s, rng.standard_normal(n))
        assert not fl.is_grid_preserving(g, spec)
        rotated = fl.left_multiply_constant(rp.spin_value_coefficients(g.s, value_algebra), fl.resample_action(g, f))
        want = r ** (-n / 2) * rotated.data
        assert np.linalg.norm(rp.natural_rep(g, f).data - want) <= 1e-13 * np.linalg.norm(want)


def _resample(g, f):
    return fl.resample_action(g, f)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", [
    pytest.param(_resample, id="resample_action"),
    pytest.param(lambda g, f: rp.natural_rep_spectral(g, fl.spectral_forward(f)), id="natural_rep_spectral"),
    pytest.param(lambda g, f: rp.commutation_residual(g, f, mode="modes"), id="commutation_residual"),
    pytest.param(lambda g, f: rp.riesz_covariance_residual(g.s, f, mode="modes"), id="riesz_covariance_residual"),
])
def test_a_non_finite_sample_is_refused_not_read_as_an_empty_spectrum(call, bad):
    spec = fl.GridSpec(2, 16, 8.0)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, 48)
    f.data[3, 5, 1] = bad
    # a general rotor, and a quarter turn (an axis permutation) that
    # resample_action moves without any transform
    for angle, resample_transforms in ((0.4, True), (np.pi / 4, False)):
        g = sp.GroupElement(1.3, sp.spin2_from_angle(angle), np.array([0.21, -0.37]))
        assert not fl.is_grid_preserving(g, spec)
        # numpy's FFT warns when an infinite sample meets inf - inf
        transforms = resample_transforms or call is not _resample
        warns = pytest.warns(RuntimeWarning, match="invalid value") if np.isinf(bad) and transforms else contextlib.nullcontext()
        with pytest.raises(ValueError, match="non-finite"), warns:
            call(g, f)
