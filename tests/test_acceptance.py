"""Acceptance gate: one criterion per test, one printed verdict line each.

The verdict lines print with capture suspended so they are always visible
in the run log.  Tolerances are pinned; grids named in a criterion are
pinned too and must not be shrunk for speed.
"""

import numpy as np
import pytest

import symbolic_oracle as so
from cliffharm import algebra as alg
from cliffharm import fields as fl
from cliffharm import representations as rp
from cliffharm import spin as sp
from cliffharm import suites
from cliffharm import transforms as tr


@pytest.fixture()
def verdict(capfd):
    def _verdict(num, passed, detail):
        tag = "PASS" if passed else "FAIL"
        with capfd.disabled():
            print(f"\nAC-{num:02d} {tag} {detail}", flush=True)
        assert passed, f"AC-{num:02d}: {detail}"

    return _verdict


def _quarter_spin(n, rng):
    if n == 2:
        return sp.spin2_from_angle(rng.integers(0, 4) * np.pi / 4)
    s = sp.identity_spin(3)
    for _ in range(rng.integers(1, 4)):
        axis = np.zeros(3)
        axis[rng.integers(0, 3)] = 1.0
        s = s * sp.spin3_from_axis_angle(axis, rng.integers(1, 4) * np.pi / 2)
    return s


def _grid_element(spec, rng):
    b = spec.h * rng.integers(-spec.N // 4, spec.N // 4 + 1, size=spec.n)
    return sp.GroupElement(1.0, _quarter_spin(spec.n, rng), b.astype(float))


def test_ac01_algebra_tables_and_ideals(verdict):
    worst_table = 0.0
    for name, n in (("Cl2", 2), ("Cl3", 3)):
        a = alg.get_algebra(name)
        for i in range(a.dim):
            for j in range(a.dim):
                ei, ej = np.zeros(a.dim), np.zeros(a.dim)
                ei[i], ej[j] = 1.0, 1.0
                got = alg.geometric_product(ei, ej, a)
                want = so.mv_to_coeffs(so.mv_mul(so.mv_from_coeffs(ei, n), so.mv_from_coeffs(ej, n)), n)
                worst_table = max(worst_table, float(np.max(np.abs(got - want))))
    rng = np.random.default_rng(101)
    worst_assoc = 0.0
    for name in ("Cl2", "Cl3"):
        a = alg.get_algebra(name)
        x, y, z = (rng.standard_normal((10_000, a.dim)) + 1j * rng.standard_normal((10_000, a.dim)) for _ in range(3))
        lhs = alg.geometric_product(alg.geometric_product(x, y, a), z, a)
        rhs = alg.geometric_product(x, alg.geometric_product(y, z, a), a)
        scale = np.max(np.abs(lhs))
        worst_assoc = max(worst_assoc, float(np.max(np.abs(lhs - rhs)) / scale))
    idems = [
        ("H", np.array([0.5, 0, 0, -0.5j])),
        ("Cl3", np.array([0.25, 0, 0, -0.25j, -0.25j, 0, 0, -0.25])),
        ("Cl2", np.array([0.5, 0.5, 0.5j, -0.5j])),
    ]
    worst_idem = 0.0
    for name, p in idems:
        worst_idem = max(worst_idem, float(np.max(np.abs(alg.geometric_product(p, p, name) - p))))
    worst_close = 0.0
    for id in alg.IdealId:
        name, pair = alg.IDEAL_PAIR[id]
        a = alg.get_algebra(name)
        P = alg.pair_projector(name, pair)
        gen = alg.ideal_generators(id)[0]
        for k in range(20):
            x = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
            y = alg.geometric_product(x, gen, a)
            res = np.linalg.norm(y - P @ y) / max(np.linalg.norm(y), 1e-30)
            worst_close = max(worst_close, float(res))
    ok = worst_table == 0.0 and worst_assoc < 1e-13 and worst_idem < 1e-14 and worst_close < 1e-12
    verdict(1, ok, "product tables exact, associativity {:.2e} (tol 1e-13), idempotents {:.2e} "
                    "(tol 1e-14), ideal closure {:.2e} (tol 1e-12)".format(worst_assoc, worst_idem, worst_close))


def test_ac02_symbol_identities(verdict):
    rng = np.random.default_rng(102)
    worst = 0.0
    for name, n in (("Cl2", 2), ("H", 3), ("Cl3", 3)):
        a = alg.get_algebra(name)
        xi = rng.standard_normal((10_000, n))
        xi = xi[np.linalg.norm(xi, axis=1) > 1e-6]
        unit = xi / np.linalg.norm(xi, axis=1, keepdims=True)
        m = np.zeros((xi.shape[0], a.dim), dtype=complex)
        m[:, 1 : n + 1] = 1j * unit
        one = np.zeros(a.dim)
        one[0] = 1.0
        chip, chim = 0.5 * (one + m), 0.5 * (one - m)
        worst = max(worst, float(np.max(np.abs(alg.geometric_product(m, m, a) - one))))
        worst = max(worst, float(np.max(np.abs(alg.geometric_product(chip, chip, a) - chip))))
        worst = max(worst, float(np.max(np.abs(alg.geometric_product(chim, chim, a) - chim))))
        worst = max(worst, float(np.max(np.abs(alg.geometric_product(chip, chim, a)))))
        worst = max(worst, float(np.max(np.abs(chip + chim - one))))
    verdict(2, worst < 1e-13, f"splitting symbol identities over 10^4 frequencies per algebra, "
                               f"worst {worst:.2e} (tol 1e-13)")


def test_ac03_involution(verdict):
    worst = 0.0
    for spec, name in ((fl.GridSpec(2, 64, 12.0), "Cl2"),
                       (fl.GridSpec(3, 32, 10.0), "H"),
                       (fl.GridSpec(3, 32, 10.0), "Cl3")):
        for seed in range(20):
            f = fl.make_band_limited_random(spec, name, 0.4, seed)
            worst = max(worst, fl.rel_error(tr.hilbert(tr.hilbert(f)), f))
    verdict(3, worst < 1e-11, f"transform squares to the identity on 20 fields per algebra, "
                               f"worst {worst:.2e} (tol 1e-11)")


def test_ac04_dual_routes_agree(verdict):
    worst = 0.0
    for spec, name in ((fl.GridSpec(2, 64, 12.0), "Cl2"), (fl.GridSpec(3, 32, 10.0), "Cl3")):
        for seed in range(5):
            f = fl.make_band_limited_random(spec, name, 0.4, 40 + seed)
            worst = max(worst, fl.rel_error(tr.hilbert(f, "multiplier"), tr.hilbert(f, "riesz_sum")))
    verdict(4, worst < 1e-13, f"multiplier and component-sum routes agree, worst {worst:.2e} (tol 1e-13)")


def test_ac05_quadrature_cross_check(verdict):
    spec = fl.GridSpec(2, 128, 16.0)
    X = spec.coords()
    f = fl.zero_field(spec, "Cl2")
    f.data[..., 0] = np.exp(-np.pi * (X[0] ** 2 + X[1] ** 2))
    res = fl.rel_error(tr.pv_quadrature_riesz(0, f), tr.riesz(0, f))
    verdict(5, res < 1e-3, f"principal-value quadrature vs spectral route at (n=2, N=128, L=16): "
                            f"{res:.2e} (tol 1e-3)")


def test_ac06_boundary_limit(verdict):
    spec = fl.GridSpec(2, 64, 12.0)
    X = spec.coords()
    f = fl.zero_field(spec, "Cl2")
    f.data[..., 0] = np.exp(-np.pi * (X[0] ** 2 + X[1] ** 2) / 16.0)
    half_sum = 0.5 * (f.data + tr.hilbert(f).data)
    fnorm = fl.norm(f)
    totals = []
    for x0 in (0.4, 0.2, 0.1):
        C = tr.cauchy_extend(f, x0)
        diff = fl.CliffordField(spec, "Cl2", C.data - half_sum)
        totals.append(fl.norm(diff) / fnorm)
    ok = totals[0] > totals[1] > totals[2] and totals[2] < 5e-2
    verdict(6, ok, "boundary values approach the jump formula: residuals "
                    + " > ".join(f"{t:.3e}" for t in totals) + " (final tol 5e-2)")


def test_ac07_hardy_eigenrelations(verdict):
    worst = 0.0
    for spec, name in ((fl.GridSpec(2, 64, 12.0), "Cl2"),
                       (fl.GridSpec(3, 32, 10.0), "H"),
                       (fl.GridSpec(3, 32, 10.0), "Cl3")):
        for seed in range(100):
            f = fl.make_band_limited_random(spec, name, 0.4, seed)
            for sign in ("+", "-"):
                worst = max(worst, rp.hilbert_eigen_check(sign, f))
    verdict(7, worst < 1e-10, f"both half-space projections are eigenspaces, 100 fields per algebra, "
                               f"worst {worst:.2e} (tol 1e-10)")


def test_ac08_commutation_with_the_group(verdict):
    worst_exact = 0.0
    rng = np.random.default_rng(108)
    for spec, name in ((fl.GridSpec(2, 32, 12.0), "Cl2"), (fl.GridSpec(3, 16, 10.0), "Cl3")):
        f = fl.make_band_limited_random(spec, name, 0.4, 3)
        for _ in range(100):
            g = _grid_element(spec, rng)
            worst_exact = max(worst_exact, rp.commutation_residual(g, f, mode="grid"))
    worst_modes = 0.0
    for spec, name in ((fl.GridSpec(2, 32, 12.0), "Cl2"), (fl.GridSpec(3, 16, 10.0), "Cl3")):
        f = fl.make_band_limited_random(spec, name, 0.4, 4)
        for _ in range(25):
            g = sp.GroupElement(float(rng.uniform(0.5, 2.0)), sp.random_spin(spec.n, rng),
                                rng.standard_normal(spec.n))
            worst_modes = max(worst_modes, rp.commutation_residual(g, f, mode="modes"))
    ok = worst_exact < 1e-12 and worst_modes < 1e-8
    verdict(8, ok, f"transform commutes with the group action: 200 grid moves {worst_exact:.2e} "
                    f"(tol 1e-12), 50 random elements {worst_modes:.2e} (tol 1e-8)")


def test_ac09_symbol_equivariance(verdict):
    rng = np.random.default_rng(109)
    worst = 0.0
    for name, n, count in (("Cl2", 2, 3334), ("H", 3, 3333), ("Cl3", 3, 3333)):
        for _ in range(count):
            s = sp.random_spin(n, rng)
            xi = rng.standard_normal(n)
            if np.linalg.norm(xi) < 1e-6:
                continue
            worst = max(worst, rp.multiplier_equivariance_residual(s, xi, name))
    verdict(9, worst < 1e-13, f"rotor equivariance of the symbol over 10^4 samples, "
                               f"worst {worst:.2e} (tol 1e-13)")


def test_ac10_component_covariance(verdict):
    rng = np.random.default_rng(110)
    worst_grid = 0.0
    worst_modes = 0.0
    for spec, name in ((fl.GridSpec(2, 32, 12.0), "Cl2"), (fl.GridSpec(3, 16, 10.0), "Cl3")):
        f = fl.make_band_limited_random(spec, name, 0.4, 5)
        for _ in range(8):
            worst_grid = max(worst_grid, rp.riesz_covariance_residual(_quarter_spin(spec.n, rng), f, mode="grid"))
        for _ in range(20):
            worst_modes = max(worst_modes, rp.riesz_covariance_residual(sp.random_spin(spec.n, rng), f, mode="modes"))
    ok = worst_grid < 1e-12 and worst_modes < 1e-8
    verdict(10, ok, f"component covariance under rotations: quarter turns {worst_grid:.2e} "
                     f"(tol 1e-12), random rotors {worst_modes:.2e} (tol 1e-8)")


def test_ac11_orthogonal_decompositions(verdict):
    families = [
        ("H", fl.GridSpec(3, 16, 10.0), rp.QUATERNION_SPATIAL_IDS),
        ("Cl3", fl.GridSpec(3, 16, 10.0), rp.CL3_SPATIAL_IDS),
        ("Cl2", fl.GridSpec(2, 32, 12.0), rp.CL2_SPATIAL_IDS),
    ]
    worst_recon = 0.0
    worst_idem = 0.0
    worst_cross = 0.0
    for name, spec, ids in families:
        f = fl.make_band_limited_random(spec, name, 0.4, 6)
        f.data[tuple([spec.N // 2] * spec.n)] = 0.0
        parts = [rp.subspace_project(id, f) for id in ids]
        recon = sum(p.data for p in parts)
        worst_recon = max(worst_recon, float(np.linalg.norm(recon - f.data) / np.linalg.norm(f.data)))
        for id, p in zip(ids, parts):
            again = rp.subspace_project(id, p)
            worst_idem = max(worst_idem, float(np.linalg.norm(again.data - p.data) / np.linalg.norm(f.data)))
        for i, id_a in enumerate(ids):
            for id_b in ids[i + 1:]:
                cross = rp.subspace_project(id_a, rp.subspace_project(id_b, f))
                worst_cross = max(worst_cross, float(np.linalg.norm(cross.data) / np.linalg.norm(f.data)))
    ok = worst_recon < 1e-12 and worst_idem < 1e-12 and worst_cross < 1e-12
    verdict(11, ok, f"4-way, 8-way, and 4-way splittings: reconstruction {worst_recon:.2e}, "
                     f"idempotency {worst_idem:.2e}, cross products {worst_cross:.2e} (tol 1e-12)")


def test_ac12_subspaces_travel_with_the_group(verdict):
    spec = fl.GridSpec(3, 16, 10.0)
    rng = np.random.default_rng(112)
    moves = [_grid_element(spec, rng) for _ in range(50)]
    worst = 0.0
    for id in rp.QUATERNION_SPATIAL_IDS:
        member = rp.random_subspace_member(id, spec, 7)
        sign = "+" if rp.SUBSPACE_INFO[id].sign > 0 else "-"
        for g in moves:
            out = rp.induced_rep(sign, g, member, id)
            worst = max(worst, rp.subspace_membership_residual(id, out))
    for id in rp.QHARDY_IDS:
        member = rp.random_subspace_member(id, spec, 8)
        for g in moves:
            out = rp.natural_rep(g, member)
            worst = max(worst, rp.subspace_membership_residual(id, out))
    member = rp.random_subspace_member(rp.SubspaceId.TildeH1Plus, spec, 9)
    b = np.zeros(3)
    b[0] = 3 * spec.h
    shifted = rp.natural_rep(sp.GroupElement(1.0, sp.identity_spin(3), b), member)
    escape = rp.subspace_membership_residual(rp.SubspaceId.TildeH1Plus, shifted)
    ok = worst < 1e-10 and escape > 1e-2
    verdict(12, ok, f"50 grid moves preserve every pinned subspace (worst {worst:.2e}, tol 1e-10); "
                     f"an unconditioned translation leaves it (residual {escape:.2e})")


def test_ac13_intertwiners(verdict):
    transfers = [
        (rp.SubspaceId.TildeH1Plus, rp.SubspaceId.TildeH2Plus, fl.GridSpec(3, 16, 10.0)),
        (rp.SubspaceId.TildeH1Minus, rp.SubspaceId.TildeH2Minus, fl.GridSpec(3, 16, 10.0)),
        (rp.SubspaceId.PrimeH1Plus, rp.SubspaceId.PrimeH2Plus, fl.GridSpec(3, 16, 10.0)),
        (rp.SubspaceId.TildeTildeH1Plus, rp.SubspaceId.TildeTildeH2Plus, fl.GridSpec(2, 32, 12.0)),
    ]
    worst_transfer = 0.0
    for src, dst, spec in transfers:
        member = rp.random_subspace_member(src, spec, 10)
        moved = rp.intertwiner_right_e1(member)
        worst_transfer = max(worst_transfer, rp.subspace_membership_residual(dst, moved))
    rng = np.random.default_rng(113)
    a = alg.get_algebra("Cl3")
    c = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))
    e1 = np.zeros(8)
    e1[1] = 1.0
    worst_comm = 0.0
    for _ in range(1000):
        val = rp.spin_value_coefficients(sp.random_spin(3, rng), "Cl3")
        lhs = alg.geometric_product(val, alg.geometric_product(c, e1, a), a)
        rhs = alg.geometric_product(alg.geometric_product(val, c, a), e1, a)
        worst_comm = max(worst_comm, float(np.max(np.abs(lhs - rhs))))
    spec2 = fl.GridSpec(2, 32, 12.0)
    f = fl.make_band_limited_random(spec2, "Cl2", 0.4, 11)
    rho = rp.rho_conjugation_n2(f)
    iso = abs(fl.norm(rho) - fl.norm(f)) / fl.norm(f)
    swap = rp.subspace_membership_residual(rp.SubspaceId.HardyMinus,
                                           rp.rho_conjugation_n2(tr.hardy_project("+", f)))
    ok = worst_transfer < 1e-10 and worst_comm < 1e-13 and iso < 1e-12 and swap < 1e-10
    verdict(13, ok, f"axis transfer {worst_transfer:.2e} (tol 1e-10), rotor commutation over 10^3 "
                     f"spins {worst_comm:.2e} (tol 1e-13), conjugation isometry {iso:.2e} "
                     f"(tol 1e-12), half-space swap {swap:.2e} (tol 1e-10)")


def test_ac14_commutant_dimensions(verdict):
    r_s2 = rp.commutant_dimension_experiment(fl.GridSpec(3, 16, 10.0), restriction="S2")
    r_full = rp.commutant_dimension_experiment(fl.GridSpec(3, 16, 10.0), restriction="full")
    r_n2 = rp.commutant_dimension_experiment(fl.GridSpec(2, 16, 12.0), restriction="S2")
    dims = (r_s2.dimension, r_full.dimension, r_n2.dimension)
    resid = max(max(r.i_residual, r.h_residual) for r in (r_s2, r_full, r_n2))
    ok = dims == (2, 8, 4) and resid < 1e-8 and bool(r_full.note) and "right multiplications" in r_full.note
    verdict(14, ok, f"measured commutant dimensions {dims} match the derived expectations (2, 8, 4); "
                     f"identity and transform sit in every nullspace ({resid:.2e}, tol 1e-8); "
                     f"full-space note: {r_full.note}")


def test_ac15_reports_are_reproducible(verdict):
    cfg1 = suites.SuiteConfig(suite="algebra", seed=77)
    cfg2 = suites.SuiteConfig(suite="algebra", seed=77)
    r1, _ = suites.run_suite(cfg1)
    r2, _ = suites.run_suite(cfg2)
    s1, _ = suites.run_suite(suites.SuiteConfig(suite="subspaces", seed=77))
    s2, _ = suites.run_suite(suites.SuiteConfig(suite="subspaces", seed=77))
    lines1 = suites.report_lines(r1 + s1, 77)[1:]
    lines2 = suites.report_lines(r2 + s2, 77)[1:]
    ok = lines1 == lines2 and len(lines1) > 0
    verdict(15, ok, f"two identical-seed runs agree line for line ({len(lines1)} report rows)")
