"""Named verification suites with machine-readable reports.

Each suite returns a list of cases (suite, case, residual, tol, pass) plus
optional extra payloads used for CSV emission.  Default grids are pinned per
suite so reports are reproducible; explicit n/N/L/seed settings override
them where a case is not locked to its reference configuration.  Tolerance
overrides may only loosen the defaults; tightening is a usage error.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import wraps
from math import isfinite, pi

import numpy as np

from ._version import __version__
from . import algebra as alg
from . import fields as fl
from . import representations as rep
from . import spin as sp
from . import transforms as tr

DEFAULT_SEED = 2024


class UsageError(ValueError):
    """Configuration problems that map to exit code 2."""


@dataclass
class CaseResult:
    suite: str
    case: str
    residual: float
    tol: float
    passed: bool


@dataclass
class SuiteConfig:
    suite: str = "all"
    n: int | None = None
    N: int | None = None
    L: float | None = None
    seed: int = DEFAULT_SEED
    tol_overrides: dict = field(default_factory=dict)
    out: str | None = None

    def __post_init__(self):
        if self.suite != "all" and self.suite not in SUITE_NAMES:
            raise UsageError(
                f"unknown suite {self.suite!r}; choose from {', '.join(SUITE_NAMES)} or all"
            )
        try:  # GridSpec judges n, N and L; an unset n is held to the looser n = 2 cap
            fl.GridSpec(2 if self.n is None else self.n, 8 if self.N is None else self.N,
                        1.0 if self.L is None else self.L)
        except ValueError as err:
            raise UsageError(str(err)) from err
        if self.seed < 0:
            raise UsageError(f"seed must be at least 0, got {self.seed}")
        for k, v in self.tol_overrides.items():
            if not (isfinite(float(v)) and float(v) > 0):
                raise UsageError(f"tolerance for {k} must be positive and finite, got {v}")

    def wants(self, n: int) -> bool:
        return self.n is None or self.n == n

    def tolerance(self, case: str, default: float) -> float:
        if case in self.tol_overrides:
            v = float(self.tol_overrides[case])
            if v < default:
                raise UsageError(
                    f"tolerance for {case} may only be loosened (default {default:g}, requested {v:g})"
                )
            return v
        return default


def _case(cfg: SuiteConfig, suite: str, name: str, residual, default_tol: float) -> CaseResult:
    tol = cfg.tolerance(name, default_tol)
    residual = float(residual)
    return CaseResult(suite, name, residual, tol, residual <= tol)


def _grid(cfg: SuiteConfig, n: int, N: int, L: float) -> fl.GridSpec:
    """The suite's default grid, with --N and --L applied."""
    return fl.GridSpec(n, cfg.N or N, cfg.L or L)


def _grids(cfg: SuiteConfig, *rows) -> list:
    """(grid, *rest) for each row (n, N, L, *rest) whose n the run wants, in row order."""
    return [(_grid(cfg, n, N, L), *rest) for n, N, L, *rest in rows if cfg.wants(n)]


# suite name -> run_<suite>(cfg) returning (cases, extras), in definition order
SUITES = {}


def _suite(rows):
    """Register rows(cfg, extras), a generator of (case, residual,
    default_tol) that may fill extras, as SUITES[<suite>] for its name
    run_<suite>.  The registered run_<suite>(cfg) builds every case before
    it returns (cases, extras)."""
    name = rows.__name__.removeprefix("run_")

    @wraps(rows)
    def run(cfg: SuiteConfig):
        extras = {}
        return [_case(cfg, name, *row) for row in rows(cfg, extras)], extras

    SUITES[name] = run
    return run


# ---------------------------------------------------------------------------
# algebra

@_suite
def run_algebra(cfg: SuiteConfig, extras: dict):
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for name in ("Cl2", "Cl3", "H"):
        a = alg.get_algebra(name)
        for g in range(1, a.gens + 1):
            e = np.zeros(a.dim)
            e[g] = 1.0
            sq = alg.geometric_product(e, e, a)
            sq[0] += 1.0
            worst = max(worst, alg.coeff_norm(sq))
    yield "generators_square_to_minus_one", worst, 0.0

    worst = 0.0
    for name in ("Cl2", "Cl3"):
        a = alg.get_algebra(name)
        for _ in range(700):
            x, y, z = (rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim) for _ in range(3))
            l = alg.geometric_product(alg.geometric_product(x, y, a), z, a)
            r = alg.geometric_product(x, alg.geometric_product(y, z, a), a)
            worst = max(worst, alg.coeff_norm(l - r) / max(alg.coeff_norm(l), 1.0))
    yield "associativity", worst, 1e-13

    idems = [
        ("H", np.array([0.5, 0, 0, -0.5j])),
        ("Cl3", 0.25 * alg.ideal_generators(alg.IdealId.W2plus)[0]),
        ("Cl2", 0.5 * alg.ideal_generators(alg.IdealId.U2plus)[0]),
    ]
    worst = 0.0
    for name, x in idems:
        sq = alg.geometric_product(x, x, name)
        worst = max(worst, alg.coeff_norm(sq - x))
    yield "idempotents", worst, 1e-14

    worst = 0.0
    for ideal in alg.IdealId:
        ambient, j = alg.IDEAL_PAIR[ideal]
        a = alg.get_algebra(ambient)
        P = alg.pair_projector(ambient, j)
        g = alg.ideal_generators(ideal)[0]
        worst = max(worst, alg.coeff_norm(g - P @ g) / alg.coeff_norm(g))
        e = np.zeros(a.dim)
        e[alg.REFERENCE_AXIS_SLOT[ambient]] = 1.0
        prod = alg.geometric_product(e, g, a)
        worst = max(worst, alg.coeff_norm(prod - P @ prod) / alg.coeff_norm(prod))
    yield "ideal_closure", worst, 1e-12

    worst = 0.0
    for ideal, lam in alg.IDEAL_AXIS_EIGENVALUE.items():
        ambient = alg.IDEAL_AMBIENT[ideal]
        a = alg.get_algebra(ambient)
        g = alg.ideal_generators(ideal)[0]
        e = np.zeros(a.dim)
        e[alg.REFERENCE_AXIS_SLOT[ambient]] = 1.0
        worst = max(worst, alg.coeff_norm(alg.geometric_product(e, g, a) - lam * g))
    yield "axis_eigenvalues", worst, 1e-13

    worst = 0.0
    for (name, j) in alg._PAIR_VECS:
        B = alg.pair_basis(name, j)
        worst = max(worst, float(np.linalg.norm(B.conj().T @ B - np.eye(2))))
    yield "pair_orthonormal", worst, 1e-14

    worst = 0.0
    for _ in range(200):
        x = np.zeros(8, dtype=complex)
        y = np.zeros(8, dtype=complex)
        for slot in (0, 4, 5, 6):
            x[slot] = rng.standard_normal() + 1j * rng.standard_normal()
            y[slot] = rng.standard_normal() + 1j * rng.standard_normal()
        lhs = alg.phi_even_to_h(alg.geometric_product(x, y, "Cl3"))
        rhs = alg.geometric_product(alg.phi_even_to_h(x), alg.phi_even_to_h(y), "H")
        worst = max(worst, alg.coeff_norm(lhs - rhs) / max(alg.coeff_norm(lhs), 1.0))
    yield "quaternion_view_homomorphism", worst, 1e-13

    worst = 0.0
    for dim in (4, 8):
        for _ in range(50):
            x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            back = alg.parse_multivector(alg.serialize_multivector(x))
            worst = max(worst, alg.coeff_norm(back - x))
    yield "serialization_roundtrip", worst, 0.0


# ---------------------------------------------------------------------------
# spin

@_suite
def run_spin(cfg: SuiteConfig, extras: dict):
    rng = np.random.default_rng(cfg.seed)
    s90 = sp.spin2_from_angle(pi / 4)
    g = sp.compose(sp.GroupElement(2.0, s90, np.zeros(2)), sp.GroupElement(1.0, sp.identity_spin(2), np.array([1.0, 0.0])))
    res = abs(g.r - 2.0) + alg.coeff_norm(g.s.coeffs - s90.coeffs) + float(np.linalg.norm(g.b - np.array([0.0, 2.0])))
    yield "compose_example", res, 1e-12

    gi = sp.inverse(sp.GroupElement(1.0, s90, np.array([1.0, 0.0])))
    res = abs(gi.r - 1.0) + alg.coeff_norm(gi.s.coeffs - s90.inverse().coeffs) + float(np.linalg.norm(gi.b - np.array([0.0, 1.0])))
    yield "inverse_example", res, 1e-12

    worst = 0.0
    for n in (2, 3):
        for _ in range(100):
            s = sp.random_spin(n, rng)
            A = sp.rotation_matrix(s)
            worst = max(worst, float(np.linalg.norm(A.T @ A - np.eye(n))))
            worst = max(worst, float(np.linalg.norm(sp.rotation_matrix(-s) - A)))
    yield "rotation_orthogonal_double_cover", worst, 1e-12

    worst = 0.0
    for n in (2, 3):
        ref = np.zeros(n)
        ref[-1] = 1.0
        for k in range(200):
            w = rng.standard_normal(n)
            w /= np.linalg.norm(w)
            if k == 0:
                w = -ref  # antipodal fallback direction
            s = sp.section_s_omega(w)
            got = sp.rotation_matrix(s) @ ref
            worst = max(worst, float(np.linalg.norm(got - w)))
    yield "section_maps_reference_axis", worst, 1e-10

    worst = 0.0
    for n in (2, 3):
        for _ in range(20):
            g = sp.GroupElement(float(rng.uniform(0.5, 2.0)), sp.random_spin(n, rng), rng.standard_normal(n))
            h = sp.parse_group_element(sp.serialize_group_element(g))
            worst = max(worst, 0.0 if sp.strictly_equal(g, h) else 1.0)
    yield "serialization_roundtrip", worst, 0.0


# ---------------------------------------------------------------------------
# spectral

@_suite
def run_spectral(cfg: SuiteConfig, extras: dict):
    for spec, algebra in _grids(cfg, (2, 64, 12.0, "Cl2"), (3, 16, 10.0, "H")):
        n = spec.n
        f = fl.make_band_limited_random(spec, algebra, 0.3, cfg.seed + n)
        back = fl.spectral_inverse(fl.spectral_forward(f))
        yield f"roundtrip_n{n}", fl.rel_error(back, f), 1e-13

        g = fl.make_band_limited_random(spec, algebra, 0.3, cfg.seed + 10 + n)
        lhs = fl.inner_product(f, g)
        rhs = fl.inner_product(fl.spectral_forward(f), fl.spectral_forward(g))
        yield f"parseval_n{n}", abs(lhs - rhs) / abs(lhs), 1e-12

        X = spec.coords()
        k = 2
        wave = np.exp(2j * pi * (k / spec.L) * X[0])
        data = np.zeros(spec.shape + (fl.alg.get_algebra(algebra).dim,), dtype=complex)
        data[..., 0] = wave
        F = fl.spectral_forward(fl.CliffordField(spec, algebra, data))
        expect = np.zeros_like(F.data)
        idx = [spec.N // 2] * n
        idx[0] = spec.N // 2 + k
        expect[tuple(idx) + (0,)] = spec.L ** n
        yield f"plane_wave_single_bin_n{n}", fl.rel_error(F, F._like(expect)), 1e-12

    if cfg.wants(2):
        spec = fl.GridSpec(2, 128, 16.0)
        X = spec.coords()
        g2 = np.exp(-pi * (X[0] ** 2 + X[1] ** 2))
        data = np.zeros(spec.shape + (4,), dtype=complex)
        data[..., 0] = g2
        F = fl.spectral_forward(fl.CliffordField(spec, "Cl2", data))
        XI = spec.freqs()
        expect = np.exp(-pi * (XI[0] ** 2 + XI[1] ** 2))
        res = float(np.linalg.norm(F.data[..., 0] - expect) / np.linalg.norm(expect))
        yield "gaussian_self_dual", res, 1e-10

        spec = _grid(cfg, 2, 32, 12.0)
        f = fl.make_band_limited_random(spec, "Cl2", 0.25, cfg.seed + 3)
        up = fl.spectral_upsample(f, 4)
        sl = tuple(slice(None, None, 4) for _ in range(2))
        yield "upsample_subsample_consistency", fl.rel_error(f._like(up.data[sl]), f), 1e-12


# ---------------------------------------------------------------------------
# hilbert

@_suite
def run_hilbert(cfg: SuiteConfig, extras: dict):
    for spec, algebra in _grids(cfg, (2, 64, 12.0, "Cl2"), (3, 32, 10.0, "Cl3")):
        n = spec.n
        worst = 0.0
        for k in range(5):
            f = fl.make_band_limited_random(spec, algebra, 0.3, cfg.seed + 100 * n + k)
            hh = tr.hilbert(tr.hilbert(f))
            worst = max(worst, fl.rel_error(hh, f))
        yield f"squared_identity_n{n}", worst, 1e-11

        f = fl.make_band_limited_random(spec, algebra, 0.3, cfg.seed + n)
        a = tr.hilbert(f, route="multiplier")
        b = tr.hilbert(f, route="riesz_sum")
        yield f"dual_route_agreement_n{n}", fl.rel_error(a, b), 1e-13

        yield f"unitary_n{n}", abs(fl.norm(a) - fl.norm(f)) / fl.norm(f), 1e-12

        worst = 0.0
        for sgn in (1, -1):
            worst = max(worst, rep.hilbert_eigen_check(sgn, f))
        yield f"hardy_eigenrelation_n{n}", worst, 1e-10

    if cfg.wants(2):
        spec = _grid(cfg, 2, 64, 12.0)
        X = spec.coords()
        a = 2 / spec.L
        data = np.zeros(spec.shape + (4,), dtype=complex)
        data[..., 0] = np.sin(2 * pi * a * X[0])
        f = fl.CliffordField(spec, "Cl2", data)
        expect = np.zeros_like(data)
        expect[..., 1] = np.cos(2 * pi * a * X[0])
        yield "axis_sine_to_cosine", fl.rel_error(tr.hilbert(f), f._like(expect)), 1e-12

        # principal-value quadrature oracle vs the spectral route, at the
        # reference configuration (kept pinned for reproducibility)
        spec = fl.GridSpec(2, 128, 16.0)
        X = spec.coords()
        data = np.zeros(spec.shape + (4,), dtype=complex)
        data[..., 0] = np.exp(-pi * (X[0] ** 2 + X[1] ** 2))
        f = fl.CliffordField(spec, "Cl2", data)
        spectral = tr.riesz(0, f)
        quad = tr.pv_quadrature_riesz(0, f)
        yield "pv_quadrature_vs_spectral", fl.rel_error(quad, spectral), 1e-3


# ---------------------------------------------------------------------------
# plemelj

@_suite
def run_plemelj(cfg: SuiteConfig, extras: dict):
    if not cfg.wants(2):
        return
    spec = _grid(cfg, 2, 64, 12.0)
    unit = spec.L / 12.0  # width and heights scale with the box; exactly 1.0 at the default
    X = spec.coords()
    data = np.zeros(spec.shape + (4,), dtype=complex)
    data[..., 0] = np.exp(-pi * ((X[0] / unit) ** 2 + (X[1] / unit) ** 2) / 16.0)
    f = fl.CliffordField(spec, "Cl2", data)
    limit_target = tr.hardy_project(1, f)
    fnorm = fl.norm(f)

    heights = (0.4, 0.2, 0.1)  # at the default box; the case names keep these
    limit_totals = []
    rows = []
    for x0 in heights:
        C = tr.cauchy_extend(f, x0 * unit)
        quad_target = tr.hardy_project(1, tr.poisson_extend(f, x0 * unit))
        qres = fl.norm(fl.CliffordField(spec, "Cl2", C.data - quad_target.data)) / fnorm
        yield f"cauchy_quadrature_x0_{x0}", qres, 5e-4
        lres = fl.norm(fl.CliffordField(spec, "Cl2", C.data - limit_target.data)) / fnorm
        limit_totals.append(lres)
        rows.append((x0, lres))
    mono = 0.0 if limit_totals[0] > limit_totals[1] > limit_totals[2] else 1.0
    yield "boundary_limit_monotone", mono, 0.0
    yield "boundary_limit_final", limit_totals[-1], 5e-2

    # the p = n kernel is homogeneous of one degree more: its extension
    # carries one power of the box scale, taken out before the comparison
    wrong = tr.cauchy_extend(f, heights[-1] * unit, kernel_exponent=spec.n)
    wrong_total = fl.norm(fl.CliffordField(spec, "Cl2", wrong.data / unit - limit_target.data)) / fnorm
    ratio = limit_totals[-1] / wrong_total
    yield "kernel_exponent_separates", ratio, 0.1
    extras["plemelj_rows"] = rows


# ---------------------------------------------------------------------------
# subspaces

def _origin_zero(f: fl.CliffordField) -> fl.CliffordField:
    g = f.copy()
    g.data[tuple([g.spec.N // 2] * g.spec.n)] = 0.0
    return g


@_suite
def run_subspaces(cfg: SuiteConfig, extras: dict):
    for spec, algebra, ids, label in _grids(cfg, (3, 16, 10.0, "H", rep.QUATERNION_SPATIAL_IDS, "quaternion"),
                                            (3, 16, 10.0, "Cl3", rep.CL3_SPATIAL_IDS, "cl3"),
                                            (2, 32, 12.0, "Cl2", rep.CL2_SPATIAL_IDS, "cl2")):
        f = fl.make_band_limited_random(spec, algebra, 0.3, cfg.seed + spec.n)
        fz = _origin_zero(f)
        worst = 0.0
        for sid in ids:
            p = rep.subspace_project(sid, fz)
            pp = rep.subspace_project(sid, p)
            worst = max(worst, float(np.linalg.norm(pp.data - p.data) / np.linalg.norm(f.data)))
        yield f"idempotent_{label}", worst, 1e-12

        proj = {sid: rep.subspace_project(sid, f).data for sid in ids}
        yield f"reconstruction_{label}", fl.rel_error(f._like(sum(proj.values())), f), 1e-12

        worst = 0.0
        for j in range(1, len(ids) // 2 + 1):
            plus, minus = (proj[sid] for sid in ids if rep.SUBSPACE_INFO[sid].pair == j)
            both = plus + minus
            P = alg.pair_projector(algebra, j)
            ideal_component = np.einsum("ab,...b->...a", P, f.data)
            worst = max(worst, float(np.linalg.norm(both - ideal_component) / np.linalg.norm(f.data)))
        yield f"complementary_{label}", worst, 1e-12

    if cfg.wants(3):
        spec = _grid(cfg, 3, 16, 10.0)
        worst = 0.0
        for sid, sgn in ((rep.SubspaceId.QHardy1Plus, 1), (rep.SubspaceId.QHardy1Minus, -1)):
            m = rep.random_subspace_member(sid, spec, cfg.seed + 7)
            hm = tr.hilbert(m)
            worst = max(worst, fl.rel_error(hm, m._like(sgn * m.data)))
        yield "qhardy_hilbert_eigenrelation", worst, 1e-10

        f = fl.make_band_limited_random(spec, "H", 0.3, cfg.seed + 9)
        base = rep.subspace_project(rep.SubspaceId.TildeH1Plus, f)
        gauged = rep.subspace_project(rep.SubspaceId.TildeH1Plus, f, section=sp.section_s_omega)

        def regauged(w):
            return sp.section_s_omega(w) * sp.spin3_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.7 + w[..., 0])

        gauged2 = rep.subspace_project(rep.SubspaceId.TildeH1Plus, f, section=regauged)
        res = max(
            float(np.linalg.norm(gauged.data - base.data) / np.linalg.norm(f.data)),
            float(np.linalg.norm(gauged2.data - base.data) / np.linalg.norm(f.data)),
        )
        yield "section_independence", res, 1e-12


# ---------------------------------------------------------------------------
# representation

def _grid_preserving_samples(spec: fl.GridSpec, rng, count: int):
    """Deterministic mix of on-grid translations and axis quarter-turns."""
    turns = []
    if spec.n == 2:
        for k in range(4):
            turns.append(sp.spin2_from_angle(k * pi / 4))
    else:
        axes = np.eye(3)
        turns.append(sp.identity_spin(3))
        for a in range(3):
            for k in (1, 2, 3):
                turns.append(sp.spin3_from_axis_angle(axes[a], k * pi / 2))
    out = []
    for _ in range(count):
        s = turns[int(rng.integers(len(turns)))]
        steps = rng.integers(-spec.N // 4, spec.N // 4, size=spec.n)
        out.append(sp.GroupElement(1.0, s, spec.h * steps.astype(float)))
    return out


@_suite
def run_representation(cfg: SuiteConfig, extras: dict):
    for spec, algebra, L0 in _grids(cfg, (3, 16, 10.0, "H", 10.0), (2, 32, 12.0, "Cl2", 12.0)):
        n = spec.n
        unit = spec.L / L0  # off-grid shifts scale with the box; exactly 1.0 at the default
        rng = np.random.default_rng(cfg.seed + n)
        f = fl.make_band_limited_random(spec, algebra, 0.2, cfg.seed + n)

        worst = 0.0
        for g in _grid_preserving_samples(spec, rng, 10):
            worst = max(worst, abs(fl.norm(rep.natural_rep(g, f)) - fl.norm(f)) / fl.norm(f))
        yield f"natrep_unitary_grid_n{n}", worst, 1e-12

        # off-grid translations leave the mode set fixed up to unit
        # phases, so the norm is preserved through the slow resample path
        worst = 0.0
        for _ in range(3):
            g = sp.GroupElement(1.0, _grid_preserving_samples(spec, rng, 1)[0].s, rng.standard_normal(n) * unit)
            worst = max(worst, abs(fl.norm(rep.natural_rep(g, f)) - fl.norm(f)) / fl.norm(f))
        yield f"natrep_unitary_spectral_n{n}", worst, 1e-10

        g1, g2 = _grid_preserving_samples(spec, rng, 2)
        lhs = rep.natural_rep(g1, rep.natural_rep(g2, f))
        rhs = rep.natural_rep(sp.compose(g1, g2), f)
        yield f"natrep_composition_n{n}", fl.rel_error(lhs, rhs), 1e-10

        g = sp.GroupElement(2.0, _grid_preserving_samples(spec, rng, 1)[0].s, rng.standard_normal(n) * unit)
        # keep only even-offset modes so every image bin (1/2) A xi lands
        # on the grid and the direct assembly path is the one under test
        F = fl.spectral_forward(f)
        K = np.indices(spec.shape)
        even = np.ones(spec.shape, dtype=bool)
        for a_ in range(n):
            even &= (K[a_] - spec.N // 2) % 2 == 0
        F.data = F.data * even[..., None]
        direct = rep.natural_rep_spectral(g, F)
        conj = fl.spectral_forward(rep.natural_rep(g, fl.spectral_inverse(F)))
        yield f"natrep_spectral_agreement_n{n}", fl.rel_error(direct, conj), 1e-10

        worst = 0.0
        for g in _grid_preserving_samples(spec, rng, 8):
            worst = max(worst, rep.commutation_residual(g, f, mode="grid"))
        yield f"hilbert_commutation_grid_n{n}", worst, 1e-12

        worst = 0.0
        for _ in range(5):
            g = sp.GroupElement(float(rng.uniform(0.5, 2.0)), sp.random_spin(n, rng), rng.standard_normal(n) * unit)
            worst = max(worst, rep.commutation_residual(g, f, mode="modes"))
        yield f"hilbert_commutation_modes_n{n}", worst, 1e-8

        worst = 0.0
        for _ in range(500):
            s = sp.random_spin(n, rng)
            xi = rng.standard_normal(n)
            worst = max(worst, rep.multiplier_equivariance_residual(s, xi, algebra))
        yield f"multiplier_equivariance_n{n}", worst, 1e-13

        quarter = _grid_preserving_samples(spec, rng, 1)[0].s
        yield f"riesz_covariance_grid_n{n}", rep.riesz_covariance_residual(quarter, f, mode="grid"), 1e-12
        res = rep.riesz_covariance_residual(sp.random_spin(n, rng), f, mode="modes")
        yield f"riesz_covariance_modes_n{n}", res, 1e-8

    if cfg.wants(3):
        spec = _grid(cfg, 3, 16, 10.0)
        rng = np.random.default_rng(cfg.seed + 31)
        member = rep.random_subspace_member(rep.SubspaceId.TildeH1Minus, spec, cfg.seed + 31, bandfraction=0.2)
        worst = 0.0
        for g in _grid_preserving_samples(spec, rng, 5):
            img = rep.induced_rep(-1, g, member, subspace=rep.SubspaceId.TildeH1Minus)
            worst = max(worst, rep.subspace_membership_residual(rep.SubspaceId.TildeH1Minus, img))
        # continuous b enters only as a scalar phase, hence stays exact even
        # though the translation is not a grid permutation
        quarter = sp.spin3_from_axis_angle(np.array([1.0, 0.0, 0.0]), pi / 2)
        g = sp.GroupElement(1.0, quarter, rng.standard_normal(3))
        img = rep.induced_rep(-1, g, member, subspace=rep.SubspaceId.TildeH1Minus)
        worst = max(worst, rep.subspace_membership_residual(rep.SubspaceId.TildeH1Minus, img))
        yield "induced_preserves_subspace", worst, 1e-10

        bad = fl.make_band_limited_random(spec, "H", 0.3, cfg.seed + 77)
        try:
            rep.induced_rep(-1, sp.identity_element(3), bad)
            res = 1.0
        except rep.SubspaceMembershipError as err:
            res = 0.0 if err.residual > 1e-3 else 1.0
        yield "induced_membership_guard", res, 0.0


# ---------------------------------------------------------------------------
# intertwiners

@_suite
def run_intertwiners(cfg: SuiteConfig, extras: dict):
    rng = np.random.default_rng(cfg.seed)
    if cfg.wants(3):
        spec = _grid(cfg, 3, 16, 10.0)
        member = rep.random_subspace_member(rep.SubspaceId.TildeH1Plus, spec, cfg.seed + 1)
        moved = rep.intertwiner_right_e1(member)
        res = rep.subspace_membership_residual(rep.SubspaceId.TildeH2Plus, moved)
        yield "right_e1_transfers_pair", res, 1e-10
        yield "right_e1_isometry", abs(fl.norm(moved) - fl.norm(member)) / fl.norm(member), 1e-12
        twice = rep.intertwiner_right_e1(moved)
        yield "right_e1_squared_negates", fl.rel_error(twice, member._like(-member.data)), 1e-13

        f = fl.make_band_limited_random(spec, "Cl3", 0.3, cfg.seed + 2)
        worst = 0.0
        for _ in range(100):
            s = sp.random_spin(3, rng)
            lhs = rep.intertwiner_left_w(fl.left_multiply_constant(s.coeffs, f))
            rhs = fl.left_multiply_constant(s.coeffs, rep.intertwiner_left_w(f))
            worst = max(worst, float(np.linalg.norm(lhs.data - rhs.data) / np.linalg.norm(f.data)))
        yield "left_w_commutes_with_spins", worst, 1e-13

    if cfg.wants(2):
        spec = _grid(cfg, 2, 32, 12.0)
        f = fl.make_band_limited_random(spec, "Cl2", 0.3, cfg.seed + 3)
        rho = rep.rho_conjugation_n2(f)
        yield "rho_isometry", abs(fl.norm(rho) - fl.norm(f)) / fl.norm(f), 1e-12
        plus = tr.hardy_project(1, f)
        swapped = rep.rho_conjugation_n2(plus)
        res = rep.subspace_membership_residual(rep.SubspaceId.HardyMinus, swapped)
        yield "rho_swaps_hardy_halves", res, 1e-10
        member = rep.random_subspace_member(rep.SubspaceId.TildeTildeH1Plus, spec, cfg.seed + 4)
        res = rep.subspace_membership_residual(rep.SubspaceId.TildeTildeH1Minus, rep.rho_conjugation_n2(member))
        yield "rho_swaps_spatial_halves", res, 1e-10
        twice = rep.rho_conjugation_n2(rho)
        yield "rho_squared_negates", fl.rel_error(twice, f._like(-f.data)), 1e-14


# ---------------------------------------------------------------------------
# commutant

@_suite
def run_commutant(cfg: SuiteConfig, extras: dict):
    extras.update(commutant_sv={}, commutant_notes={})
    for spec, label, restriction, expected in _grids(cfg, (3, 16, 10.0, "n3_S2", "S2", 2),
                                                     (3, 16, 10.0, "n3_full", "full", 8),
                                                     (2, 16, 12.0, "n2_S2", "S2", 4)):
        report = rep.commutant_dimension_experiment(spec, restriction=restriction, seed=cfg.seed)
        extras["commutant_sv"][label] = report.singular_values
        extras["commutant_notes"][label] = f"dimension={report.dimension} gap_ratio={report.gap_ratio:.2e}; {report.note}"
        yield f"{label}_dimension", abs(report.dimension - expected), 0.0
        yield f"{label}_identity_in_nullspace", report.i_residual, 1e-8
        yield f"{label}_hilbert_in_nullspace", report.h_residual, 1e-8
        yield f"{label}_sanity_combination", report.sanity_residual, 1e-12
        yield f"{label}_well_sampled", 1.0 if report.under_sampled else 0.0, 0.0

    toy = rep.translations_force_multiplier_toy(8, seed=cfg.seed)
    yield "toy_shift_commutant_dimension", abs(toy.dimension - toy.expected), 0.0
    yield "toy_members_fourier_diagonal", toy.offdiagonal_residual, 1e-10


# ---------------------------------------------------------------------------
# driver

SUITE_NAMES = tuple(SUITES)


def run_suite(cfg: SuiteConfig):
    """Run one suite (or all, in order) in the calling thread and return (cases, extras)."""
    names = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)
    results = []
    extras = {}
    for name in names:
        cases, ex = SUITES[name](cfg)
        results.extend(cases)
        extras.update(ex)
    unused = sorted(set(cfg.tol_overrides) - {r.case for r in results})
    if unused:
        raise UsageError(f"tolerance override for no case in this run: {', '.join(unused)}")
    return results, extras


def environment_stamp(seed: int) -> dict:
    return {
        "type": "environment",
        "version": __version__,
        "seed": seed,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def report_lines(results, seed: int) -> list:
    lines = [json.dumps(environment_stamp(seed), sort_keys=True)]
    for r in results:
        lines.append(json.dumps(
            {"suite": r.suite, "case": r.case, "residual": r.residual, "tol": r.tol, "pass": r.passed},
            sort_keys=True,
        ))
    return lines


def write_report(path, results, seed: int) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(report_lines(results, seed)) + "\n")


def emit_plots(outdir, results, extras) -> list:
    """Write CSV companions for plotting; an empty report writes nothing."""
    written = []
    if not results:
        return written
    rows = extras.get("plemelj_rows")
    if rows:
        path = os.path.join(outdir, "plemelj_boundary.csv")
        with open(path, "w") as fh:
            fh.write("x0,residual\n")
            for x0, res in rows:
                fh.write(f"{x0},{res!r}\n")
        written.append(path)
    sv = extras.get("commutant_sv")
    if sv:
        path = os.path.join(outdir, "commutant_singular_values.csv")
        with open(path, "w") as fh:
            fh.write("configuration,index,singular_value\n")
            for label, values in sv.items():
                for k, v in enumerate(np.asarray(values)):
                    fh.write(f"{label},{k},{float(v)!r}\n")
        written.append(path)
    return written
