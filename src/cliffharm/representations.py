"""Group representations on Clifford-valued fields, invariant subspaces,
intertwining operators, and the commutant-dimension experiment.

The scaled-rotation-translation group acts by
    (lam(g) f)(x) = r^(-n/2) s f((1/r) s^-1 (x - b) s),
left-multiplying values by the rotor.  Quaternion-view fields receive the
rotor through the even-subalgebra adapter.  Subspace identifiers carry a
domain tag: spatial ids impose a pointwise half-space condition in x,
Fourier-side ids impose it on the forward transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import pi

import numpy as np

from . import fields as fl
from .algebra import (
    SPATIAL_DIM,
    get_algebra,
    geometric_product,
    pair_basis,
    pair_projector,
    phi_even_to_h,
)
from .spin import (
    GroupElement,
    SpinElement,
    identity_spin,
    is_strict_identity,
    rotation_matrix,
    spin2_from_angle,
    spin3_from_axis_angle,
)
from .transforms import (
    _parse_sign,
    _symbol,
    hardy_project,
    hilbert,
    hilbert_multiplier_at,
    riesz,
)


# ---------------------------------------------------------------------------
# subspace identifiers

@dataclass(frozen=True)
class SubspaceInfo:
    value_algebra: str | None
    n: int | None
    domain: str  # "spatial" or "fourier"
    pair: int | None
    sign: int


# One row per subspace family: id prefix, value algebra, n, domain and number
# of ideal pairs.  Pair j gives the members {prefix}{j}Plus/Minus with values
# "{prefix}(j,+)"/"{prefix}(j,-)"; the two Hardy spaces follow the families.
_FAMILIES = (
    ("TildeH", "H", 3, "spatial", 2),
    ("PrimeH", "Cl3", 3, "spatial", 4),
    ("TildeTildeH", "Cl2", 2, "spatial", 2),
    ("QHardy", "H", 3, "fourier", 2),
)
_INFO = {
    (f"{prefix}{j}{word}", f"{prefix}({j},{tag})"): SubspaceInfo(algebra, n, domain, j, sgn)
    for prefix, algebra, n, domain, npairs in _FAMILIES
    for j in range(1, npairs + 1)
    for sgn, tag, word in ((1, "+", "Plus"), (-1, "-", "Minus"))
}
_INFO[("HardyPlus", "HardyPlus")] = SubspaceInfo(None, None, "fourier", None, 1)
_INFO[("HardyMinus", "HardyMinus")] = SubspaceInfo(None, None, "fourier", None, -1)

SubspaceId = Enum("SubspaceId", list(_INFO), module=__name__)
SUBSPACE_INFO = dict(zip(SubspaceId, _INFO.values()))

QUATERNION_SPATIAL_IDS = [s for s in SubspaceId if s.value.startswith("TildeH(")]
CL3_SPATIAL_IDS = [s for s in SubspaceId if s.value.startswith("PrimeH(")]
CL2_SPATIAL_IDS = [s for s in SubspaceId if s.value.startswith("TildeTildeH(")]
QHARDY_IDS = [s for s in SubspaceId if s.value.startswith("QHardy(")]


def parse_subspace_id(text: str) -> SubspaceId:
    for member in SubspaceId:
        if member.value == text or member.name == text:
            return member
    raise KeyError(f"unknown subspace id {text!r}")


class SubspaceMembershipError(ValueError):
    """Raised when a field fails a required membership check."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


# ---------------------------------------------------------------------------
# rotor action on the value side

def spin_value_coefficients(s: SpinElement, value_algebra: str) -> np.ndarray:
    """Coefficients of the rotor in the field's value algebra; quaternion-view
    fields read the even subalgebra through the adapter."""
    if s.n != SPATIAL_DIM[value_algebra]:
        raise ValueError(f"rotor dimension {s.n} does not act on {value_algebra}-valued fields")
    if value_algebra == "H":
        return phi_even_to_h(s.coeffs)
    return s.coeffs


def _chi_spatial_array(f: fl.CliffordField, sign: int, section=None) -> np.ndarray:
    """Pointwise half-space factor chi_sign(x/|x|) as a coefficient array.

    With a section, the factor is assembled as s_w chi_ref s_w^-1 from one
    section call on all directions; it must agree with the direct form."""
    spec = f.spec
    if section is None:
        return _symbol(spec.coords(), f.value_algebra, 0.5, sign * 0.5j)
    a = f.algebra
    ref = _symbol(np.eye(spec.n)[-1][:, None], f.value_algebra, 0.5, sign * 0.5j)[0]  # chi_sign(e_n)
    pts = np.stack([c.ravel() for c in spec.coords()], axis=-1)
    mag = np.linalg.norm(pts, axis=-1)
    away = mag != 0
    s = section(pts[away] / mag[away, None])
    sval = spin_value_coefficients(s, f.value_algebra)
    sinv = spin_value_coefficients(s.inverse(), f.value_algebra)
    out = np.zeros((pts.shape[0], a.dim), dtype=complex)
    out[~away, 0] = 0.5
    out[away] = a.product(a.product(sval, ref), sinv)
    return out.reshape(spec.shape + (a.dim,))


def _check_field_matches(info: SubspaceInfo, f) -> None:
    if info.value_algebra is not None and f.value_algebra != info.value_algebra:
        raise ValueError(f"subspace needs {info.value_algebra}-valued fields, got {f.value_algebra}")
    if info.n is not None and f.spec.n != info.n:
        raise ValueError(f"subspace lives over n={info.n}, field has n={f.spec.n}")


def subspace_project(id: SubspaceId, f: fl.CliffordField, section=None) -> fl.CliffordField:
    """Orthogonal projection onto the named subspace.

    Spatial ids compose the two-dimensional value-ideal projection with the
    pointwise-in-x factor chi_sign(x/|x|) (1/2 at the origin sample).
    Fourier-side ids compose it with the Hardy projection chi_sign(xi/|xi|);
    the ideal projection is a constant value matrix, so it commutes with the
    transform.  HardyPlus/Minus work for any value algebra.

    A section, for spatial ids only, is a callable from a (P, n) array of
    unit vectors w to a SpinElement holding P rotors s_w with
    s_w e_n s_w^-1 = w; the factor is then assembled as s_w chi(e_n) s_w^-1.
    """
    info = SUBSPACE_INFO[id]
    _check_field_matches(info, f)
    if section is not None and info.domain != "spatial":
        raise ValueError(f"{id.value} is not a spatial subspace; a section applies to spatial ids only")
    if info.pair is None:
        return hardy_project(info.sign, f)
    pf = f._like(np.einsum("ab,...b->...a", pair_projector(f.value_algebra, info.pair), f.data))
    if info.domain == "fourier":
        return hardy_project(info.sign, pf)
    return pf._like(f.algebra.product(_chi_spatial_array(f, info.sign, section), pf.data))


def subspace_membership_residual(id: SubspaceId, f: fl.CliffordField) -> float:
    """|| f - P f || / || f || for P the subspace projection.  Raises
    ValueError on an all-zero field: there is nothing to check."""
    return fl.rel_error(subspace_project(id, f), f)


_DEFAULT_ALGEBRA = {2: "Cl2", 3: "H"}


def random_subspace_member(id: SubspaceId, spec: fl.GridSpec, seed, bandfraction: float = 0.25) -> fl.CliffordField:
    """Band-limited random field projected into the subspace (exact member
    by idempotency of the projection)."""
    info = SUBSPACE_INFO[id]
    algebra = info.value_algebra or _DEFAULT_ALGEBRA[spec.n]
    raw = fl.make_band_limited_random(spec, algebra, bandfraction, seed)
    if info.domain == "spatial":
        # the direction factor is undefined at the origin, and box-edge
        # samples wrap to the opposite sign under grid rotations; a field
        # vanishing at both is projected exactly idempotently and stays a
        # member under grid-preserving group moves
        raw.data[tuple([spec.N // 2] * spec.n)] = 0.0
        for a in range(spec.n):
            sl = [slice(None)] * (spec.n + 1)
            sl[a] = 0
            raw.data[tuple(sl)] = 0.0
    return subspace_project(id, raw)


# ---------------------------------------------------------------------------
# the natural representation

def natural_rep(g: GroupElement, f: fl.CliffordField) -> fl.CliffordField:
    """lam(g)f: resample at g^-1 x, left-multiply by the rotor, apply the
    L2-normalizing dilation power.  Exact when g preserves the grid."""
    if g.n != f.spec.n:
        raise ValueError("group element dimension does not match the field")
    if is_strict_identity(g):
        return f.copy()
    moved = fl.resample_action(g, f)
    out = fl.left_multiply_constant(spin_value_coefficients(g.s, f.value_algebra), moved)
    out.data = out.data * g.r ** (-f.spec.n / 2)
    return out


def natural_rep_spectral(g: GroupElement, F: fl.SpectralField) -> fl.SpectralField:
    """Frequency-side form: each mode (xi, c) moves to ((1/r) A xi,
    r^(-n/2) exp(-i 2 pi <b, xi_out>) s c).  Bin amplitudes carry no measure
    factor on the fixed box, so the dilation power matches the spatial route.
    When every occupied mode lands on a grid bin the result is assembled
    directly; otherwise it falls back to conjugating the spatial action by
    the transform."""
    spec = F.spec
    if g.n != spec.n:
        raise ValueError("group element dimension does not match the field")
    A = rotation_matrix(g.s)
    occ, xi_in = fl.occupied_modes(F)
    if occ.shape[0] == 0:
        return F.copy()
    xi_out = (xi_in @ A.T) / g.r
    pos = xi_out * spec.L + spec.N / 2
    idx = np.round(pos)
    on_grid = np.max(np.abs(pos - idx)) <= 1e-9 and idx.min() >= 0 and idx.max() < spec.N
    if not on_grid:
        out = fl.spectral_forward(natural_rep(g, fl.spectral_inverse(F)))
        return out
    sval = spin_value_coefficients(g.s, F.value_algebra)
    vals = geometric_product(sval, F.data[tuple(occ.T)], F.algebra)
    phase = np.exp(-2j * np.pi * (xi_out @ g.b)) * g.r ** (-spec.n / 2)
    G = np.zeros_like(F.data)
    G[tuple(idx.astype(int).T)] = phase[:, None] * vals
    return F._like(G)


def _spatial_half_residual(sign: int, f: fl.CliffordField) -> float:
    """Distance to the pointwise condition f = chi_sign(x/|x|) f, relative
    to || f ||; ValueError on an all-zero field."""
    return fl.rel_error(f._like(f.algebra.product(_chi_spatial_array(f, sign), f.data)), f)


def induced_rep(sign, g: GroupElement, f: fl.CliffordField, subspace: SubspaceId | None = None) -> fl.CliffordField:
    """The half-space model representation
        f(y) -> exp(i 2 pi <b, y>) r^(n/2) s f(r s^-1 y s).
    Input must satisfy the matching pointwise half-space condition (or full
    subspace membership when an id is named); the image stays inside it.
    """
    s_ = _parse_sign(sign)
    if subspace is not None:
        info = SUBSPACE_INFO[subspace]
        if info.domain != "spatial":
            raise ValueError("induced_rep checks membership against spatial ids")
        if info.sign != s_:
            raise ValueError("subspace sign does not match the representation sign")
        residual = subspace_membership_residual(subspace, f)
        label = subspace.value
    else:
        residual = _spatial_half_residual(s_, f)
        label = f"chi({'+' if s_ > 0 else '-'}) half-space"
    if residual > 1e-8:
        raise SubspaceMembershipError(f"input is not a {label} member", residual)
    out = natural_rep(GroupElement(1.0 / g.r, g.s, np.zeros(g.n)), f)
    X = f.spec.coords()
    phase = np.exp(2j * np.pi * sum(g.b[a] * X[a] for a in range(f.spec.n)))
    out.data = out.data * phase[..., None]
    return out


# ---------------------------------------------------------------------------
# residual checks

def hilbert_eigen_check(sign, f: fl.CliffordField) -> float:
    """|| H(P f) -+ P f || / || P f || for P the Hardy projection.  Raises
    ValueError when P f is identically zero: there is nothing to check."""
    s_ = _parse_sign(sign)
    p = hardy_project(s_, f)
    return fl.rel_error(hilbert(p), p._like(s_ * p.data))


def commutation_residual(g: GroupElement, f: fl.CliffordField, mode: str = "auto") -> float:
    """|| H(lam(g) f) - lam(g)(H f) || / ||f||.

    Grid mode runs both operator orders on the grid (exact for
    grid-preserving g).  Mode mode compares the two orders mode by mode,
    which sidesteps off-grid resampling error and is exact for band-limited
    data.  Raises ValueError on an all-zero field.
    """
    den = np.linalg.norm(f.data)
    if den == 0:
        raise ValueError("commutation residual of an all-zero field")
    if mode == "auto":
        mode = "grid" if fl.is_grid_preserving(g, f.spec) else "modes"
    if mode == "grid":
        a = hilbert(natural_rep(g, f))
        b = natural_rep(g, hilbert(f))
        return float(np.linalg.norm(a.data - b.data) / den)
    if mode != "modes":
        raise ValueError(f"unknown mode {mode!r}")
    F = fl.spectral_forward(f)
    occ, xi = fl.occupied_modes(F)
    A = rotation_matrix(g.s)
    eta = (xi @ A.T) / g.r
    c = F.data[tuple(occ.T)]
    sval = spin_value_coefficients(g.s, f.value_algebra)
    a = f.algebra
    lhs = geometric_product(_symbol(eta.T, f.value_algebra, 0, 1j), geometric_product(sval, c, a), a)
    rhs = geometric_product(sval, geometric_product(_symbol(xi.T, f.value_algebra, 0, 1j), c, a), a)
    num2 = float(np.sum(np.abs(lhs - rhs) ** 2))
    den2 = float(np.sum(np.abs(c) ** 2))
    return float(np.sqrt(num2 / den2))


def multiplier_equivariance_residual(s: SpinElement, xi, value_algebra: str | None = None) -> float:
    """|| m(A xi) s - s m(xi) || for the Hilbert symbol m."""
    if value_algebra is None:
        value_algebra = s.algebra
    xi = np.asarray(xi, dtype=float)
    a = get_algebra(value_algebra)
    A = rotation_matrix(s)
    sval = spin_value_coefficients(s, value_algebra)
    lhs = geometric_product(hilbert_multiplier_at(A @ xi, value_algebra), sval, a)
    rhs = geometric_product(sval, hilbert_multiplier_at(xi, value_algebra), a)
    return float(np.linalg.norm(lhs - rhs))


def riesz_covariance_residual(s: SpinElement, f: fl.CliffordField, mode: str) -> float:
    """max_j || rot R_j rot^-1 f - sum_k A_jk R_k f || / ||f|| for the plain
    rotation action (no value factor).  Grid mode resamples on the grid, which
    is exact for a quarter-turn s.  Mode mode evaluates the scalar symbol
    identity m_j(A xi) = sum_k A_jk m_k(xi) over the field's modes.  Raises
    ValueError on an all-zero field."""
    spec = f.spec
    if s.n != spec.n:
        raise ValueError("rotor dimension does not match the field")
    den = np.linalg.norm(f.data)
    if den == 0:
        raise ValueError("covariance residual of an all-zero field")
    A = rotation_matrix(s)
    rot = GroupElement(1.0, s.inverse(), np.zeros(spec.n))
    if mode == "grid":
        unrotated = fl.resample_action(GroupElement(1.0, s, np.zeros(spec.n)), f)
        R = [riesz(k, f).data for k in range(spec.n)]
        worst = 0.0
        for j in range(spec.n):
            lhs = fl.resample_action(rot, riesz(j, unrotated))
            acc = np.zeros_like(f.data)
            for k in range(spec.n):
                acc = acc + A[j, k] * R[k]
            worst = max(worst, float(np.linalg.norm(lhs.data - acc) / den))
        return worst
    if mode != "modes":
        raise ValueError(f"unknown mode {mode!r}")
    F = fl.spectral_forward(f)
    occ, xi = fl.occupied_modes(F)
    c = F.data[tuple(occ.T)]
    wc = np.sum(np.abs(c) ** 2, axis=-1)
    den2 = float(np.sum(wc))
    # m_j = i u_j for the unit direction u, the vector part of the symbol xi/|xi|;
    # u is copied contiguous so that u @ A[j] runs through BLAS like a plain (modes, n) array
    u = np.ascontiguousarray(_symbol(xi.T, f.value_algebra, 0, 1)[:, 1 : spec.n + 1].real)
    ru = _symbol((xi @ A.T).T, f.value_algebra, 0, 1)[:, 1 : spec.n + 1].real
    worst = 0.0
    for j in range(spec.n):
        gap = ru[:, j] - u @ A[j]
        num2 = float(np.sum(np.abs(gap) ** 2 * wc))
        worst = max(worst, np.sqrt(num2 / den2))
    return float(worst)


# ---------------------------------------------------------------------------
# intertwiners

_E2E1 = np.array([0, 0, 0, -1], dtype=complex)  # e2 e1 = -e12 in the 4-dim table
_ONE_MINUS_E123 = np.array([1, 0, 0, 0, 0, 0, 0, -1], dtype=complex)


def rho_conjugation_n2(f: fl.CliffordField) -> fl.CliffordField:
    """Plane conjugation map: constant left factor e2 e1.  (The companion
    vector-argument reflection composed with vector conjugation is the
    identity, so only the factor remains.)  Isometric; swaps the two
    frequency half-space components; applying it twice negates the field."""
    if f.spec.n != 2:
        raise ValueError("the conjugation map is specific to n=2 fields")
    return fl.left_multiply_constant(_E2E1, f)


def intertwiner_right_e1(f: fl.CliffordField) -> fl.CliffordField:
    """Right multiplication by e1: carries pair-1 subspaces onto pair-2
    subspaces isometrically and commutes with every left value action."""
    a = f.algebra
    e1 = np.zeros(a.dim, dtype=complex)
    e1[1] = 1.0
    return fl.right_multiply_constant(f, e1)


def intertwiner_left_w(f: fl.CliffordField) -> fl.CliffordField:
    """Left multiplication by (1 - e123), whose pseudoscalar part is central:
    it commutes with every rotor's left action on 8-dim values."""
    if f.value_algebra != "Cl3":
        raise ValueError("the left intertwiner acts on Cl3-valued fields")
    return fl.left_multiply_constant(_ONE_MINUS_E123, f)


# ---------------------------------------------------------------------------
# commutant-dimension experiment

@dataclass
class CommutantReport:
    dimension: int
    singular_values: np.ndarray
    gap_ratio: float
    under_sampled: bool
    i_residual: float
    h_residual: float
    sanity_residual: float
    note: str


# seeded random group samples added to the exact constraint rows
_COMMUTANT_SAMPLES = 8


def _left_mult_matrix(c: np.ndarray, algebra_name: str) -> np.ndarray:
    a = get_algebra(algebra_name)
    return a.product(c, np.eye(a.dim)).T


def _bin_frequencies(n: int, L: float) -> np.ndarray:
    out = []
    for axis in range(n):
        for k in (1, 2, 4):
            for sgn in (1, -1):
                v = np.zeros(n)
                v[axis] = sgn * k / L
                out.append(v)
    return np.array(out)


def _restricted_matrix(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Compress a value-side matrix to the pair basis, checking that the
    span is preserved to 1e-12."""
    proj = B @ B.conj().T
    leak = np.linalg.norm((np.eye(B.shape[0]) - proj) @ M @ B)
    if leak > 1e-12 * max(np.linalg.norm(M @ B), 1.0):
        raise ArithmeticError(f"value action leaves the pair span (leak {leak:.2e})")
    return B.conj().T @ M @ B


def commutant_dimension_experiment(
    spec: fl.GridSpec,
    restriction: str = "S2",
    seed=0,
) -> CommutantReport:
    """Estimate the dimension of the space of operators commuting with the
    group action, with the operator restricted a priori to frequency-multiplier
    form (translations force that form; the 1-D toy below verifies it).

    Unknowns are per-bin value matrices on towers of axis-aligned frequency
    bins.  Constraint rows: M(xi) S = S M(r A^T xi) for dilations r in
    {1/2, 2}, axis quarter-turns, bin-axis stabilizer rotors (n=3), and
    seeded random group samples.  The report carries the singular-value
    spectrum, the numerical nullspace dimension, and residuals showing that
    the identity and Hilbert multipliers lie in the nullspace.
    """
    n = spec.n
    ambient = "H" if n == 3 else "Cl2"
    a = get_algebra(ambient)
    if restriction == "S2":
        B = pair_basis(ambient, 1)
        d = 2
    elif restriction == "full":
        B = None
        d = a.dim
    else:
        raise ValueError("restriction must be 'S2' or 'full'")
    bins = _bin_frequencies(n, spec.L)
    nb = bins.shape[0]
    ncols = nb * d * d

    def value_matrix(coeffs):
        M = _left_mult_matrix(coeffs, ambient)
        return _restricted_matrix(M, B) if B is not None else M

    def find_bin(xi):
        # distances in bin units: the bins are k/L
        dist = np.linalg.norm(bins - xi, axis=1) * spec.L
        k = int(np.argmin(dist))
        return k if dist[k] < 1e-9 else None

    rows = []

    def add_element(r: float, s: SpinElement):
        A = rotation_matrix(s)
        S = value_matrix(spin_value_coefficients(s, ambient))
        Id = np.eye(d)
        KL = np.kron(Id, S.T)
        KR = np.kron(S, Id)
        for bi in range(nb):
            xi_out = r * (A.T @ bins[bi])
            bo = find_bin(xi_out)
            if bo is None:
                continue
            block = np.zeros((d * d, ncols), dtype=complex)
            block[:, bi * d * d:(bi + 1) * d * d] += KL
            block[:, bo * d * d:(bo + 1) * d * d] -= KR
            rows.append(block)

    def quarter_turn(axis_pair_or_angle):
        if n == 2:
            return spin2_from_angle(pi / 4)
        axis = np.zeros(3)
        axis[axis_pair_or_angle] = 1.0
        return spin3_from_axis_angle(axis, pi / 2)

    # exact constraints
    for r in (0.5, 2.0):
        add_element(r, identity_spin(n))
    if n == 3:
        for axis in range(3):
            add_element(1.0, quarter_turn(axis))
        for axis in range(3):
            unit = np.zeros(3)
            unit[axis] = 1.0
            for theta in (1.0, pi / 3):
                add_element(1.0, spin3_from_axis_angle(unit, theta))
    else:
        add_element(1.0, quarter_turn(None))

    rng = np.random.default_rng(seed)
    for k in range(_COMMUTANT_SAMPLES):
        if n == 3:
            if k % 2 == 0:
                axis = np.zeros(3)
                axis[int(rng.integers(3))] = 1.0
                add_element(1.0, spin3_from_axis_angle(axis, float(rng.uniform(0, 2 * pi))))
            else:
                s = quarter_turn(int(rng.integers(3))) * quarter_turn(int(rng.integers(3)))
                add_element(float(rng.choice([0.5, 1.0, 2.0])), s)
        else:
            s = spin2_from_angle(float(rng.integers(4)) * pi / 4)
            add_element(float(rng.choice([0.5, 1.0, 2.0])), s)

    R = np.concatenate(rows, axis=0)
    if R.shape[0] < ncols:
        # zero rows keep the spectrum while completing the right factor
        R = np.concatenate([R, np.zeros((ncols - R.shape[0], ncols), dtype=complex)], axis=0)
    _, sv, Vh = np.linalg.svd(R, full_matrices=False)
    smax = sv[0]
    rank = int(np.sum(sv >= 1e-8 * smax))
    dimension = ncols - rank
    kept = sv[sv >= 1e-8 * smax]
    gap_ratio = float(kept[-1] / smax) if kept.size else 0.0
    null_basis = Vh[rank:].conj().T  # columns span the nullspace

    def null_projection_residual(v):
        coef = null_basis.conj().T @ v
        proj = null_basis @ coef
        return float(np.linalg.norm(v - proj) / np.linalg.norm(v))

    Id = np.eye(d)
    v_i = np.concatenate([Id.flatten()] * nb)
    h_blocks = [value_matrix(hilbert_multiplier_at(bins[b], ambient)).flatten() for b in range(nb)]
    v_h = np.concatenate(h_blocks)
    i_res = null_projection_residual(v_i)
    h_res = null_projection_residual(v_h)
    v_sanity = 3.0 * v_i + 2.0 * v_h
    sanity = float(np.max(np.abs(R @ v_sanity)) / max(np.max(np.abs(v_sanity)), 1.0))

    raw_rows = sum(b.shape[0] for b in rows)
    under = raw_rows < ncols or gap_ratio < 1e-4
    if n == 2:
        note = (
            "n=2: the even value subalgebra is commutative, so the constant "
            "left factor e2e1 also commutes with the action; on the "
            "pair-restricted space the commutant contains identity, Hilbert, "
            "that factor, and their product."
        )
    elif restriction == "full":
        note = (
            "full value space: right multiplications commute with the left "
            "action, enlarging the commutant beyond identity and Hilbert."
        )
    else:
        note = "pair-restricted n=3: bin-stabilizer rotors pin the multipliers to span{identity, Hilbert}."
    return CommutantReport(
        dimension=dimension,
        singular_values=sv,
        gap_ratio=gap_ratio,
        under_sampled=bool(under),
        i_residual=i_res,
        h_residual=h_res,
        sanity_residual=sanity,
        note=note,
    )


@dataclass
class MultiplierToyReport:
    dimension: int
    expected: int
    offdiagonal_residual: float


def translations_force_multiplier_toy(N: int = 8, seed=0) -> MultiplierToyReport:
    """1-D justification for the multiplier ansatz: operators commuting with
    the cyclic shift form an N-dimensional space, and every member is
    diagonal in the discrete Fourier basis."""
    P = np.roll(np.eye(N), 1, axis=0)
    # T P - P T = 0 over vec_C(T)
    R = np.kron(np.eye(N), P.T) - np.kron(P, np.eye(N))
    _, sv, Vh = np.linalg.svd(R)
    smax = sv[0]
    rank = int(np.sum(sv >= 1e-10 * smax))
    dimension = N * N - rank
    null_basis = Vh[rank:]
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(null_basis.shape[0]) + 1j * rng.standard_normal(null_basis.shape[0])
    T = (w @ null_basis).reshape(N, N)
    F = np.exp(-2j * np.pi * np.outer(np.arange(N), np.arange(N)) / N) / np.sqrt(N)
    D = F.conj().T @ T @ F
    off = D - np.diag(np.diag(D))
    res = float(np.linalg.norm(off) / np.linalg.norm(D))
    return MultiplierToyReport(dimension=dimension, expected=N, offdiagonal_residual=res)
