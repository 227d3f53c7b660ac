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
    pair_basis,
    phi_even_to_h,
)
from .spin import (
    GroupElement,
    SpinElement,
    identity_spin,
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
    pair_hardy_project,
    pair_spatial_project,
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
    section call on all directions; it must agree with the direct form.
    Without one, the direct form is only the dense reference that the
    spinor-coordinate routes (transforms.pair_spatial_project) are checked
    against: no library path multiplies by it."""
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

    Pair ids compose the projection onto the pair's value ideal with
    chi_sign(x/|x|) (1/2 at the origin sample) for spatial ids, and with the
    Hardy projection chi_sign(xi/|xi|) for Fourier-side ids.  Both work in
    the pair's two spinor coordinates, where chi_sign is a 2 x 2 form per
    point (transforms.pair_spatial_project and pair_hardy_project).
    HardyPlus/Minus work for any value algebra.

    A section, for spatial ids only, is a callable from a (P, n) array of
    unit vectors w to a SpinElement holding P rotors s_w with
    s_w e_n s_w^-1 = w; the factor s_w chi(e_n) s_w^-1 is then assembled
    and applied to the pair part through Algebra.product.
    """
    info = SUBSPACE_INFO[id]
    _check_field_matches(info, f)
    if section is not None and info.domain != "spatial":
        raise ValueError(f"{id.value} is not a spatial subspace; a section applies to spatial ids only")
    if info.pair is None:
        return hardy_project(info.sign, f)
    if info.domain == "fourier":
        return pair_hardy_project(info.sign, f, info.pair)
    if section is None:
        return pair_spatial_project(info.sign, f, info.pair)
    B = pair_basis(f.value_algebra, info.pair)
    return f._like(f.algebra.product(_chi_spatial_array(f, info.sign, section), f.data @ B.conj() @ B.T))


def subspace_membership_residual(id: SubspaceId, f: fl.CliffordField) -> float:
    """|| f - P f || / || f || for P the subspace projection.  Raises
    ValueError on an all-zero field: there is nothing to check."""
    _refuse_non_finite(f)
    return fl.rel_error(subspace_project(id, f), f)


def _refuse_non_finite(f: fl.CliffordField) -> None:
    """Its residual would be NaN, which passes a `residual > tol` test."""
    if not np.isfinite(f.data).all():
        raise SubspaceMembershipError("field holds a non-finite sample", float("nan"))


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
    """lam(g)f: resample at g^-1 x and left-multiply by the rotor times the
    L2-normalizing dilation power r^(-n/2), one constant factor that
    resample_action applies.  Exact when g preserves the grid."""
    if g.n != f.spec.n:
        raise ValueError("group element dimension does not match the field")
    return fl.resample_action(g, f, left=g.r ** (-f.spec.n / 2) * spin_value_coefficients(g.s, f.value_algebra))


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
        return fl.spectral_forward(natural_rep(g, fl.spectral_inverse(F)))
    vals = F.algebra.symbol_product(spin_value_coefficients(g.s, F.value_algebra), F.data[tuple(occ.T)])
    phase = np.exp(-2j * np.pi * (xi_out @ g.b)) * g.r ** (-spec.n / 2)
    G = np.zeros_like(F.data)
    G[tuple(idx.astype(int).T)] = phase[:, None] * vals
    return F._like(G)


def _spatial_half_residual(sign: int, f: fl.CliffordField) -> float:
    """Distance to the pointwise condition f = chi_sign(x/|x|) f, relative
    to || f ||; ValueError on an all-zero field.  The dim/2 ideal pairs
    resolve the identity, so chi f is the sum of the pair projections."""
    _refuse_non_finite(f)
    chi_f = pair_spatial_project(sign, f, 1)
    for pair in range(2, f.algebra.dim // 2 + 1):
        chi_f.data += pair_spatial_project(sign, f, pair).data
    return fl.rel_error(chi_f, f)


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
    if not residual <= 1e-8:
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
    ValueError when P f is identically zero: there is nothing to check; and
    on a non-finite sample, before projecting."""
    s_ = _parse_sign(sign)
    if not np.isfinite(f.data).all():
        raise ValueError("field holds a non-finite sample")
    p = hardy_project(s_, f)
    return fl.rel_error(hilbert(p), p._like(s_ * p.data))


def commutation_residual(g: GroupElement, f: fl.CliffordField, mode: str) -> float:
    """|| H(lam(g) f) - lam(g)(H f) || / ||f||.

    Grid mode runs both operator orders on the grid (exact for
    grid-preserving g).  Mode mode compares the two orders mode by mode,
    which sidesteps off-grid resampling error and is exact for band-limited
    data.  Raises ValueError on an all-zero field, and on a non-finite
    sample: grid mode sees it in ||f|| before any transform runs, mode mode
    in occupied_modes.
    """
    den = np.linalg.norm(f.data)
    if den == 0:
        raise ValueError("commutation residual of an all-zero field")
    if mode == "grid":
        if not np.isfinite(den):
            raise ValueError("commutation residual of a field with a non-finite sample")
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
    # every left factor is a rotor or an i xi/|xi| symbol: the blade loop rounds as product does
    lhs = a.symbol_product(_symbol(eta.T, f.value_algebra, 0, 1j), a.symbol_product(sval, c))
    rhs = a.symbol_product(sval, a.symbol_product(_symbol(xi.T, f.value_algebra, 0, 1j), c))
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
    rhs = a.product(sval, hilbert_multiplier_at(xi, value_algebra))  # refuses a non-finite xi before A xi
    lhs = a.product(hilbert_multiplier_at(A @ xi, value_algebra), sval)
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

_COMMUTANT_NOTES = {
    (2, "S2"): (
        "n=2: the even value subalgebra is commutative, so the constant "
        "left factor e2e1 also commutes with the action; on the "
        "pair-restricted space the commutant contains identity, Hilbert, "
        "that factor, and their product."
    ),
    (3, "S2"): "pair-restricted n=3: bin-stabilizer rotors pin the multipliers to span{identity, Hilbert}.",
    (3, "full"): (
        "full value space: right multiplications commute with the left "
        "action, enlarging the commutant beyond identity and Hilbert."
    ),
}
_COMMUTANT_NOTES[2, "full"] = _COMMUTANT_NOTES[2, "S2"]


def _left_mult_matrix(c: np.ndarray, algebra_name: str) -> np.ndarray:
    a = get_algebra(algebra_name)
    return a.product(c, np.eye(a.dim)).T


def _restricted_matrix(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Compress a value-side matrix to the orthonormal columns of B, checking
    that their span is preserved to 1e-12."""
    proj = B @ B.conj().T
    leak = np.linalg.norm((np.eye(B.shape[0]) - proj) @ M @ B)
    if leak > 1e-12 * max(np.linalg.norm(M @ B), 1.0):
        raise ArithmeticError(f"value action leaves the pair span (leak {leak:.2e})")
    return B.conj().T @ M @ B


def _nullspace(R: np.ndarray, rtol: float) -> tuple:
    """Singular values of R, its rank (singular values at least rtol times the
    largest) and the rows of Vh that span its nullspace.  A wide R is padded
    with zero rows, which keep the spectrum while completing the right factor."""
    if R.shape[0] < R.shape[1]:
        R = np.concatenate([R, np.zeros((R.shape[1] - R.shape[0], R.shape[1]), dtype=R.dtype)], axis=0)
    _, sv, Vh = np.linalg.svd(R, full_matrices=False)
    rank = int(np.sum(sv >= rtol * sv[0]))
    return sv, rank, Vh[rank:]


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
    if (n, restriction) not in _COMMUTANT_NOTES:
        raise ValueError("restriction must be 'S2' or 'full'")
    ambient = _DEFAULT_ALGEBRA[n]
    B = pair_basis(ambient, 1) if restriction == "S2" else np.eye(get_algebra(ambient).dim)
    d = B.shape[1]
    # bins k e_a / L for k in {±1, ±2, ±4}
    bins = np.array([k * e for e in np.eye(n) for k in (1, -1, 2, -2, 4, -4)]) / spec.L
    nb = bins.shape[0]
    ncols = nb * d * d

    # (r, s) pairs: dilations, then the exact rotors, then seeded samples
    generators = [(r, identity_spin(n)) for r in (0.5, 2.0)]
    rng = np.random.default_rng(seed)
    if n == 3:
        axes = np.eye(3)

        def quarter_turn(axis):
            return spin3_from_axis_angle(axes[axis], pi / 2)

        generators += [(1.0, quarter_turn(axis)) for axis in range(3)]
        generators += [(1.0, spin3_from_axis_angle(axes[axis], theta)) for axis in range(3) for theta in (1.0, pi / 3)]
        for k in range(_COMMUTANT_SAMPLES):
            if k % 2 == 0:
                generators.append((1.0, spin3_from_axis_angle(axes[rng.integers(3)], float(rng.uniform(0, 2 * pi)))))
            else:
                s = quarter_turn(rng.integers(3)) * quarter_turn(rng.integers(3))
                generators.append((float(rng.choice([0.5, 1.0, 2.0])), s))
    else:
        generators.append((1.0, spin2_from_angle(pi / 4)))
        for _ in range(_COMMUTANT_SAMPLES):
            # s is drawn before r: the seeded rows follow the draw order
            s = spin2_from_angle(float(rng.integers(4)) * pi / 4)
            generators.append((float(rng.choice([0.5, 1.0, 2.0])), s))

    # constraint rows: one d*d block per generator and bin whose image is a bin
    rows = []
    for r, s in generators:
        A = rotation_matrix(s)
        S = _restricted_matrix(_left_mult_matrix(spin_value_coefficients(s, ambient), ambient), B)
        KL = np.kron(np.eye(d), S.T)
        KR = np.kron(S, np.eye(d))
        for bi in range(nb):
            dist = np.linalg.norm(bins - r * (A.T @ bins[bi]), axis=1) * spec.L  # in bin units
            bo = int(np.argmin(dist))
            if dist[bo] < 1e-9:
                block = np.zeros((d * d, ncols), dtype=complex)
                block[:, bi * d * d:(bi + 1) * d * d] += KL
                block[:, bo * d * d:(bo + 1) * d * d] -= KR
                rows.append(block)
    R = np.concatenate(rows, axis=0)

    sv, rank, null = _nullspace(R, 1e-8)
    gap_ratio = float(sv[rank - 1] / sv[0])

    def null_projection_residual(v):
        return float(np.linalg.norm(v - null.conj().T @ (null @ v)) / np.linalg.norm(v))

    v_i = np.concatenate([np.eye(d).flatten()] * nb)
    v_h = np.concatenate(
        [_restricted_matrix(_left_mult_matrix(hilbert_multiplier_at(xi, ambient), ambient), B).flatten() for xi in bins]
    )
    v_sanity = 3.0 * v_i + 2.0 * v_h
    return CommutantReport(
        dimension=ncols - rank,
        singular_values=sv,
        gap_ratio=gap_ratio,
        under_sampled=bool(R.shape[0] < ncols or gap_ratio < 1e-4),
        i_residual=null_projection_residual(v_i),
        h_residual=null_projection_residual(v_h),
        sanity_residual=float(np.max(np.abs(R @ v_sanity)) / max(np.max(np.abs(v_sanity)), 1.0)),
        note=_COMMUTANT_NOTES[n, restriction],
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
    _, rank, null = _nullspace(np.kron(np.eye(N), P.T) - np.kron(P, np.eye(N)), 1e-10)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(null.shape[0]) + 1j * rng.standard_normal(null.shape[0])
    T = (w @ null).reshape(N, N)
    F = np.exp(-2j * np.pi * np.outer(np.arange(N), np.arange(N)) / N) / np.sqrt(N)
    D = F.conj().T @ T @ F
    off = D - np.diag(np.diag(D))
    res = float(np.linalg.norm(off) / np.linalg.norm(D))
    return MultiplierToyReport(dimension=N * N - rank, expected=N, offdiagonal_residual=res)
