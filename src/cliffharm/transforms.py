"""Riesz and Hilbert transforms, Hardy projections, Poisson and Cauchy
extensions, plus an independent principal-value quadrature oracle.

Sign conventions, fixed once for the whole package and pinned by tests:
forward transform kernel exp(-i 2 pi <x, xi>); Hilbert symbol
m_H(xi) = +i xi/|xi|; Riesz symbol m_j(xi) = +i xi_j/|xi| so that
sum_j e_j R_j reproduces the Hilbert symbol; chi_pm = (1 pm i xi/|xi|)/2.
Every symbol takes the value 0 at xi = 0 (chi_pm take 1/2), so mean
components pass through the projections and are dropped by H and R_j.
"""

from __future__ import annotations

from math import gamma, isfinite, pi

import numpy as np

from . import fields as fl
from .algebra import get_algebra, vector_embed


def _unit_direction(grids):
    """Component arrays x_j/|x| with the origin mapped to 0."""
    mag = np.sqrt(sum(g * g for g in grids))
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for g in grids:
            u = g / mag
            u[~np.isfinite(u)] = 0.0
            out.append(u)
    return out, mag


def riesz_symbol_array(spec: fl.GridSpec, j: int) -> np.ndarray:
    U, _ = _unit_direction(spec.freqs())
    return 1j * U[j]


def hilbert_multiplier_array(spec: fl.GridSpec, value_algebra: str) -> np.ndarray:
    a = get_algebra(value_algebra)
    U, _ = _unit_direction(spec.freqs())
    M = np.zeros(spec.shape + (a.dim,), dtype=complex)
    for j in range(spec.n):
        M[..., j + 1] = 1j * U[j]
    return M


def chi_multiplier_array(spec: fl.GridSpec, value_algebra: str, sign: int, grids=None) -> np.ndarray:
    """Coefficients of chi_sign evaluated on the given grids (frequency by
    default); the origin gets the scalar value 1/2."""
    a = get_algebra(value_algebra)
    U, _ = _unit_direction(spec.freqs() if grids is None else grids)
    M = np.zeros(spec.shape + (a.dim,), dtype=complex)
    M[..., 0] = 0.5
    for j in range(spec.n):
        M[..., j + 1] = sign * 0.5j * U[j]
    return M


def _parse_sign(sign) -> int:
    if sign in (1, +1, "+", "plus"):
        return 1
    if sign in (-1, "-", "minus"):
        return -1
    raise ValueError(f"sign must be + or -, got {sign!r}")


def hilbert_multiplier_at(xi, value_algebra: str | None = None) -> np.ndarray:
    """The multivector i xi/|xi|; undefined at xi = 0."""
    xi = np.asarray(xi, dtype=float)
    if value_algebra is None:
        value_algebra = "Cl3" if xi.shape[0] == 3 else "Cl2"
    mag = float(np.linalg.norm(xi))
    if mag == 0:
        raise ZeroDivisionError("the Hilbert symbol has no value at xi = 0")
    return 1j * vector_embed(xi / mag, value_algebra, xi.shape[0])


def riesz(j: int, f: fl.CliffordField) -> fl.CliffordField:
    spec = f.spec
    if not 0 <= j < spec.n:
        raise ValueError(f"axis {j} out of range for n={spec.n}")
    F = fl.spectral_forward(f)
    F.data = F.data * riesz_symbol_array(spec, j)[..., None]
    return fl.spectral_inverse(F)


def hilbert(f: fl.CliffordField, route: str = "multiplier") -> fl.CliffordField:
    """Clifford Hilbert transform; both routes agree to near machine precision."""
    if route == "multiplier":
        F = fl.spectral_forward(f)
        out = fl.apply_multiplier_array(hilbert_multiplier_array(f.spec, f.value_algebra), F)
        return fl.spectral_inverse(out)
    if route == "riesz_sum":
        acc = fl.zero_field(f.spec, f.value_algebra)
        for j in range(f.spec.n):
            ej = np.zeros(f.spec.n)
            ej[j] = 1.0
            term = fl.left_multiply_constant(vector_embed(ej, f.value_algebra, f.spec.n), riesz(j, f))
            acc.data = acc.data + term.data
        return acc
    raise ValueError(f"unknown route {route!r}")


def hardy_project(sign, f: fl.CliffordField) -> fl.CliffordField:
    s = _parse_sign(sign)
    F = fl.spectral_forward(f)
    out = fl.apply_multiplier_array(chi_multiplier_array(f.spec, f.value_algebra, s), F)
    return fl.spectral_inverse(out)


def poisson_extend(f: fl.CliffordField, x0: float) -> fl.CliffordField:
    """Harmonic extension to height |x0|: spectral damping exp(-2 pi |x0| |xi|)."""
    if not (isfinite(x0) and x0 != 0):
        raise ValueError("extension height must be finite and nonzero")
    F = fl.spectral_forward(f)
    damp = np.exp(-2 * pi * abs(x0) * f.spec.freq_magnitude())
    F.data = F.data * damp[..., None]
    return fl.spectral_inverse(F)


def _sphere_area(n: int) -> float:
    # area of the unit n-sphere in R^(n+1)
    return 2 * pi ** ((n + 1) / 2) / gamma((n + 1) / 2)


# Sigma'_{m in Z^n} |m|^-(n+1) over the nonzero lattice points: 4 zeta(3/2)
# beta(3/2) for n = 2 and the Epstein zeta value Z_3(2) for n = 3 (Borwein,
# Glasser, McPhedran, Wan & Zucker, Lattice Sums Then and Now, CUP 2013).
# tests/test_transforms.py recomputes both from an Ewald series.
_LATTICE_SUM = {2: 9.033621683100950, 3: 16.532315959761670}


def _lattice_tail(n: int, L: float, M: int) -> float:
    """sum over |m|_inf > M of |m L|^-(n+1): the closed-form full lattice
    sum minus the direct sum over the nonzero points of the cube |m|_inf <= M."""
    if n not in _LATTICE_SUM:
        raise ValueError("n must be 2 or 3")
    ax = np.arange(-M, M + 1, dtype=float)
    r2 = sum(np.meshgrid(*(ax * ax,) * n, indexing="ij", sparse=True))
    inner = float(np.sum(r2[r2 > 0] ** (-(n + 1) / 2)))
    return (_LATTICE_SUM[n] - inner) / L ** (n + 1)


def _correlate_scalar_kernel(K: np.ndarray, data: np.ndarray, h: float, n: int) -> np.ndarray:
    """h^n * sum_y K(y) data(x + y, channel) on the periodic grid."""
    axes = tuple(range(n))
    FK = np.fft.fftn(np.fft.ifftshift(K), axes=axes)
    Fd = np.fft.fftn(np.fft.ifftshift(data, axes=axes), axes=axes)
    out = np.fft.ifftn(np.conj(FK)[..., None] * Fd, axes=axes)
    return h ** n * np.fft.fftshift(out, axes=axes)


def _riesz_kernel(spec: fl.GridSpec, j: int, images: int) -> np.ndarray:
    """Periodized y_j / |y|^(n+1) kernel: image sum with the singular cell
    punctured, plus the analytic correction for the truncated images."""
    n = spec.n
    grids = spec.coords()
    cn = gamma((n + 1) / 2) / pi ** ((n + 1) / 2)
    K = np.zeros(spec.shape)
    for off in np.ndindex(*(2 * images + 1,) * n):
        m = np.array(off) - images
        shifted = [grids[a] + m[a] * spec.L for a in range(n)]
        r = np.sqrt(sum(s * s for s in shifted))
        with np.errstate(divide="ignore", invalid="ignore"):
            term = shifted[j] / r ** (n + 1)
        K += np.nan_to_num(term)
    T = _lattice_tail(n, spec.L, images)
    K += -(T / n) * grids[j]
    return cn * K


def pv_quadrature_riesz(j: int, f: fl.CliffordField, images: int = 4, levels: int = 3) -> fl.CliffordField:
    """Independent spatial oracle for riesz(): punctured periodized kernel
    summation, refined by Richardson extrapolation over trigonometrically
    interpolated finer grids.  Slow by design; only used for cross-checks."""
    if levels not in (1, 2, 3):
        raise ValueError("levels must be 1, 2, or 3")
    spec = f.spec
    S = []
    for lev in range(levels):
        factor = 2 ** lev
        fu = fl.spectral_upsample(f, factor)
        K = _riesz_kernel(fu.spec, j, images)
        C = _correlate_scalar_kernel(K, fu.data, fu.spec.h, spec.n)
        sl = tuple(slice(None, None, factor) for _ in range(spec.n))
        S.append(C[sl])
    if levels == 1:
        best = S[0]
    elif levels == 2:
        best = 2 * S[1] - S[0]
    else:
        A = 2 * S[1] - S[0]
        B = 2 * S[2] - S[1]
        best = (8 * B - A) / 7
    return fl.CliffordField(spec, f.value_algebra, best, f.meta)


def cauchy_extend(
    f: fl.CliffordField,
    x0: float,
    images: int = 4,
    upsample: int | None = None,
    kernel_exponent: int | None = None,
) -> fl.CliffordField:
    """Cauchy integral of f over the boundary grid, evaluated at height x0.

    The kernel is conj(q)/|q|^p with q the offset paravector u - x0 and
    p = n+1 by default (the harmonic-analysis exponent; the value p = n is
    kept selectable to demonstrate that it fails the boundary-limit tests).
    Quadrature refines the grid by trigonometric interpolation, periodizes
    by image sums, and corrects the truncated image tail analytically.
    """
    if not (isfinite(x0) and x0 > 0):
        raise ValueError("extension height must be positive and finite")
    spec = f.spec
    n = spec.n
    p = n + 1 if kernel_exponent is None else kernel_exponent
    ups = upsample if upsample is not None else (8 if n == 2 else 2)
    fu = fl.spectral_upsample(f, ups)
    grids = fu.spec.coords()
    img = images if p == n + 1 else 0
    Ks = np.zeros(fu.spec.shape)
    Kv = [np.zeros(fu.spec.shape) for _ in range(n)]
    for off in np.ndindex(*(2 * img + 1,) * n):
        m = np.array(off) - img
        shifted = [grids[a] + m[a] * fu.spec.L for a in range(n)]
        den = (x0 * x0 + sum(s * s for s in shifted)) ** (p / 2)
        Ks += -x0 / den
        for a in range(n):
            Kv[a] += -shifted[a] / den
    if p == n + 1:
        T = _lattice_tail(n, spec.L, img)
        Ks += -x0 * T
        for a in range(n):
            Kv[a] += (T / n) * grids[a]
    h = fu.spec.h
    Cs = _correlate_scalar_kernel(Ks, fu.data, h, n)
    sl = tuple(slice(None, None, ups) for _ in range(n))
    total = fl.CliffordField(spec, f.value_algebra, Cs[sl], f.meta)
    for a in range(n):
        Ca = _correlate_scalar_kernel(Kv[a], fu.data, h, n)[sl]
        ea = np.zeros(n)
        ea[a] = 1.0
        term = fl.left_multiply_constant(
            vector_embed(ea, f.value_algebra, n),
            fl.CliffordField(spec, f.value_algebra, Ca, f.meta),
        )
        total.data = total.data + term.data
    total.data = total.data * (-1.0 / _sphere_area(n))
    return total
