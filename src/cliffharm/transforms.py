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
from .algebra import _in_parts, get_algebra, spinor_matrices, vector_embed


def _unit_direction(points):
    """Component arrays x_j/|x| with the origin mapped to 0."""
    mag = np.sqrt(sum(g * g for g in points))
    origin = mag == 0
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for g in points:
            u = g / mag
            u[origin] = 0.0
            out.append(u)
    return out


def _symbol(points, value_algebra: str, scalar, vector) -> np.ndarray:
    """Coefficients of scalar + vector x/|x| at points given by their n
    component arrays (a grid, or the columns of a list of modes): the vector
    part sits in slots 1..n, and x/|x| is 0 at the origin."""
    U = _unit_direction(points)
    del points  # grids built for this call are freed before M is allocated
    M = np.zeros(U[0].shape + (get_algebra(value_algebra).dim,), dtype=complex)
    M[..., 0] = scalar
    for j, u in enumerate(U):
        M[..., j + 1] = vector * u
    return M


def riesz_symbol_array(spec: fl.GridSpec, j: int) -> np.ndarray:
    return 1j * _unit_direction(spec.freqs())[j]


def hilbert_multiplier_array(spec: fl.GridSpec, value_algebra: str) -> np.ndarray:
    return _symbol(spec.freqs(), value_algebra, 0, 1j)


def chi_multiplier_array(spec: fl.GridSpec, value_algebra: str, sign: int) -> np.ndarray:
    """Coefficients of chi_sign on the frequency grid; the origin gets the
    scalar value 1/2."""
    return _symbol(spec.freqs(), value_algebra, 0.5, sign * 0.5j)


def _parse_sign(sign) -> int:
    if sign in (1, "+"):
        return 1
    if sign in (-1, "-"):
        return -1
    raise ValueError(f"sign must be + or -, got {sign!r}")


def hilbert_multiplier_at(xi, value_algebra: str | None = None) -> np.ndarray:
    """The multivector i xi/|xi|; undefined at xi = 0 and at a non-finite
    xi.  A xi whose |xi|^2 overflows or is subnormal is first scaled by
    1/max|xi_j|."""
    xi = np.asarray(xi, dtype=float)
    if not np.isfinite(xi).all():
        raise ValueError(f"the Hilbert symbol needs a finite frequency, got {xi.tolist()}")
    if value_algebra is None:
        value_algebra = "Cl3" if xi.shape[0] == 3 else "Cl2"
    if not xi.any():
        raise ZeroDivisionError("the Hilbert symbol has no value at xi = 0")
    with np.errstate(over="ignore"):
        if not np.finfo(float).tiny <= xi @ xi < np.inf:
            xi = xi / np.max(np.abs(xi))
    return _symbol(xi[:, None], value_algebra, 0, 1j)[0]


def riesz(j: int, f: fl.CliffordField) -> fl.CliffordField:
    spec = f.spec
    if not 0 <= j < spec.n:
        raise ValueError(f"axis {j} out of range for n={spec.n}")
    F = fl.spectral_forward(f)
    F.data *= riesz_symbol_array(spec, j)[..., None]
    return fl.spectral_inverse(F)


def hilbert(f: fl.CliffordField, route: str = "multiplier") -> fl.CliffordField:
    """Clifford Hilbert transform; both routes agree to near machine precision."""
    if route == "multiplier":
        F = fl.spectral_forward(f)
        out = fl.apply_multiplier_array(hilbert_multiplier_array(f.spec, f.value_algebra), F)
        del F  # freed before the inverse transform allocates
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
    del F  # freed before the inverse transform allocates
    return fl.spectral_inverse(out)


# grid points per block of the spinor symbol and of the assembly in pair_hardy_project
_SPINOR_BLOCK = 2**13


def pair_hardy_project(sign, f: fl.CliffordField, pair: int) -> fl.CliffordField:
    """hardy_project(sign, P_j f) for P_j the projector onto the ambient pair
    j of two-dimensional left ideals, worked in the pair's two spinor
    coordinates c = B^† f (algebra.spinor_matrices).  The ideal is closed
    under left multiplication, so chi_sign(xi) acts on c as the 2 x 2 symbol
    1/2 I + sign 1/2 i sum_j u_j C_j, u = xi/|xi| (0 at the origin): two
    one-component transforms each way instead of dim-component ones.  The
    result has its own memory mapping (fields._mapped_empty), and the
    temporaries are three one-component arrays and blocks."""
    s = _parse_sign(sign)
    spec = f.spec
    B, C = spinor_matrices(f.value_algebra, pair)
    out = fl._mapped_empty(f.data.shape)
    flat = f.data.reshape(-1, B.shape[0])
    G = [(flat @ b.conj()).reshape(spec.shape + (1,)) for b in B.T]
    buf = np.empty_like(G[0])
    for g in G:
        fl._centred_transform(g, (spec.L / spec.N) ** spec.n, False, buf, g)
    step = max(1, _SPINOR_BLOCK // spec.N ** (spec.n - 1))  # rows of axis 0 per block
    blocks = -(-spec.N // step)
    _in_parts(_spinor_symbol_blocks, blocks, G[0].size, step, G, spec.freq_axis(), s * 0.5j * C)
    for g in G:
        fl._centred_transform(g, (spec.N / spec.L) ** spec.n, True, buf, g)
    del buf
    _in_parts(_spinor_assemble_blocks, blocks, G[0].size, step, G, B, out)
    return f._like(out)


def _combine(pairs, out=None):
    """The sum of c * x over the pairs (scalar c, array x) whose c is not 0,
    written into out if given.  With no such pair: out set to 0, or None."""
    pairs = [(c, x) for c, x in pairs if c]
    if not pairs:
        if out is not None:
            out[...] = 0
        return out
    out = np.multiply(*pairs[0], out=out)
    for c, x in pairs[1:]:
        out += c * x
    return out


def _spinor_symbol_blocks(lo, hi, step, G, axis, K):
    """Row blocks lo .. hi - 1 of the coordinate spectra G, in place, times
    S = 1/2 I + sum_j u_j K_j bin by bin.  Each entry of S is formed where it
    is used, so that a block holds few temporaries."""
    n = K.shape[0]

    def entry(a, b):
        """S[a, b] on the block; a scalar where no K_j reaches it"""
        m = _combine(zip(K[:, a, b], U))
        half = 0.5 * (a == b)
        if m is None:
            return half
        if half:
            m += half
        return m

    for r in range(lo * step, min(hi * step, len(axis)), step):
        rows = slice(r, r + step)
        U = _unit_direction(np.meshgrid(axis[rows], *(axis,) * (n - 1), indexing="ij", sparse=True))
        x, y = G[0][rows, ..., 0], G[1][rows, ..., 0]
        first = entry(0, 0) * x
        first += entry(0, 1) * y
        cross = entry(1, 0) * x
        y *= entry(1, 1)
        y += cross
        x[...] = first


def _spinor_assemble_blocks(lo, hi, step, G, B, out):
    """Row blocks lo .. hi - 1 of out = B c from the coordinates G, blade by
    blade over the nonzero entries of B."""
    for r in range(lo * step, min(hi * step, len(out)), step):
        rows = slice(r, r + step)
        coords = [g[rows, ..., 0] for g in G]
        for a, row in enumerate(B):
            _combine(zip(row, coords), out=out[rows, ..., a])


def poisson_extend(f: fl.CliffordField, x0: float) -> fl.CliffordField:
    """Harmonic extension to height |x0|: spectral damping exp(-2 pi |x0| |xi|)."""
    # 2 pi |x0| = inf would make 0 * inf = NaN at the zero frequency
    if not (isfinite(2 * pi * x0) and x0 != 0):
        raise ValueError(f"extension height must be nonzero with 2 pi |x0| finite, got {x0!r}")
    F = fl.spectral_forward(f)
    damp = np.exp(-2 * pi * abs(x0) * f.spec.freq_magnitude())
    F.data *= damp[..., None]
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


# Images with |m|_inf <= _IMAGES are summed directly; _lattice_tail stands in
# for the rest.
_IMAGES = 4


# radial-grid points _image_sum evaluates at once
_SLAB = 2**18


def _image_sum(spec: fl.GridSpec, x0: float, p: int, images: int) -> list:
    """Parts [K_0, K_1, ..., K_n] of the periodized kernel conj(q)/|q|^p,
    q = y - x0 the paravector offset to the image point y = x + m L, summed
    over |m|_inf <= images.  At x0 = 0 the singular cell is punctured; for
    p = n+1 the truncated far images are added by their linear tail term.

    Along each axis the offsets x + m L are y = h (k - c), k = 0 .. 2c-1,
    with c = images N + N/2, so 1/|q|^p is evaluated once per |y| on the
    radial grid h {0..c}^n and folded back to N points an axis at a time:
    F sums the 2 images + 1 blocks of N entries of ext[k] = A[|k - c|], G
    weights them by y first.  K_0 is F on every axis and K_a has G on axis
    a.  The radial grid is taken in slabs of at most _SLAB points along
    axis 0, the other axes folded in each slab, and axis 0 folded last."""
    n, N, h = spec.n, spec.N, spec.h
    c = images * N + N // 2
    ry = h * np.arange(c + 1)  # |y|
    sq = ry * ry

    def fold(A, axis, weighted):
        folded = np.empty(A.shape[:axis] + (N,) + A.shape[axis + 1:])
        A, out = np.moveaxis(A, axis, 0), np.moveaxis(folded, axis, 0)
        if weighted:
            A = A * ry.reshape((-1,) + (1,) * (A.ndim - 1))
        down, up = A[c:0:-1], A[:c]  # ext[:c] (y < 0) and ext[c:] (y >= 0)
        np.concatenate([down[c - N // 2:], up[: N // 2]], out=out)  # the block holding y = 0
        if weighted:
            out[: N // 2] *= -1
        add_down = np.subtract if weighted else np.add
        for m in range(images):
            add_down(out, down[m * N:(m + 1) * N], out=out)
            out += up[N // 2 + m * N:N // 2 + (m + 1) * N]
        return folded

    # S[b]: slabs folded by F on axes 1..n-1, except G on axis b (None: F throughout)
    S = {b: np.empty((c + 1,) + spec.shape[1:]) for b in (None, *range(1, n))}
    rows = max(1, _SLAB // (c + 1) ** (n - 1))
    for lo in range(0, c + 1, rows):
        r2 = sum(np.meshgrid(sq[lo:lo + rows], *(sq,) * (n - 1), indexing="ij", sparse=True), x0 * x0)
        den = r2 ** (p // 2)
        if p % 2:
            den = den * np.sqrt(r2)
        with np.errstate(divide="ignore"):
            inv = 1.0 / den
        if x0 == 0 and lo == 0:
            inv[(0,) * n] = 0.0
        part = {None: inv}
        for axis in range(n - 1, 0, -1):
            weighted = fold(part[None], axis, True)
            part = {b: fold(A, axis, False) for b, A in part.items()}
            part[axis] = weighted
        for b, A in part.items():
            S[b][lo:lo + rows] = A
    K = [fold(S[None], 0, False), -fold(S[None], 0, True)] + [-fold(S[b], 0, False) for b in range(1, n)]
    T = _lattice_tail(n, spec.L, images) if p == n + 1 else 0.0
    K[0] = -x0 * (K[0] + T)
    for a, xa in enumerate(np.meshgrid(*(spec.axis(),) * n, indexing="ij", sparse=True)):
        K[a + 1] += (T / n) * xa
    return K


def _correlate(kernels, blades, f: fl.CliffordField) -> np.ndarray:
    """h^n sum_k sum_y K_k(y) e_k f(x + y) on the periodic grid of f, for
    real kernels K_k and constant multivectors e_k: one forward transform of
    f, the sum of conj(F K_k) (e_k F f) bin by bin, one inverse transform."""
    spec = f.spec
    axes = tuple(range(spec.n))
    M = np.zeros(f.data.shape, dtype=complex)
    for K, e in zip(kernels, blades):
        M += np.conj(np.fft.fftn(np.fft.ifftshift(K)))[..., None] * e
    Fd = np.fft.fftn(np.fft.ifftshift(f.data, axes=axes), axes=axes)
    out = np.fft.ifftn(f.algebra.product(M, Fd), axes=axes)
    return spec.h ** spec.n * np.fft.fftshift(out, axes=axes)


def pv_quadrature_riesz(j: int, f: fl.CliffordField) -> fl.CliffordField:
    """Independent spatial oracle for riesz(): the punctured periodized kernel
    (2/|S^n|) y_j/|y|^(n+1) summed on the grid and on trigonometrically
    interpolated 2x and 4x finer grids, combined by Richardson
    extrapolation.  Slow by design; only used for cross-checks."""
    spec = f.spec
    scalar = np.eye(f.algebra.dim)[:1]
    S = []
    for factor in (1, 2, 4):
        fu = fl.spectral_upsample(f, factor)
        K = -2 / _sphere_area(spec.n) * _image_sum(fu.spec, 0.0, spec.n + 1, _IMAGES)[j + 1]
        S.append(_correlate([K], scalar, fu)[(slice(None, None, factor),) * spec.n])
    A = 2 * S[1] - S[0]
    B = 2 * S[2] - S[1]
    return f._like((8 * B - A) / 7)


def cauchy_extend(f: fl.CliffordField, x0: float, kernel_exponent: int | None = None) -> fl.CliffordField:
    """Cauchy integral of f over the boundary grid, evaluated at height x0.

    The kernel is conj(q)/|q|^p with q the offset paravector u - x0 and
    p = n+1 by default (the harmonic-analysis exponent; the value p = n is
    kept selectable to demonstrate that it fails the boundary-limit tests).
    Quadrature refines the grid by trigonometric interpolation (8x for n = 2,
    2x for n = 3), periodizes by image sums, and corrects the truncated image
    tail analytically; p = n takes the nearest image only.
    """
    if not (isfinite(x0) and x0 > 0):
        raise ValueError("extension height must be positive and finite")
    spec = f.spec
    n = spec.n
    p = n + 1 if kernel_exponent is None else kernel_exponent
    ups = 8 if n == 2 else 2
    fu = fl.spectral_upsample(f, ups)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused below
        K = _image_sum(fu.spec, x0, p, _IMAGES if p == n + 1 else 0)
        C = _correlate(K, np.eye(f.algebra.dim)[: n + 1], fu)[(slice(None, None, ups),) * n]
    C = C * (-1.0 / _sphere_area(n))
    if not np.isfinite(C).all():
        # the kernel underflows at an on-grid image point for a tiny x0 and overflows for a huge one
        raise ValueError(f"the Cauchy integral at height {x0!r} is not finite")
    return f._like(C)
