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
from .algebra import get_algebra, spinor_matrices, vector_embed


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


# grid points per block of the spinor symbol and of the assembly
_SPINOR_BLOCK = 2**13


def pair_hardy_project(sign, f: fl.CliffordField, pair: int) -> fl.CliffordField:
    """hardy_project(sign, P_j f): the 2 x 2 form of pair_spatial_project at
    u = xi/|xi|, between two one-component transforms each way instead of
    dim-component ones.  The temporaries are three one-component arrays."""
    s = _parse_sign(sign)
    spec = f.spec
    B, C, G = _spinor_coordinates(f, pair)
    buf = np.empty_like(G[0])
    for g in G:
        fl._centred_transform(g, (spec.L / spec.N) ** spec.n, False, buf, g)
    _spinor_symbol_blocks(G, spec.freq_axis(), s * 0.5j * C)
    for g in G:
        fl._centred_transform(g, (spec.N / spec.L) ** spec.n, True, buf, g)
    del buf
    return _spinor_assemble(f, G, B)


def pair_spatial_project(sign, f: fl.CliffordField, pair: int) -> fl.CliffordField:
    """chi_sign(x/|x|) P_j f for P_j the projector onto the ambient pair j of
    two-dimensional left ideals, in the pair's spinor coordinates c = B^† f
    (algebra.spinor_matrices): e_j B = B C_j, so chi_sign(u) acts on c as
    1/2 I + sign 1/2 i sum_j u_j C_j, u = x/|x| (0 at the origin)."""
    B, C, G = _spinor_coordinates(f, pair)
    _spinor_symbol_blocks(G, f.spec.axis(), _parse_sign(sign) * 0.5j * C)
    return _spinor_assemble(f, G, B)


def _spinor_coordinates(f: fl.CliffordField, pair: int) -> tuple:
    """B, the C_j and c = B^† f as two one-component arrays."""
    B, C = spinor_matrices(f.value_algebra, pair)
    flat = f.data.reshape(-1, B.shape[0])
    return B, C, [(flat @ b.conj()).reshape(f.spec.shape + (1,)) for b in B.T]


def _spinor_assemble(f: fl.CliffordField, G, B) -> fl.CliffordField:
    """B c from the coordinates G, in its own mapping (fields._mapped_empty):
    blade by blade over the nonzero entries of B, in blocks of about
    _SPINOR_BLOCK points."""
    out = fl._mapped_empty(f.data.shape)
    step = max(1, _SPINOR_BLOCK // G[0][0].size)  # rows per block
    for r in range(0, len(out), step):
        coords = [g[r:r + step, ..., 0] for g in G]
        for a, row in enumerate(B):
            _combine(zip(row, coords), out=out[r:r + step, ..., a])
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


def _spinor_symbol_blocks(G, axis, K):
    """The coordinates G, in place, times S = 1/2 I + sum_j u_j K_j point by
    point, u the unit direction of the points on axis (samples or bins), in
    blocks of about _SPINOR_BLOCK points.  Each entry of S is formed where it
    is used, so that a block holds few temporaries.  It runs in the calling
    thread: on blocks this small a second thread mostly waits for the GIL."""
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

    step = max(1, _SPINOR_BLOCK // G[0][0].size)  # rows per block
    for r in range(0, len(G[0]), step):
        rows = slice(r, r + step)
        U = _unit_direction(np.meshgrid(axis[rows], *(axis,) * (n - 1), indexing="ij", sparse=True))
        x, y = G[0][rows, ..., 0], G[1][rows, ..., 0]
        first = entry(0, 0) * x
        first += entry(0, 1) * y
        cross = entry(1, 0) * x
        y *= entry(1, 1)
        y += cross
        x[...] = first


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
    F adds ext[k] = A[|k - c|] at k mod N, G weights it by y first.  K_0
    is F on every axis; K_a, G on axis a, is K_1 with axes 1 and a swapped.
    Slabs of at most _SLAB points along axis 0 are evaluated in place,
    folded by F on the other axes, and then straight into K_0 and K_1."""
    n, N, h = spec.n, spec.N, spec.h
    c = images * N + N // 2
    ry = h * np.arange(c + 1)  # |y|
    sq = ry * ry

    def fold(A, axis, lo=0, out=None):
        """out (zeros if not given) plus each A[r] along axis, r = lo, lo + 1,
        ..., added at (N/2 + r) mod N, where y = h r lands."""
        if out is None:
            out = np.zeros(A.shape[:axis] + (N,) + A.shape[axis + 1:])
        A, U = np.moveaxis(A, axis, 0), np.moveaxis(out, axis, 0)
        hi, r = lo + len(A), lo
        while r < hi:  # a run of rows that lands without wrapping
            t = (N // 2 + r) % N
            m = min(N - t, hi - r)
            U[t:t + m] += A[r - lo:r - lo + m]
            r += m
        return out

    def mirror(U, axis, weighted, first, last):
        """F = U + U mirrored or G = U - U mirrored (y = -h r lands at N/2 - r) in place from U,
        the fold of every r, less row r = c (last) at y = c h and, for F, row y = 0 (first) twice."""
        V = np.moveaxis(U, axis, 0)
        (np.subtract if weighted else np.add)(V, V[-np.arange(N)], out=V)
        V[0] -= ry[c] * last if weighted else last
        V[N // 2] -= 0 if weighted else first
        return U

    K0, K1 = np.zeros(spec.shape), np.zeros(spec.shape)
    rows = max(1, _SLAB // (c + 1) ** (n - 1))
    den = np.empty((rows,) + (c + 1,) * (n - 1))
    for lo in range(0, c + 1, rows):
        *lead, last = np.meshgrid(sq[lo:lo + rows], *(sq,) * (n - 1), indexing="ij", sparse=True)
        q = np.add(sum(lead, x0 * x0), last, out=den[:len(lead[0])])  # |q|^2, then 1/|q|^p in place
        root = np.sqrt(q) if p % 2 else None
        if p // 2 != 1:
            q **= p // 2
        if root is not None:
            q *= root
        with np.errstate(divide="ignore"):
            np.divide(1.0, q, out=q)
        if x0 == 0 and lo == 0:
            q[(0,) * n] = 0.0
        for axis in range(1, n):
            q = mirror(fold(q, axis), axis, False, q.take(0, axis), q.take(c, axis))
        fold(q, 0, lo, K0)
        fold(q * ry[lo:lo + len(q)].reshape((-1,) + (1,) * (n - 1)), 0, lo, K1)  # G: weighted by |y|
        first = q[0] if lo == 0 else first  # the row r = 0; the last slab's last row is r = c
    mirror(K0, 0, False, first, q[-1])
    mirror(K1, 0, True, first, q[-1])
    T = _lattice_tail(n, spec.L, images) if p == n + 1 else 0.0
    X = np.meshgrid(*(spec.axis(),) * n, indexing="ij", sparse=True)
    return [-x0 * (K0 + T)] + [(T / n) * xa - np.swapaxes(K1, 0, a) for a, xa in enumerate(X)]


def _correlate(kernels, blades, f: fl.CliffordField) -> np.ndarray:
    """h^n sum_k sum_y K_k(y) e_k f(x + y) at f's grid points x, for real K_k
    on f's grid refined per axis (spacing h), constant multivectors e_k, and
    f's trigonometric interpolant, whose spectrum is f's zero-padded: so the
    sum of conj(F K_k) e_k on f's band times F f, all on f's grid."""
    spec = f.spec
    n, N, fine = spec.n, spec.N, kernels[0].shape[0]
    axes = tuple(range(n))
    band = np.fft.ifftshift(np.arange(-(N // 2), N // 2)) % fine  # f's bins in fft order, on the fine grid
    M = np.zeros(f.data.shape, dtype=complex)
    for K, e in zip(kernels, blades):
        X = np.fft.rfft(np.fft.ifftshift(K), axis=-1)  # K is real: bin -m of a line is conj(bin m)
        X = np.concatenate([X[..., :N // 2], np.conj(X[..., N // 2:0:-1])], axis=-1)
        for a in range(n - 1):  # the other axes, each cut to the band once transformed
            X = np.fft.fft(X, axis=a).take(band, axis=a)
        M += np.conj(X)[..., None] * e
    Fd = np.fft.fftn(np.fft.ifftshift(f.data, axes=axes), axes=axes)
    out = np.fft.ifftn(f.algebra.product(M, Fd), axes=axes)
    return (spec.L / fine) ** n * np.fft.fftshift(out, axes=axes)


def pv_quadrature_riesz(j: int, f: fl.CliffordField) -> fl.CliffordField:
    """Independent spatial oracle for riesz(): the punctured periodized kernel
    (2/|S^n|) y_j/|y|^(n+1) sampled on the grid and on 2x and 4x finer grids,
    each correlated with f in f's band, combined by Richardson extrapolation.
    Slow by design; only used for cross-checks."""
    spec = f.spec
    scalar = np.eye(f.algebra.dim)[:1]
    S = []
    for factor in (1, 2, 4):
        K = -2 / _sphere_area(spec.n) * _image_sum(spec.refined(factor), 0.0, spec.n + 1, _IMAGES)[j + 1]
        S.append(_correlate([K], scalar, f))
    A = 2 * S[1] - S[0]
    B = 2 * S[2] - S[1]
    return f._like((8 * B - A) / 7)


def cauchy_extend(f: fl.CliffordField, x0: float, kernel_exponent: int | None = None) -> fl.CliffordField:
    """Cauchy integral of f over the boundary grid, evaluated at height x0.

    The kernel is conj(q)/|q|^p with q the offset paravector u - x0 and
    p = n+1 by default (the harmonic-analysis exponent; the value p = n is
    kept selectable to demonstrate that it fails the boundary-limit tests).
    The kernel is sampled on the grid refined 8x for n = 2 and 2x for n = 3,
    periodized by image sums with the truncated tail corrected analytically
    (p = n takes the nearest image only), and correlated with f in f's band;
    the result has its own memory mapping (fields._mapped_empty).
    """
    if not (isfinite(x0) and x0 > 0):
        raise ValueError("extension height must be positive and finite")
    n = f.spec.n
    p = n + 1 if kernel_exponent is None else kernel_exponent
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused below
        K = _image_sum(f.spec.refined(8 if n == 2 else 2), x0, p, _IMAGES if p == n + 1 else 0)
        C = np.multiply(_correlate(K, np.eye(f.algebra.dim)[: n + 1], f), -1.0 / _sphere_area(n),
                        out=fl._mapped_empty(f.data.shape))
    if not np.isfinite(C).all():
        # the kernel underflows at an on-grid image point for a tiny x0 and overflows for a huge one
        raise ValueError(f"the Cauchy integral at height {x0!r} is not finite")
    return f._like(C)
