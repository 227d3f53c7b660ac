"""Clifford-valued fields on centered periodic grids and their transforms.

Grid points are x_k = -L/2 + k L/N per axis; frequencies xi_k = (k - N/2)/L.
The forward transform uses the kernel exp(-i 2 pi <x, xi>) scaled by the
cell volume (L/N)^n, so values approximate the continuum integral; the
inverse carries the per-bin weight (1/L)^n.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
from dataclasses import dataclass
from math import isfinite

import numpy as np

from . import algebra as alg
from .spin import GroupElement, inverse as group_inverse, rotation_matrix

MAGIC = b"CLF1"
# rows of the phase product that resample_action's phase sum forms at once (the
# block size of Algebra.product), cut so that rows x modes stays within 2^20,
# and the rows write_field_json encodes at once
_BLOCK = 512
# the most grid points a GridSpec may hold (N <= 2048 for n = 2, N <= 128 for n = 3),
# refined grids included
MAX_POINTS = 2**22
# the box lengths a GridSpec accepts: inside them the transform scales (L/N)^n
# and (N/L)^n, and the norms of unit-size fields, stay far from overflow and underflow
L_MIN, L_MAX = 1e-30, 1e30


@dataclass(frozen=True)
class GridSpec:
    n: int
    N: int
    L: float

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError("spatial dimension must be 2 or 3")
        if self.N < 8 or self.N & (self.N - 1):
            raise ValueError("points per axis must be a power of two, at least 8")
        if self.N**self.n > MAX_POINTS:
            raise ValueError(f"a {self.N}^{self.n} grid is above the cap of 2^22 = {MAX_POINTS} points")
        if not L_MIN <= self.L <= L_MAX:
            raise ValueError(f"box length must lie in [{L_MIN:g}, {L_MAX:g}], got {self.L!r}")

    @property
    def h(self) -> float:
        return self.L / self.N

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    def axis(self) -> np.ndarray:
        return -self.L / 2 + self.h * np.arange(self.N)

    def refined(self, factor: int) -> "GridSpec":
        """This grid refined factor-fold per axis, refused above the point cap by name."""
        if (self.N * factor) ** self.n > MAX_POINTS:
            raise ValueError(f"refining a {self.N}^{self.n} grid {factor}x gives a {self.N * factor}^{self.n} grid, "
                             f"above the cap of 2^22 = {MAX_POINTS} points")
        return GridSpec(self.n, self.N * factor, self.L)

    def freq_axis(self) -> np.ndarray:
        return (np.arange(self.N) - self.N / 2) / self.L

    def coords(self) -> list:
        return np.meshgrid(*([self.axis()] * self.n), indexing="ij")

    def freqs(self) -> list:
        return np.meshgrid(*([self.freq_axis()] * self.n), indexing="ij")

    def freq_magnitude(self) -> np.ndarray:
        XI = self.freqs()
        return np.sqrt(sum(x * x for x in XI))


class _FieldBase:
    def __init__(self, spec: GridSpec, value_algebra: str, data: np.ndarray):
        a = alg.get_algebra(value_algebra)
        if alg.SPATIAL_DIM[value_algebra] != spec.n:
            raise ValueError(f"value algebra {value_algebra} pairs with n={alg.SPATIAL_DIM[value_algebra]}")
        data = np.asarray(data, dtype=complex)
        if data.shape != spec.shape + (a.dim,):
            raise ValueError(f"data shape {data.shape} does not match grid {spec.shape}+({a.dim},)")
        self.spec = spec
        self.value_algebra = value_algebra
        self.data = data

    @property
    def algebra(self) -> alg.Algebra:
        return alg.get_algebra(self.value_algebra)

    def copy(self):
        return self._like(self.data.copy())

    def _like(self, data):
        return type(self)(self.spec, self.value_algebra, data)


class CliffordField(_FieldBase):
    """Spatial samples of a Clifford-valued function."""


class SpectralField(_FieldBase):
    """Frequency-side coefficients under the fixed transform convention."""


def zero_field(spec, value_algebra) -> CliffordField:
    a = alg.get_algebra(value_algebra)
    return CliffordField(spec, value_algebra, np.zeros(spec.shape + (a.dim,), dtype=complex))


# Each of the three passes of _centred_transform, the only code that gains from
# a second thread, is cut into parts of at least _PART complex values (2 MiB), at
# most one per CPU the process may run on; a smaller pass runs whole in the
# calling thread.  The first pass that splits makes the pool.
_PART = 2**17
_pool = None


class _Pool:
    """size - 1 worker threads of a concurrent.futures.ThreadPoolExecutor,
    which drops each part once it has run; a caller runs the first part of
    its pass itself.  Imported on first use, as _mapped_empty imports mmap:
    with the logging module it pulls in, it takes 4-8 ms."""

    def __init__(self, size: int):
        from concurrent.futures import ThreadPoolExecutor

        self.pid, self.size = os.getpid(), size
        self._executor = ThreadPoolExecutor(max(1, size - 1))

    def run(self, fn, bounds: list, args: tuple) -> None:
        parts = [self._executor.submit(fn, lo, hi, *args) for lo, hi in bounds[1:]]
        try:
            fn(*bounds[0], *args)
        finally:
            errors = [err for err in (p.exception() for p in parts) if err is not None]  # waits for each part
        if errors:  # raised in the caller once every part has ended
            raise errors[0]


def _in_parts(fn, count: int, values: int, *args) -> None:
    """fn(lo, hi, *args) over consecutive ranges that cover range(count), for
    a pass over `values` complex values.  Each range writes its own part, so
    the result is the same for any number of parts."""
    global _pool
    parts = min(count, values // _PART)
    if parts > 1 and (_pool is None or _pool.pid != os.getpid()):  # a forked child has none of its threads
        # affinity is honoured (os.cpu_count() ignores it) where the platform has it
        _pool = _Pool(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if parts < 2 or _pool.size < 2:
        fn(0, count, *args)
        return
    parts = min(parts, _pool.size)
    cuts = [count * k // parts for k in range(parts + 1)]
    _pool.run(fn, list(zip(cuts, cuts[1:])), args)


def _swap_halves(dst: np.ndarray, src: np.ndarray, lo: int, hi: int) -> None:
    """dst[lo:hi] = rows lo .. hi - 1 of src rolled by N/2 on every grid axis
    (fftshift and ifftshift agree for even N): per half of axis 0 that the
    rows meet, one block copy for each quadrant of the other grid axes."""
    h = len(src) // 2
    swaps = ((slice(0, h), slice(h, None)), (slice(h, None), slice(0, h)))  # (to, from) halves
    for a, b in ((lo, min(hi, h)), (max(lo, h), hi)):
        s = a + h if a < h else a - h
        for halves in itertools.product(swaps, repeat=src.ndim - 2) if a < b else ():
            to, fro = zip(*halves)
            dst[(slice(a, b),) + to] = src[(slice(s, s + b - a),) + fro]


def _rows_in(lo, hi, x, buf, fftn):
    _swap_halves(buf, x, lo, hi)
    fftn(buf[lo:hi], axes=tuple(range(1, x.ndim - 1)), out=buf[lo:hi])


def _columns(lo, hi, buf, fft):
    fft(buf[:, lo:hi], axis=0, out=buf[:, lo:hi])


def _rows_out(lo, hi, buf, out, scale):
    _swap_halves(out, buf, lo, hi)
    out[lo:hi] *= scale


def _centred_transform(x: np.ndarray, scale: float, inverse: bool, buf=None, out=None) -> np.ndarray:
    """fftshift(fftn(ifftshift(x))) * scale over the grid axes (ifftn if
    inverse) bit for bit, through two field-sized arrays.  numpy's fftn takes
    axis 0 last, one line at a time, so it runs as three passes over slabs
    of axis 0: rows shifted into buf and transformed over the other grid
    axes, columns of buf along axis 0, rows of buf shifted into out and
    scaled.  On a large field each pass is split over threads (_in_parts).
    A caller may pass the scratch buf and the result out, both of x's shape;
    out may be x itself, which is read only in the first pass."""
    fftn, fft = (np.fft.ifftn, np.fft.ifft) if inverse else (np.fft.fftn, np.fft.fft)
    buf = np.empty_like(x) if buf is None else buf
    out = np.empty_like(x) if out is None else out
    _in_parts(_rows_in, len(x), x.size, x, buf, fftn)
    _in_parts(_columns, len(x), x.size, buf, fft)
    _in_parts(_rows_out, len(x), x.size, buf, out, scale)
    return out


def _mapped_empty(shape) -> np.ndarray:
    """An uninitialised complex array in its own anonymous memory mapping,
    which goes back to the system when the array is freed.  For a large
    result that the caller keeps: taken from the malloc heap among the
    caller's shorter-lived arrays, it leaves free space around it that later
    large arrays cannot reuse.  The mapping is advised to use huge pages, as
    numpy advises its own large arrays, so that filling it faults in 2 MiB
    at a time instead of 4 KiB.  Private where the platform says so, so that
    a forked child copies it on write as it does the heap."""
    # imported on first use, so that `import cliffharm` loads nothing more: loaded
    # there, it moved the heap layout, and the peak RSS, of every process by about 1 MB
    import mmap

    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    m = mmap.mmap(-1, int(np.prod(shape)) * np.dtype(complex).itemsize, **private)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        m.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(m, complex).reshape(shape)


def spectral_forward(f: CliffordField) -> SpectralField:
    spec = f.spec
    return SpectralField(spec, f.value_algebra, _centred_transform(f.data, (spec.L / spec.N) ** spec.n, False))


def spectral_inverse(F: SpectralField) -> CliffordField:
    spec = F.spec
    return CliffordField(spec, F.value_algebra, _centred_transform(F.data, (spec.N / spec.L) ** spec.n, True))


def inner_product(f, g) -> complex:
    """Blade-orthonormal Hermitian pairing, conjugate-linear in the first slot."""
    if type(f) is not type(g) or f.spec != g.spec:
        raise ValueError("inner product needs two fields of the same kind and grid")
    if isinstance(f, SpectralField):
        w = (1.0 / f.spec.L) ** f.spec.n
    else:
        w = f.spec.h ** f.spec.n
    return complex(w * np.sum(np.conj(f.data) * g.data))


def norm(f) -> float:
    return float(np.sqrt(max(inner_product(f, f).real, 0.0)))


# the norms at which a residual reads a field as it is.  Spectral coefficients
# carry (L/N)^n: at L = L_MIN, 2^+-300 let the modes residuals' |c|^2 underflow
_IN_RANGE = 2.0**-100, 2.0**100


def _in_range(f, *more) -> tuple:
    """(||f||, f, *more) as every residual reads them.  ValueError on an
    all-zero f or a non-finite sample in f, told apart on the samples, as a
    finite f can overflow its norm.  Outside _IN_RANGE every field comes back
    times the one power of two that puts f's peak in [1, 2): that is exact,
    so a residual, linear in its fields, reads the same bits at any scale."""
    with np.errstate(over="ignore"):  # a field far above f comes back holding inf
        r = float(np.linalg.norm(f.data))
        if _IN_RANGE[0] <= r <= _IN_RANGE[1]:
            return (r, f, *more)
        parts = np.abs(np.ascontiguousarray(f.data).view(float))
        if not np.isfinite(parts).all():
            raise ValueError("field holds a non-finite sample")
        if not parts.any():
            raise ValueError("field is all zero: it has no residual")
        k = 1 - int(np.frexp(parts.max())[1])
        return _in_range(*(g._like(np.ldexp(np.ascontiguousarray(g.data).view(float), k).view(complex))
                           for g in (f, *more)))


def rel_error(a, b) -> float:
    """|a - b| / |b| over whole fields read through _in_range(b, a); a non-finite
    sample in a is refused too, as its NaN residual would pass `residual > tol`."""
    r, b_in, a_in = _in_range(b, a)
    with np.errstate(over="ignore"):
        d = float(np.linalg.norm(a_in.data - b_in.data))
        if isfinite(d):
            return d / r
        if not np.isfinite(a.data).all():
            raise ValueError("relative error of a field with a non-finite sample")
        # a finite a over 2^900 times b: a - b rounds to a, and 2^-512 a reads 2^-512 times the error
        return float(np.ldexp(rel_error(a._like(a.data * 2.0**-512), b), 512))


def apply_multiplier_array(M: np.ndarray, F: SpectralField) -> SpectralField:
    """Left geometric product by a multiplier coefficient array, bin by bin,
    through the blade loop that skips the symbol's zero blades."""
    return F._like(F.algebra.symbol_product(M, F.data))


def left_multiply_constant(c: np.ndarray, f):
    """c f through Algebra.symbol_product; see there for when it equals product bit for bit."""
    return f._like(f.algebra.symbol_product(c, f.data))


def right_multiply_constant(f, c: np.ndarray):
    return f._like(f.algebra.product(f.data, c))


def occupied_modes(F: SpectralField) -> tuple:
    """Bins whose largest coefficient exceeds 1e-13 of the field's peak:
    their (count, n) index array and the matching frequencies.  The largest
    coefficient is taken one blade at a time (a max over the short blade
    axis runs as dim-long inner loops).  A non-finite peak raises ValueError:
    no bin would exceed it, and the field would read as empty."""
    mags = np.abs(F.data[..., 0])
    for i in range(1, F.data.shape[-1]):
        np.maximum(mags, np.abs(F.data[..., i]), out=mags)
    peak = mags.max()
    if not np.isfinite(peak):
        raise ValueError("spectrum holds a non-finite coefficient")
    idx = np.argwhere(mags > 1e-13 * peak)
    return idx, (idx - F.spec.N / 2) / F.spec.L


def make_band_limited_random(spec: GridSpec, value_algebra: str, bandfraction: float, seed) -> CliffordField:
    """Deterministic random field with spectrum in |xi| <= bandfraction * xi_max,
    zero mean, and empty Nyquist planes."""
    if not 0 < bandfraction <= 1:
        raise ValueError("bandfraction must lie in (0, 1]")
    a = alg.get_algebra(value_algebra)
    rng = np.random.default_rng(seed)
    # the same draws as standard_normal(shape) for the real parts, then the
    # imaginary parts, taken a slab at a time: a real temporary half the
    # field's size, freed, would raise glibc's mmap threshold and leave the
    # caller's later arrays of up to that size in the heap
    data = np.empty(spec.shape + (a.dim,), dtype=complex)
    for part in (data.real, data.imag):
        for slab in part:
            slab[...] = rng.standard_normal(slab.shape)
    ximax = spec.N / (2 * spec.L)
    mag = spec.freq_magnitude()
    mask = (mag > 0) & (mag <= bandfraction * ximax)  # zero mean
    for ax in range(spec.n):
        sl = [slice(None)] * spec.n
        sl[ax] = 0
        mask[tuple(sl)] = False  # Nyquist plane has no mirror partner
    if not mask.any():
        raise ValueError(f"band fraction {bandfraction} holds no frequency bin on a {spec.N}-point grid")
    data *= mask[..., None]
    return spectral_inverse(SpectralField(spec, value_algebra, data))


def _signed_permutation(A: np.ndarray) -> bool:
    R = np.round(A)
    if np.max(np.abs(A - R)) > 1e-12:
        return False
    P = np.abs(R)
    return bool(np.all(P.sum(axis=0) == 1) and np.all(P.sum(axis=1) == 1))


def is_grid_preserving(g: GroupElement, spec: GridSpec) -> bool:
    if abs(g.r - 1.0) > 1e-12:
        return False
    if not _signed_permutation(rotation_matrix(g.s)):
        return False
    steps = g.b / spec.h
    # a step count whose float spacing exceeds 1e-9 is not resolved by that test (from
    # 2^53 up every float is an integer): such a shift takes the trigonometric path
    return bool(np.max(np.spacing(np.abs(steps))) <= 1e-9 and np.max(np.abs(steps - np.round(steps))) <= 1e-9)


def resample_action(g: GroupElement, f: CliffordField, left=None) -> CliffordField:
    """Samples of x -> f(g^{-1} x), or of x -> left f(g^{-1} x) for a constant
    coefficient array left (natural_rep passes r^(-n/2) s), at the points
    y = r A^-1 x + b, (r, A, b) from g^-1, by one of three paths.  When the
    rotor permutes the axes with signs, row a of A^-1 has one nonzero entry,
    at column b, so y_a depends on x_b alone; the first two paths share the
    per-axis coordinates r A^-1[a, b] x_b.

    - Grid-preserving g (r = 1, such a rotor, an on-grid shift) permutes the
      samples exactly: source index a is one integer vector over output
      axis b, shaped to broadcast along it, and the n vectors gather f.data
      in one fancy index; left_multiply_constant applies left.
    - Any other g with such a rotor resamples axis by axis: source axis a
      goes through the N x N matrix T_a = P_a D, D[k, j] = e^{-2 pi i xi_k
      x_j} / N the centred DFT, P_a[i, k] = e^{2 pi i r A^-1[a, b] x_i xi_k}
      e^{2 pi i b_a xi_k} (the shift a phase per frequency, as in the phase
      sum, not part of the coordinate).  With source axis a leading the
      buffer, read as (N, rest), src^T @ T_a^T applies T_a and moves that
      axis to the end; a (N^n, dim) @ (dim, dim) product applies left, and
      one copy moves each source axis to its output axis.  Two field-sized
      work arrays, no FFT, no mode search.
    - Any other rotor takes the factored phase sum over the field's
      occupied modes xi_m, with coefficients c_m.  Each phase splits as
      e^{2 pi i y.xi} = e^{2 pi i b.xi} prod_a e^{2 pi i x_a eta_a} with
      eta = r xi A^-1.  The shift phase and left are folded into c (M
      products instead of N^n), each axis gets one (N, M) table E_a, and
      the last axis goes into W[m, (k, d)] = E_n[k, m] c[m, d].  The output,
      read as (N^(n-1), N dim), is (E_1 * ... * E_(n-1))[rows, m] @ W, in
      blocks of at most _BLOCK rows and 2^20 / M rows: n N M exponentials
      instead of N^n M.

    The last two paths evaluate the trigonometric interpolant, exact for
    band-limited data, and refuse a non-finite sample with ValueError.
    """
    spec = f.spec
    if g.n != spec.n:
        raise ValueError("group element dimension does not match the grid")
    ginv = group_inverse(g)
    A_inv = rotation_matrix(ginv.s)
    n, N, dim = spec.n, spec.N, f.algebra.dim

    if _signed_permutation(A_inv):
        cols = np.argmax(np.abs(A_inv), axis=1)
        y = [ginv.r * A_inv[a_, b_] * spec.axis() for a_, b_ in enumerate(cols)]
        if is_grid_preserving(g, spec):
            idx = []
            for a_, b_ in enumerate(cols):
                j = np.round((y[a_] + ginv.b[a_] + spec.L / 2) / spec.h).astype(int) % N
                idx.append(j.reshape([-1 if k == b_ else 1 for k in range(n)]))
            out = f._like(f.data[tuple(idx)])
            return out if left is None else left_multiply_constant(left, out)
        if not np.all(np.isfinite(f.data)):
            raise ValueError("field holds a non-finite sample")
        xi = spec.freq_axis()
        D = np.exp(-2j * np.pi * np.outer(xi, spec.axis())) / N
        work, src = (np.empty(f.data.shape, complex), np.empty(f.data.shape, complex)), f.data
        # src^T @ T_a^T transforms the leading axis a and moves it last, so n products leave
        # (dim, s_0, ..., s_(n-1)); left goes in as the dim x dim matrix whose row j is left e_j
        for a_ in range(n):
            T = (np.exp(2j * np.pi * np.outer(y[a_], xi)) * np.exp(2j * np.pi * (ginv.b[a_] * xi))) @ D
            src = np.matmul(src.reshape(N, -1).T, T.T, out=work[a_ % 2].reshape(-1, N))
        perm, out = np.argsort(cols), work[n % 2]
        if left is None:
            moved = src.reshape((dim,) + spec.shape).transpose(tuple(1 + perm) + (0,))
        else:
            lmat = f.algebra.symbol_product(left, np.eye(dim, dtype=complex))
            src = np.matmul(src.reshape(dim, -1).T, lmat, out=out.reshape(-1, dim))
            moved, out = src.reshape(f.data.shape).transpose(tuple(perm) + (n,)), work[(n + 1) % 2]
        out[...] = moved
        return f._like(out)

    F = spectral_forward(f)
    occ, xi = occupied_modes(F)
    c = F.data[tuple(occ.T)] * (np.exp(2j * np.pi * (xi @ ginv.b)) / spec.L ** n)[:, None]
    if left is not None:
        c = f.algebra.symbol_product(left, c)
    eta = ginv.r * (xi @ A_inv)
    E = np.exp(2j * np.pi * spec.axis()[None, :, None] * eta.T[:, None, :])
    W = (E[-1].T[:, :, None] * c[:, None, :]).reshape(len(c), N * dim)
    out = np.empty(spec.shape + (dim,), dtype=complex)
    rows = out.reshape(-1, N * dim)
    lead = np.unravel_index(np.arange(len(rows)), (N,) * (n - 1))
    step = min(_BLOCK, max(1, 2**20 // max(len(c), 1)))
    for lo in range(0, len(rows), step):
        blk = slice(lo, lo + step)
        left = E[0][lead[0][blk]]
        for a_ in range(1, n - 1):
            left *= E[a_][lead[a_][blk]]
        np.matmul(left, W, out=rows[blk])
    return f._like(out)


def spectral_upsample(f: CliffordField, factor: int) -> CliffordField:
    """Trigonometric interpolation onto a factor-times finer grid."""
    if factor == 1:
        return f.copy()
    spec = f.spec
    fine = spec.refined(factor)
    F = spectral_forward(f)
    big = np.zeros(fine.shape + (f.algebra.dim,), dtype=complex)
    off = (fine.N - spec.N) // 2
    big[(slice(off, off + spec.N),) * spec.n] = F.data
    return spectral_inverse(SpectralField(fine, f.value_algebra, big))


def write_field_binary(f, path) -> None:
    spec = f.spec
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IId", spec.n, spec.N, spec.L))
        flat = f.data.reshape(-1, f.algebra.dim)
        inter = np.empty(flat.shape + (2,), dtype="<f8")
        inter[..., 0] = flat.real
        inter[..., 1] = flat.imag
        fh.write(inter.tobytes())


class FieldFormatError(ValueError):
    """A field file that is not a well-formed CLF1 document.  A well-formed
    header whose grid or value algebra GridSpec or CliffordField refuses
    raises their plain ValueError."""


def read_field_binary(path) -> CliffordField:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise FieldFormatError(f"bad magic {magic!r}; expected {MAGIC!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise FieldFormatError("CLF1 header is truncated")
        n, N, L = struct.unpack("<IId", header)
        body = fh.read()
    spec = GridSpec(int(n), int(N), float(L))
    npts = spec.N ** spec.n
    if len(body) % (16 * npts):
        raise FieldFormatError("field payload length does not divide the grid size")
    M = len(body) // (16 * npts)
    try:
        value_algebra = alg.VALUE_ALGEBRA_BY_DIM[(spec.n, M)]
    except KeyError:
        raise FieldFormatError(f"no value algebra with {M} blades for n={spec.n}")
    raw = np.frombuffer(body, dtype="<c16").reshape(spec.shape + (M,))
    if not np.all(np.isfinite(raw)):
        raise FieldFormatError("CLF1 payload holds a non-finite value")
    # a copy in native order; arithmetic on the parts would turn a real -0.0 into +0.0
    return CliffordField(spec, value_algebra, raw.astype(complex))


def write_field_json(f, path) -> None:
    spec = f.spec
    flat = f.data.reshape(-1, f.algebra.dim)
    head = json.dumps({"format": "CLF1", "n": spec.n, "N": spec.N, "L": spec.L, "value_algebra": f.value_algebra})
    # the bytes json.dump writes for the whole document, with "values" encoded
    # _BLOCK rows at a time by the C encoder
    with open(path, "w") as fh:
        fh.write(head[:-1] + ', "values": [')
        for lo in range(0, len(flat), _BLOCK):
            blk = flat[lo:lo + _BLOCK]
            fh.write((", " if lo else "") + json.dumps(np.stack([blk.real, blk.imag], -1).tolist())[1:-1])
        fh.write("]}")


def read_field_json(path) -> CliffordField:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as err:  # not JSON, or not UTF-8 text
        raise FieldFormatError(f"not a JSON document: {err}") from err
    if not isinstance(doc, dict) or doc.get("format") != "CLF1":
        raise FieldFormatError("not a CLF1 json document")
    try:
        n, N, L, rows = doc["n"], doc["N"], doc["L"], doc["values"]
        value_algebra = doc["value_algebra"]
        a = alg.get_algebra(value_algebra)
        # JSON numbers only: not a bool (an int in Python), not 2.5 for n or N, not a string
        if not (type(n) is type(N) is int and type(L) in (int, float)):
            raise FieldFormatError(f"CLF1 json needs integers n and N and a number L, got {n!r}, {N!r}, {L!r}")
        if not {type(x) for row in rows for pair in row for x in pair} <= {int, float}:
            raise FieldFormatError("CLF1 json values must be [re, im] pairs of JSON numbers")
        flat = np.array([[complex(re, im) for re, im in row] for row in rows])
        L = float(L)
    except FieldFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise FieldFormatError(f"malformed CLF1 json document: {err!r}") from err
    spec = GridSpec(n, N, L)
    if flat.shape != (spec.N**spec.n, a.dim):
        raise FieldFormatError(f"CLF1 json values have shape {flat.shape}; a {spec.N}^{spec.n} "
                               f"{value_algebra} field needs ({spec.N**spec.n}, {a.dim})")
    if not np.all(np.isfinite(flat)):
        raise FieldFormatError("CLF1 json values hold a non-finite value")
    return CliffordField(spec, value_algebra, flat.reshape(spec.shape + (a.dim,)))


def write_field(f, path) -> None:
    if str(path).endswith(".json"):
        write_field_json(f, path)
    else:
        write_field_binary(f, path)


def read_field(path) -> CliffordField:
    if str(path).endswith(".json"):
        return read_field_json(path)
    return read_field_binary(path)
