import itertools
import math
import tracemalloc
import types

import numpy as np
import pytest

from cliffharm import algebra as alg
from cliffharm import fields as fl
from cliffharm import representations as rp
from cliffharm import spin as sp
from cliffharm import transforms as tr


def _random_directions(rng, n, count):
    xi = rng.standard_normal((count, n))
    keep = np.linalg.norm(xi, axis=1) > 1e-6
    return xi[keep]


@pytest.mark.parametrize("value_algebra,n", [("Cl2", 2), ("H", 3), ("Cl3", 3)])
def test_symbol_identities_on_random_frequencies(value_algebra, n):
    a = alg.get_algebra(value_algebra)
    rng = np.random.default_rng(10 + n + a.dim)
    xi = _random_directions(rng, n, 10_000)
    m = np.zeros((xi.shape[0], a.dim), dtype=complex)
    unit = xi / np.linalg.norm(xi, axis=1, keepdims=True)
    for j in range(n):
        m[:, j + 1] = 1j * unit[:, j]
    one = np.zeros(a.dim)
    one[0] = 1.0
    chip = 0.5 * (one + m)
    chim = 0.5 * (one - m)
    mm = alg.geometric_product(m, m, a)
    assert np.max(np.abs(mm - one)) < 1e-13
    assert np.max(np.abs(alg.geometric_product(chip, chip, a) - chip)) < 1e-13
    assert np.max(np.abs(alg.geometric_product(chim, chim, a) - chim)) < 1e-13
    assert np.max(np.abs(alg.geometric_product(chip, chim, a))) < 1e-13
    assert np.max(np.abs(chip + chim - one)) < 1e-14


def test_pointwise_symbol_matches_array():
    spec = fl.GridSpec(2, 16, 8.0)
    M = tr.hilbert_multiplier_array(spec, "Cl2")
    XI = spec.freqs()
    i, j = 11, 4
    want = tr.hilbert_multiplier_at(np.array([XI[0][i, j], XI[1][i, j]]), "Cl2")
    assert np.allclose(M[i, j], want, atol=1e-15)
    center = (spec.N // 2, spec.N // 2)
    assert np.all(M[center] == 0)
    with pytest.raises(ZeroDivisionError):
        tr.hilbert_multiplier_at(np.zeros(3))


@pytest.mark.parametrize("xi", [[1e300, 0.0], [1e-200, 0.0], [3e-170, 4e-170], [1e200, -2e200, 2e200],
                                [-5e-324, 0.0], [1.7e308, 1.7e308]])
def test_symbol_at_extreme_frequencies_is_i_times_the_direction(xi):
    """|xi|^2 overflows or is subnormal at these xi; the symbol is still
    i xi/|xi|, worked out here on the exactly rescaled vector."""
    xi = np.array(xi)
    u = xi / np.max(np.abs(xi))
    want = np.zeros(8 if len(xi) == 3 else 4, dtype=complex)
    want[1:len(xi) + 1] = 1j * u / np.sqrt(u @ u)
    got = tr.hilbert_multiplier_at(xi)
    assert np.allclose(got, want, rtol=0, atol=1e-15), (got, want)
    with pytest.raises(ZeroDivisionError):
        tr.hilbert_multiplier_at(np.zeros_like(xi))
    with pytest.raises(ZeroDivisionError):
        tr.hilbert_multiplier_at(-np.zeros_like(xi))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_symbol_refuses_a_non_finite_frequency(bad):
    """A non-finite frequency has no direction.  The symbol used to come out
    as the zero multivector there (nan) or after numpy's RuntimeWarning (inf),
    and the equivariance residual read 0: a check that passed on nothing."""
    spins = {2: sp.spin2_from_angle(0.3), 3: sp.spin3_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.7)}
    for xi in ([bad, 1.0, 0.0], [0.0, 1.0, bad], [bad, 2.0], [bad, bad, bad]):
        with pytest.raises(ValueError, match="finite"):
            tr.hilbert_multiplier_at(xi)
        with pytest.raises(ValueError, match="finite"):
            rp.multiplier_equivariance_residual(spins[len(xi)], xi)


def test_symbol_at_ordinary_frequencies_is_not_rescaled():
    """Away from overflow and underflow of |xi|^2 the symbol is computed from
    xi itself, bit for bit as the grid symbol builder does."""
    rng = np.random.default_rng(3)
    for n in (2, 3):
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            xi = scale * rng.standard_normal(n)
            want = tr._symbol(xi[:, None], "Cl3" if n == 3 else "Cl2", 0, 1j)[0]
            assert np.array_equal(tr.hilbert_multiplier_at(xi), want)


@pytest.mark.parametrize("n,N,value_algebra", [(2, 32, "Cl2"), (3, 16, "H"), (3, 16, "Cl3")])
def test_symbol_on_listed_modes_equals_the_grid_arrays(n, N, value_algebra):
    spec = fl.GridSpec(n, N, 10.0)
    occ, xi = fl.occupied_modes(fl.spectral_forward(fl.make_band_limited_random(spec, value_algebra, 0.5, 4)))
    origin = np.full((1, n), N // 2)
    occ, xi = np.concatenate([occ, origin]), np.concatenate([xi, np.zeros((1, n))])
    bins = tuple(occ.T)
    H = tr.hilbert_multiplier_array(spec, value_algebra)
    assert np.array_equal(tr._symbol(xi.T, value_algebra, 0, 1j), H[bins])
    for sign in (1, -1):
        chi = tr.chi_multiplier_array(spec, value_algebra, sign)
        assert np.array_equal(tr._symbol(xi.T, value_algebra, 0.5, sign * 0.5j), chi[bins])
    assert np.array_equal(tr._symbol(xi.T, value_algebra, 0, 1j)[-1], np.zeros(H.shape[-1]))


def test_chi_arrays_halve_the_origin():
    spec = fl.GridSpec(3, 8, 8.0)
    P = tr.chi_multiplier_array(spec, "Cl3", +1)
    center = (4, 4, 4)
    want = np.zeros(8)
    want[0] = 0.5
    assert np.allclose(P[center], want)


@pytest.mark.parametrize("n,N,L,value_algebra", [(2, 32, 12.0, "Cl2"), (3, 16, 10.0, "Cl3"), (3, 16, 10.0, "H")])
def test_hilbert_squares_to_identity(n, N, L, value_algebra):
    spec = fl.GridSpec(n, N, L)
    for seed in range(3):
        f = fl.make_band_limited_random(spec, value_algebra, 0.4, seed)
        assert fl.rel_error(tr.hilbert(tr.hilbert(f)), f) < 1e-12


@pytest.mark.parametrize("n,N,L,value_algebra", [(2, 32, 12.0, "Cl2"), (3, 16, 10.0, "Cl3")])
def test_hilbert_routes_agree(n, N, L, value_algebra):
    spec = fl.GridSpec(n, N, L)
    f = fl.make_band_limited_random(spec, value_algebra, 0.4, 20)
    assert fl.rel_error(tr.hilbert(f, "multiplier"), tr.hilbert(f, "riesz_sum")) < 1e-13
    with pytest.raises(ValueError):
        tr.hilbert(f, "fastest")


def test_axis_sine_maps_to_vector_cosine():
    spec = fl.GridSpec(2, 32, 8.0)
    X = spec.coords()
    a = 2 / spec.L
    f = fl.zero_field(spec, "Cl2")
    f.data[..., 0] = np.sin(2 * np.pi * a * X[0])
    H = tr.hilbert(f)
    want = fl.zero_field(spec, "Cl2")
    want.data[..., 1] = np.cos(2 * np.pi * a * X[0])
    assert fl.rel_error(H, want) < 1e-12


def test_hilbert_commutes_with_cell_shifts():
    spec = fl.GridSpec(2, 32, 12.0)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, 21)
    g = sp.GroupElement(1.0, sp.identity_spin(2), spec.h * np.array([3.0, -5.0]))
    lhs = tr.hilbert(fl.resample_action(g, f))
    rhs = fl.resample_action(g, tr.hilbert(f))
    assert fl.rel_error(lhs, rhs) < 1e-13


def test_constant_fields_are_annihilated():
    spec = fl.GridSpec(2, 16, 8.0)
    ones = fl.zero_field(spec, "Cl2")
    ones.data[..., 0] = 1.0
    assert fl.norm(tr.hilbert(ones)) < 1e-13
    # the mean passes through each Hardy projection at half weight
    half = tr.hardy_project("+", ones)
    assert np.allclose(half.data[..., 0], 0.5, atol=1e-13)


def test_riesz_components_square_to_minus_identity():
    spec = fl.GridSpec(3, 16, 10.0)
    f = fl.make_band_limited_random(spec, "Cl3", 0.4, 22)
    acc = fl.zero_field(spec, "Cl3")
    for j in range(3):
        acc.data = acc.data + tr.riesz(j, tr.riesz(j, f)).data
    minus = fl.CliffordField(spec, "Cl3", -f.data)
    assert fl.rel_error(acc, minus) < 1e-12
    with pytest.raises(ValueError):
        tr.riesz(3, f)


@pytest.mark.parametrize("value_algebra,n,N,L", [("Cl2", 2, 32, 12.0), ("H", 3, 16, 10.0), ("Cl3", 3, 16, 10.0)])
def test_hardy_projections_split_and_are_eigenspaces(value_algebra, n, N, L):
    spec = fl.GridSpec(n, N, L)
    f = fl.make_band_limited_random(spec, value_algebra, 0.4, 23)
    plus = tr.hardy_project("+", f)
    minus = tr.hardy_project(-1, f)
    recon = fl.CliffordField(spec, value_algebra, plus.data + minus.data)
    assert fl.rel_error(recon, f) < 1e-13
    assert fl.rel_error(tr.hardy_project("+", plus), plus) < 1e-12
    assert fl.rel_error(tr.hilbert(plus), plus) < 1e-12
    Hm = tr.hilbert(minus)
    neg = fl.CliffordField(spec, value_algebra, -minus.data)
    assert fl.rel_error(Hm, neg) < 1e-12


@pytest.mark.parametrize("value_algebra,n,N", [("Cl2", 2, 64), ("H", 3, 16), ("Cl3", 3, 16)])
def test_symbol_path_equals_the_general_product_bit_for_bit(value_algebra, n, N):
    """hilbert and hardy_project multiply through Algebra.symbol_product; on
    the symbols each term is one rounded product, so the operators equal
    spectral_inverse(F._like(alg.product(M, F.data))) exactly."""
    spec = fl.GridSpec(n, N, 10.0)
    f = fl.make_band_limited_random(spec, value_algebra, 0.4, 29)
    a = alg.get_algebra(value_algebra)
    F = fl.spectral_forward(f)
    cases = [(tr.hilbert(f), tr.hilbert_multiplier_array(spec, value_algebra))]
    cases += [(tr.hardy_project(s, f), tr.chi_multiplier_array(spec, value_algebra, s)) for s in (1, -1)]
    for got, M in cases:
        want = fl.spectral_inverse(F._like(a.product(M, F.data)))
        assert np.array_equal(got.data, want.data)


def test_hardy_projection_of_a_plane_wave():
    spec = fl.GridSpec(2, 16, 8.0)
    X = spec.coords()
    k = 3  # positive frequency along the first axis
    f = fl.zero_field(spec, "Cl2")
    f.data[..., 0] = np.exp(2j * np.pi * (k / spec.L) * X[0])
    plus = tr.hardy_project("+", f)
    # chi_+ at that frequency is (1 + i e1)/2
    want = fl.zero_field(spec, "Cl2")
    want.data[..., 0] = 0.5 * f.data[..., 0]
    want.data[..., 1] = 0.5j * f.data[..., 0]
    assert fl.rel_error(plus, want) < 1e-13


def test_poisson_damps_each_mode_by_its_frequency():
    spec = fl.GridSpec(2, 16, 8.0)
    X = spec.coords()
    k1, k2 = 3, -2
    f = fl.zero_field(spec, "Cl2")
    f.data[..., 0] = np.exp(2j * np.pi * ((k1 / spec.L) * X[0] + (k2 / spec.L) * X[1]))
    x0 = 0.35
    ext = tr.poisson_extend(f, x0)
    ximag = np.hypot(k1 / spec.L, k2 / spec.L)
    want = np.exp(-2 * np.pi * x0 * ximag)
    assert np.max(np.abs(ext.data[..., 0] - want * f.data[..., 0])) < 1e-12
    for bad in (0.0, 3e307):
        with pytest.raises(ValueError):
            tr.poisson_extend(f, bad)


def test_pv_quadrature_reproduces_the_multiplier_route():
    # punctured-kernel summation with Richardson refinement against the
    # spectral symbol; tolerance pinned from a measured 1.1e-5
    spec = fl.GridSpec(2, 64, 12.0)
    X = spec.coords()
    f = fl.zero_field(spec, "Cl2")
    f.data[..., 0] = np.exp(-np.pi * (X[0] ** 2 + X[1] ** 2))
    q = tr.pv_quadrature_riesz(0, f)
    assert fl.rel_error(q, tr.riesz(0, f)) < 1e-4


def test_cauchy_extension_matches_damped_projection():
    # boundary integral against the exact spectral route chi_+ o Poisson;
    # tolerance pinned from a measured 1.1e-5
    spec = fl.GridSpec(2, 32, 12.0)
    X = spec.coords()
    f = fl.zero_field(spec, "Cl2")
    f.data[..., 0] = np.exp(-np.pi * (X[0] ** 2 + X[1] ** 2) / 16.0)
    C = tr.cauchy_extend(f, 0.4)
    target = tr.hardy_project("+", tr.poisson_extend(f, 0.4))
    diff = fl.CliffordField(spec, "Cl2", C.data - target.data)
    assert fl.norm(diff) / fl.norm(f) < 5e-4
    with pytest.raises(ValueError):
        tr.cauchy_extend(f, -0.1)


def test_cauchy_extend_refuses_a_refined_grid_above_the_cap():
    f = fl.zero_field(fl.GridSpec(2, 512, 12.0), "Cl2")
    with pytest.raises(ValueError, match="refining a 512\\^2 grid 8x"):
        tr.cauchy_extend(f, 0.1)


@pytest.mark.parametrize("x0", [1e-200, 1e308])
def test_cauchy_extend_refuses_a_non_finite_result(x0):
    # the kernel underflows at the on-grid image point for a tiny height and overflows for a huge one
    f = fl.make_band_limited_random(fl.GridSpec(2, 8, 4.0), "Cl2", 0.4, 3)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
        tr.cauchy_extend(f, x0)


def _direct_image_sum(spec, x0, p, images):
    """The parts of conj(q)/|q|^p, q = (x + m L) - x0, summed image by image
    and point by point, skipping q = 0, plus the linear far-image tail."""
    n, L = spec.n, spec.L
    K = np.zeros((n + 1,) + spec.shape)
    offsets = list(itertools.product(range(-images, images + 1), repeat=n))
    for idx in np.ndindex(spec.shape):
        x = spec.axis()[list(idx)]
        for m in offsets:
            y = x + L * np.array(m)
            r = math.sqrt(x0 * x0 + float(y @ y))
            if r == 0:
                continue
            K[(0,) + idx] -= x0 / r ** p
            for a in range(n):
                K[(a + 1,) + idx] -= y[a] / r ** p
    if p == n + 1:
        T = tr._lattice_tail(n, L, images)
        K[0] -= x0 * T
        for a, xa in enumerate(spec.coords()):
            K[a + 1] += T / n * xa
    return K


@pytest.mark.parametrize("x0", [0.0, 0.3])
@pytest.mark.parametrize("n,tail", [(2, False), (2, True), (3, False), (3, True)])
def test_image_sum_matches_a_direct_sum(n, tail, x0):
    # shared by both quadrature oracles; x0 = 0 is the punctured Riesz case,
    # p = n + 1 adds the lattice tail, p = n does not; 0 to 2 images, and a
    # 16-point grid beside the 8-point ones, reach every folded image block
    # and the unmatched -(images + 1/2) L endpoint plane
    p = n + 1 if tail else n
    for N in (8, 16) if n == 2 else (8,):
        spec = fl.GridSpec(n, N, 3.0)
        for images in (0, 1, 2):
            want = _direct_image_sum(spec, x0, p, images)
            got = np.array(tr._image_sum(spec, x0, p, images))
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (N, images)


def test_image_sum_memory_is_bounded_by_its_slabs():
    # the radial grid of a 32^3 grid with 4 images is 145^3 points (24 MiB);
    # it is evaluated and folded in slabs of at most 2^18 points
    tracemalloc.start()
    try:
        tr._image_sum(fl.GridSpec(3, 32, 10.0), 0.2, 4, tr._IMAGES)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def _epstein_zeta_ewald(d, s, R=6):
    """sum over nonzero m in Z^d of |m|^(-2s), from the Ewald split
    pi^-s Gamma(s) Z(s) = -1/s + 1/(s - d/2)
                          + sum'_m [G_s(pi |m|^2) + G_(d/2-s)(pi |m|^2)]
    with G_a(x) = Gamma(a, x) / x^a, truncated at |m|_inf <= R."""
    ax = np.arange(-R, R + 1, dtype=float)
    x = np.pi * sum(np.meshgrid(*(ax * ax,) * d, indexing="ij")).ravel()
    x = x[x > 0]
    e = np.array([math.exp(-v) for v in x])
    g_half = math.sqrt(math.pi) * np.array([math.erfc(math.sqrt(v)) for v in x])
    upper = {  # Gamma(a, x) for the orders the two sums need
        1.5: g_half / 2 + np.sqrt(x) * e,
        -0.5: 2 * (e / np.sqrt(x) - g_half),
        2.0: (1 + x) * e,
    }
    a, b = s, d / 2 - s
    total = -1 / s + 1 / (s - d / 2) + np.sum(upper[a] / x ** a + upper[b] / x ** b)
    return total * math.pi ** s / math.gamma(s)


@pytest.mark.parametrize("n", [2, 3])
def test_lattice_sum_constants_match_an_ewald_series(n):
    s = (n + 1) / 2
    want = _epstein_zeta_ewald(n, s)
    assert abs(tr._LATTICE_SUM[n] - want) <= 1e-13 * want


@pytest.mark.parametrize("n", [2, 3])
def test_lattice_tail_drops_by_one_shell_per_step(n):
    for L in (1.0, 12.0):
        for M in range(5):
            ax = np.arange(-(M + 1), M + 2)
            m = np.stack(np.meshgrid(*(ax,) * n, indexing="ij"), axis=-1).reshape(-1, n)
            shell = m[np.max(np.abs(m), axis=1) == M + 1].astype(float)
            direct = np.sum(np.sum(shell ** 2, axis=1) ** (-(n + 1) / 2)) / L ** (n + 1)
            step = tr._lattice_tail(n, L, M) - tr._lattice_tail(n, L, M + 1)
            assert step == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("n", [1, 4])
def test_lattice_tail_refuses_other_dimensions(n):
    with pytest.raises(ValueError):
        tr._lattice_tail(n, 1.0, 2)


def _names(code):
    """Every global and attribute name a function's code, nested functions included, reads."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


def test_quadrature_oracles_stay_off_the_spectral_path():
    # the oracles check the spectral path, so they must not run through it: _correlate
    # keeps its own numpy FFTs and _image_sum makes none
    spectral = {"_centred_transform", "_in_parts", "_pool", "spectral_forward", "spectral_inverse",
                "apply_multiplier_array", "symbol_product"}
    for oracle in (tr._correlate, tr._image_sum):
        assert not _names(oracle.__code__) & spectral, oracle.__name__
    assert {"fftn", "ifftn"} <= _names(tr._correlate.__code__)
    assert not {"fftn", "ifftn", "fft", "ifft"} & _names(tr._image_sum.__code__)
