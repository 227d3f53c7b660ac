import functools
import json
import os
import struct
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from cliffharm import algebra as alg
from cliffharm import fields as fl
from cliffharm import spin as sp
from cliffharm import transforms as tr
from cliffharm.representations import spin_value_coefficients


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        fl.GridSpec(4, 16, 10.0)
    with pytest.raises(ValueError):
        fl.GridSpec(2, 12, 10.0)  # not a power of two
    with pytest.raises(ValueError):
        fl.GridSpec(2, 4, 10.0)  # too small
    for L in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            fl.GridSpec(2, 16, L)
    spec = fl.GridSpec(2, 16, 8.0)
    assert spec.h == 0.5
    assert spec.axis()[0] == -4.0
    assert spec.axis()[-1] == 4.0 - 0.5
    assert spec.freq_axis()[spec.N // 2] == 0.0


def test_grid_spec_takes_box_lengths_in_its_documented_range():
    assert (fl.L_MIN, fl.L_MAX) == (1e-30, 1e30)
    for L in (fl.L_MIN, fl.L_MAX):
        assert fl.GridSpec(3, 16, L).L == L
    for L in (fl.L_MIN / 2, 2 * fl.L_MAX, 1e100, 1e-160, 1e160):
        with pytest.raises(ValueError, match="box length must lie in"):
            fl.GridSpec(2, 16, L)


def test_grid_spec_caps_the_point_count():
    for n, N in ((2, 4096), (3, 256)):
        with pytest.raises(ValueError, match="cap of 2\\^22"):
            fl.GridSpec(n, N, 1.0)
    # the largest grids allowed; constructing a spec allocates nothing
    assert fl.GridSpec(2, 2048, 1.0).N ** 2 == fl.MAX_POINTS
    assert fl.GridSpec(3, 128, 1.0).N ** 3 == fl.MAX_POINTS // 2


def test_spectral_upsample_names_the_input_grid_above_the_cap():
    # the refusal comes before the fine grid is allocated
    f = fl.zero_field(fl.GridSpec(2, 8, 4.0), "Cl2")
    with pytest.raises(ValueError, match="refining a 8\\^2 grid 512x gives a 4096\\^2 grid, above the cap"):
        fl.spectral_upsample(f, 512)
    assert fl.spectral_upsample(f, 8).spec.N == 64


@pytest.mark.parametrize("n,N,L,algebra", [(2, 32, 12.0, "Cl2"), (3, 16, 10.0, "H"), (3, 16, 10.0, "Cl3")])
def test_forward_inverse_roundtrip(n, N, L, algebra):
    spec = fl.GridSpec(n, N, L)
    f = fl.make_band_limited_random(spec, algebra, 0.4, 1)
    back = fl.spectral_inverse(fl.spectral_forward(f))
    assert fl.rel_error(back, f) < 1e-13


@pytest.mark.parametrize("n,N,algebra", [(2, 32, "Cl2"), (3, 16, "Cl3")])
def test_band_limited_random_keeps_the_whole_field_draw(n, N, algebra):
    # the slab-by-slab draw gives the field that one whole-field draw gave
    spec = fl.GridSpec(n, N, 8.0)
    shape = spec.shape + (alg.get_algebra(algebra).dim,)
    rng = np.random.default_rng(7)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mag = spec.freq_magnitude()
    mask = (mag > 0) & (mag <= 0.4 * spec.N / (2 * spec.L))
    for ax in range(n):
        mask[(slice(None),) * ax + (0,)] = False
    want = fl.spectral_inverse(fl.SpectralField(spec, algebra, data * mask[..., None]))
    assert np.array_equal(fl.make_band_limited_random(spec, algebra, 0.4, 7).data, want.data)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_mapped_result_is_a_private_writable_array():
    """The mapping behind pair_hardy_project's result behaves as heap memory:
    writable, and copied on write in a forked child, not shared with it."""
    a = fl._mapped_empty((8, 8, 4))
    assert a.shape == (8, 8, 4) and a.dtype == complex and a.flags.writeable
    a[...] = 1.0
    pid = os.fork()
    if pid == 0:
        a[...] = 7.0
        os._exit(0)
    os.waitpid(pid, 0)
    assert np.all(a == 1.0)


def test_spectral_transforms_hold_few_field_sized_arrays():
    f = fl.make_band_limited_random(fl.GridSpec(3, 32, 10.0), "Cl3", 0.4, 8)
    size = f.data.nbytes
    tracemalloc.start()
    try:
        fl.spectral_forward(f)
        forward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the shifted copy, transformed in place, and the re-centred output
    assert forward_peak < 2.1 * size


def test_multiplier_memory_stays_near_its_output():
    """The symbol path permutes the spectrum one block at a time: no dim^2
    gather (8x the output on Cl3), and no whole-field temporary."""
    spec = fl.GridSpec(3, 32, 10.0)
    F = fl.spectral_forward(fl.make_band_limited_random(spec, "Cl3", 0.4, 9))
    for M in (tr.hilbert_multiplier_array(spec, "Cl3"), tr.chi_multiplier_array(spec, "Cl3", 1)):
        tracemalloc.start()
        try:
            out = fl.apply_multiplier_array(M, F)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * out.data.nbytes, (peak, out.data.nbytes)


@functools.cache
def _pool(threads):
    # one pool per size for the whole module: its threads live as long as the process
    return alg._Pool(threads)


def _centred_reference(x, scale, inverse):
    axes = tuple(range(x.ndim - 1))
    fftn = np.fft.ifftn if inverse else np.fft.fftn
    out = np.fft.fftshift(fftn(np.fft.ifftshift(x, axes=axes), axes=axes), axes=axes)
    out *= scale
    return out


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n,N,algebra", [(2, 64, "Cl2"), (3, 16, "H"), (3, 32, "Cl3")])
def test_split_transforms_equal_the_whole_field_transform(monkeypatch, threads, n, N, algebra):
    # every pass split, whatever its size; 3 threads cut uneven slabs, one of them across N/2
    monkeypatch.setattr(alg, "_PART", 1)
    monkeypatch.setattr(alg, "_pool", _pool(threads))
    spec = fl.GridSpec(n, N, 10.0)
    rng = np.random.default_rng(N + threads)
    shape = spec.shape + (alg.get_algebra(algebra).dim,)
    f = fl.CliffordField(spec, algebra, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    F = fl.spectral_forward(f)
    assert np.array_equal(F.data, _centred_reference(f.data, (spec.L / N) ** n, False))
    assert np.array_equal(fl.spectral_inverse(F).data, _centred_reference(F.data, (N / spec.L) ** n, True))
    # one-component arrays, as pair_hardy_project's spinor coordinates, also through
    # a given scratch buffer and in place
    x = f.data[..., :1].copy()
    buf = np.empty_like(x)
    for scale, inverse in (((spec.L / N) ** n, False), ((N / spec.L) ** n, True)):
        want = _centred_reference(x, scale, inverse)
        assert np.array_equal(fl._centred_transform(x, scale, inverse), want)
        assert np.array_equal(fl._centred_transform(x, scale, inverse, buf, x), want)
        assert np.array_equal(x, want)


def test_only_fields_of_two_parts_make_the_pool(monkeypatch):
    monkeypatch.setattr(alg, "_pool", None)
    # H 32^3, the largest group-actions input, holds 2^17 complex values: one part
    tr.hilbert(fl.make_band_limited_random(fl.GridSpec(3, 32, 10.0), "H", 0.2, 2))
    assert alg._pool is None
    # Cl3 32^3 holds 2^18, the smallest field that splits
    tr.hilbert(fl.make_band_limited_random(fl.GridSpec(3, 32, 10.0), "Cl3", 0.4, 2))
    assert (alg._pool.pid, alg._pool.size) == (os.getpid(), len(os.sched_getaffinity(0)))


def test_callers_in_many_threads_share_the_pool(monkeypatch):
    # more callers than CPUs, switching often: each split pass must wait for its own parts only
    monkeypatch.setattr(alg, "_PART", 1)
    monkeypatch.setattr(alg, "_pool", _pool(3))
    spec = fl.GridSpec(2, 32, 10.0)
    rng = np.random.default_rng(11)
    fields = [fl.CliffordField(spec, "Cl2", rng.standard_normal(spec.shape + (4,)) + 1j) for _ in range(6)]
    want = [_centred_reference(f.data, (spec.L / spec.N) ** 2, False) for f in fields]
    wrong = []

    def call(k):
        for _ in range(20):
            if not np.array_equal(fl.spectral_forward(fields[k]).data, want[k]):
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(k,)) for k in range(len(fields))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_a_failing_part_raises_in_the_caller_after_every_part_ended(monkeypatch):
    monkeypatch.setattr(alg, "_PART", 1)
    monkeypatch.setattr(alg, "_pool", _pool(3))

    def part(lo, hi, seen):
        if lo == 1:
            time.sleep(0.05)
            raise ValueError("part 1")
        time.sleep(0.1)
        seen.append((lo, hi))

    seen = []
    with pytest.raises(ValueError, match="part 1"):
        alg._in_parts(part, 3, 3, seen)
    assert sorted(seen) == [(0, 1), (2, 3)]
    alg._in_parts(part, 6, 6, seen)  # the pool goes on
    assert sorted(seen) == [(0, 1), (0, 2), (2, 3), (2, 4), (4, 6)]


def test_a_finished_part_leaves_no_array_held_in_a_worker(monkeypatch):
    # a worker lets go of its part just after it signals the part done, so the
    # last reference may outlive the pass by a moment: poll rather than assert at once
    monkeypatch.setattr(alg, "_PART", 1)
    monkeypatch.setattr(alg, "_pool", _pool(3))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((16, 16, 4)) + 1j
    buf = np.empty_like(x)
    want = _centred_reference(x, 1.0, False)
    assert np.array_equal(fl._centred_transform(x, 1.0, False, buf), want)
    refs = [weakref.ref(x), weakref.ref(buf)]
    del x, buf
    deadline = time.monotonic() + 1.0
    while any(r() is not None for r in refs) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert all(r() is None for r in refs)


def test_plane_wave_lands_in_one_bin():
    spec = fl.GridSpec(2, 32, 8.0)
    X = spec.coords()
    k1, k2 = 3, -5
    wave = np.exp(2j * np.pi * ((k1 / spec.L) * X[0] + (k2 / spec.L) * X[1]))
    data = np.zeros(spec.shape + (4,), dtype=complex)
    data[..., 0] = wave
    F = fl.spectral_forward(fl.CliffordField(spec, "Cl2", data))
    hot = np.abs(F.data[..., 0])
    idx = np.unravel_index(np.argmax(hot), hot.shape)
    assert idx == (spec.N // 2 + k1, spec.N // 2 + k2)
    assert abs(F.data[idx + (0,)] - spec.L**2) < 1e-10
    rest = hot.copy()
    rest[idx] = 0.0
    assert rest.max() < 1e-10


def test_gaussian_is_self_dual():
    # exp(-pi |x|^2) keeps its shape under the forward transform
    spec = fl.GridSpec(2, 128, 16.0)
    X = spec.coords()
    data = np.zeros(spec.shape + (4,), dtype=complex)
    data[..., 0] = np.exp(-np.pi * (X[0] ** 2 + X[1] ** 2))
    F = fl.spectral_forward(fl.CliffordField(spec, "Cl2", data))
    XI = spec.freqs()
    want = np.exp(-np.pi * (XI[0] ** 2 + XI[1] ** 2))
    assert np.linalg.norm(F.data[..., 0] - want) / np.linalg.norm(want) < 1e-10


def test_parseval_and_norm_weights():
    spec = fl.GridSpec(2, 32, 12.0)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, 2)
    g = fl.make_band_limited_random(spec, "Cl2", 0.4, 3)
    lhs = fl.inner_product(f, g)
    rhs = fl.inner_product(fl.spectral_forward(f), fl.spectral_forward(g))
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)
    ones = fl.CliffordField(spec, "Cl2", np.zeros(spec.shape + (4,), dtype=complex))
    ones.data[..., 0] = 1.0
    assert abs(fl.norm(ones) - spec.L) < 1e-12  # L^(n/2) with n=2


def test_inner_product_is_conjugate_linear_in_first_slot():
    spec = fl.GridSpec(2, 16, 8.0)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, 4)
    g = fl.make_band_limited_random(spec, "Cl2", 0.4, 5)
    a = 0.3 + 0.7j
    scaled = fl.CliffordField(spec, "Cl2", a * f.data)
    assert abs(fl.inner_product(scaled, g) - np.conj(a) * fl.inner_product(f, g)) < 1e-12


def test_band_limited_random_is_zero_mean_and_banded():
    spec = fl.GridSpec(3, 16, 10.0)
    f = fl.make_band_limited_random(spec, "Cl3", 0.25, 6)
    F = fl.spectral_forward(f)
    center = tuple([spec.N // 2] * 3)
    assert np.max(np.abs(F.data[center])) < 1e-10
    ximax = spec.N / (2 * spec.L)
    outside = spec.freq_magnitude() > 0.25 * ximax + 1e-12
    assert np.max(np.abs(F.data[outside])) < 1e-10


@pytest.mark.parametrize("suffix", [".clf", ".json"])
def test_file_roundtrip(tmp_path, suffix):
    spec = fl.GridSpec(2, 16, 12.0)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, 7)
    path = tmp_path / f"field{suffix}"
    fl.write_field(f, path)
    back = fl.read_field(path)
    assert back.spec == f.spec
    assert back.value_algebra == f.value_algebra
    assert np.array_equal(back.data, f.data)


def _json_reference(f, path):
    """The whole-document writer: json.dump over Python lists of numpy scalars."""
    spec = f.spec
    flat = f.data.reshape(-1, f.algebra.dim)
    doc = {"format": "CLF1", "n": spec.n, "N": spec.N, "L": spec.L, "value_algebra": f.value_algebra,
           "values": [[[v.real, v.imag] for v in row] for row in flat]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("n,N,algebra,block", [(2, 8, "Cl2", None), (3, 16, "Cl3", None), (3, 16, "Cl3", 100),
                                               (3, 8, "H", 7)])
def test_json_write_matches_the_whole_document_writer(tmp_path, monkeypatch, n, N, algebra, block):
    # block: rows encoded at once, when the row count should not be a multiple of it
    if block:
        monkeypatch.setattr(fl, "_BLOCK", block)
    f = fl.make_band_limited_random(fl.GridSpec(n, N, 12.0), algebra, 0.4, 5)
    f.data.flat[:7] = [complex(-0.0, -0.0), 5e-324, 1e308, complex(-5e-324, -1e308), complex(0.0, -0.0),
                       complex(-0.0, 0.0), 0.1]
    fl.write_field_json(f, tmp_path / "a.json")
    _json_reference(f, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_binary_write_is_deterministic(tmp_path):
    spec = fl.GridSpec(2, 16, 12.0)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, 8)
    p1, p2 = tmp_path / "a.clf", tmp_path / "b.clf"
    fl.write_field(f, p1)
    fl.write_field(f, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_rejects_other_files(tmp_path):
    cases = {
        "junk.clf": b"not a field at all",
        "short_header.clf": fl.MAGIC + b"\x02\x00\x00\x00\x10\x00",
        "nan_length.clf": fl.MAGIC + struct.pack("<IId", 2, 8, float("nan")) + bytes(16 * 8 * 8 * 4),
        "inf_length.json": b'{"format": "CLF1", "n": 2, "N": 8, "L": Infinity, '
                           b'"value_algebra": "Cl2", "values": []}',
        "not_an_object.json": b"[1]",
        "bad_rows.json": b'{"format": "CLF1", "n": 2, "N": 8, "L": 1.0, '
                         b'"value_algebra": "Cl2", "values": [[1, 2]]}',
        "nan_value.clf": fl.MAGIC + struct.pack("<IId", 2, 8, 1.0) + np.full(8 * 8 * 4 * 2, np.nan).tobytes(),
        "inf_value.json": json.dumps({"format": "CLF1", "n": 2, "N": 8, "L": 1.0, "value_algebra": "Cl2",
                                      "values": [[[float("inf"), 0.0]] * 4] * 64}).encode(),
        "huge_grid.clf": fl.MAGIC + struct.pack("<IId", 2, 2**31, 1.0),
    }
    # each of these would read as a valid 8 x 8 field if the header were cast
    for name, header in (("fractional_n.json", {"n": 2.5, "N": 8, "L": 1.0}),
                         ("fractional_N.json", {"n": 2, "N": 8.9, "L": 1.0}),
                         ("string_L.json", {"n": 2, "N": 8, "L": "1.0"})):
        doc = dict(header, format="CLF1", value_algebra="Cl2", values=[[[1.0, 0.0]] * 4] * 64)
        cases[name] = json.dumps(doc).encode()
    messages = {"huge_grid.clf": "cap of 2\\^22"}
    for name, content in cases.items():
        p = tmp_path / name
        p.write_bytes(content)
        with pytest.raises(ValueError, match=messages.get(name)):
            fl.read_field(p)


def _json_field(**changes):
    doc = {"format": "CLF1", "n": 2, "N": 8, "L": 1.0, "value_algebra": "Cl2", "values": [[[1.0, 0.0]] * 4] * 64}
    return json.dumps(dict(doc, **changes)).encode()


def test_reader_refusals_are_field_format_errors(tmp_path):
    header = fl.MAGIC + struct.pack("<IId", 2, 8, 1.0)
    cases = {
        "junk.clf": b"not a field at all",
        "short_header.clf": fl.MAGIC + b"\x02\x00\x00\x00\x10\x00",
        "ragged_payload.clf": header + bytes(16 * 64 * 4 + 8),
        "five_blades.clf": header + bytes(16 * 64 * 5),
        "nan_value.clf": header + np.full(64 * 4 * 2, np.nan).tobytes(),
        "not_json.json": b"{",
        "not_utf8.json": b"\xff\xfe",
        "not_an_object.json": b"[1]",
        "no_values.json": b'{"format": "CLF1", "n": 2, "N": 8, "L": 1.0, "value_algebra": "Cl2"}',
        "bad_rows.json": _json_field(values=[[1, 2]]),
        "three_part_value.json": _json_field(values=[[[1.0, 0.0, 0.0]] * 4] * 64),
        "ragged_rows.json": _json_field(values=[[[1.0, 0.0]] * 4] * 63 + [[[1.0, 0.0]] * 3]),
        "too_few_rows.json": _json_field(values=[[[1.0, 0.0]] * 4] * 63),
        "string_value.json": _json_field(values=[[["1.0", 0.0]] * 4] * 64),
        "bool_values.json": _json_field(values=[[[True, False]] * 4] * 64),
        "one_bool_value.json": _json_field(values=[[[1.0, 0.0]] * 4] * 63 + [[[1.0, 0.0]] * 3 + [[0.5, True]]]),
        "huge_value.json": _json_field(values=[[[10**400, 0]] * 4] * 64),
        "inf_value.json": _json_field(values=[[[float("inf"), 0.0]] * 4] * 64),
        "bool_n.json": _json_field(n=True),
        "fractional_N.json": _json_field(N=8.5),
        "string_L.json": _json_field(L="1.0"),
        "huge_L.json": _json_field(L=10**400),
        "unknown_algebra.json": _json_field(value_algebra="Cl7"),
    }
    for name, content in cases.items():
        p = tmp_path / name
        p.write_bytes(content)
        with pytest.raises(fl.FieldFormatError):
            fl.read_field(p)


def test_rel_error_refuses_a_zero_reference():
    spec = fl.GridSpec(2, 8, 4.0)
    zero = fl.CliffordField(spec, "Cl2", np.zeros(spec.shape + (4,), dtype=complex))
    with pytest.raises(ValueError):
        fl.rel_error(zero, zero)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, 3)
    assert fl.rel_error(zero, f) == 1.0


def test_spectral_upsample_interpolates():
    spec = fl.GridSpec(2, 16, 8.0)
    f = fl.make_band_limited_random(spec, "Cl2", 0.3, 9)
    up = fl.spectral_upsample(f, 4)
    assert up.spec.N == 64
    sl = tuple(slice(None, None, 4) for _ in range(2))
    assert np.linalg.norm(up.data[sl] - f.data) < 1e-12 * np.linalg.norm(f.data)


def test_resample_quarter_turn_is_a_permutation():
    spec = fl.GridSpec(2, 16, 8.0)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, 10)
    g = sp.GroupElement(1.0, sp.spin2_from_angle(np.pi / 4), np.zeros(2))
    assert fl.is_grid_preserving(g, spec)
    moved = fl.resample_action(g, f)
    assert sorted(np.abs(moved.data[..., 0]).ravel()) == pytest.approx(
        sorted(np.abs(f.data[..., 0]).ravel())
    )
    back = fl.resample_action(sp.inverse(g), moved)
    assert np.array_equal(back.data, f.data)


def test_resample_on_grid_shift_matches_roll():
    spec = fl.GridSpec(2, 16, 8.0)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, 11)
    g = sp.GroupElement(1.0, sp.identity_spin(2), np.array([2 * spec.h, -3 * spec.h]))
    moved = fl.resample_action(g, f)
    assert np.array_equal(moved.data, np.roll(f.data, (2, -3), axis=(0, 1)))


def test_resample_off_grid_shift_matches_plane_wave():
    spec = fl.GridSpec(2, 16, 8.0)
    X = spec.coords()
    k = 2
    data = np.zeros(spec.shape + (4,), dtype=complex)
    data[..., 0] = np.exp(2j * np.pi * (k / spec.L) * X[0])
    f = fl.CliffordField(spec, "Cl2", data)
    b = np.array([0.3137, -0.77])
    g = sp.GroupElement(1.0, sp.identity_spin(2), b)
    moved = fl.resample_action(g, f)
    want = data[..., 0] * np.exp(-2j * np.pi * (k / spec.L) * b[0])
    assert np.max(np.abs(moved.data[..., 0] - want)) < 1e-12


@pytest.mark.parametrize("steps", [2.0**53, 1e31])
def test_a_shift_past_float_resolution_takes_the_trigonometric_path(steps):
    # from 2^53 up every float step count is an integer, so the 1e-9 on-grid
    # test cannot tell such a shift from an off-grid one
    spec = fl.GridSpec(2, 16, 8.0)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, 12)
    g = sp.GroupElement(1.0, sp.identity_spin(2), np.array([steps * spec.h, 0.0]))
    assert not fl.is_grid_preserving(g, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moved = fl.resample_action(g, f)
    assert abs(fl.norm(moved) - fl.norm(f)) <= 1e-10 * fl.norm(f)


@pytest.mark.parametrize("steps", [2.0**53, 1e31])
def test_a_shift_past_float_resolution_is_a_phase_per_mode_on_the_phase_sum(steps):
    # the same shifts under a rotor that does not permute the axes.  Such a
    # rotation is no isometry of the samples (the norm moves by about 1e-2
    # with no shift at all), so the check is the unshifted move of the field
    # whose occupied modes carry the shift's phases
    spec = fl.GridSpec(2, 16, 8.0)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, 12)
    g = sp.GroupElement(1.0, sp.spin2_from_angle(0.4), np.array([steps * spec.h, 0.0]))
    assert not fl.is_grid_preserving(g, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moved = fl.resample_action(g, f)
    F = fl.spectral_forward(f)
    idx, xi = fl.occupied_modes(F)
    F.data[tuple(idx.T)] *= np.exp(2j * np.pi * (xi @ sp.inverse(g).b))[:, None]
    want = fl.resample_action(sp.GroupElement(1.0, g.s, np.zeros(2)), fl.spectral_inverse(F))
    assert fl.rel_error(moved, want) <= 1e-12


def test_resample_composition_on_grid():
    spec = fl.GridSpec(2, 16, 8.0)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, 12)
    g1 = sp.GroupElement(1.0, sp.spin2_from_angle(np.pi / 4), np.array([spec.h, 0.0]))
    g2 = sp.GroupElement(1.0, sp.spin2_from_angle(np.pi / 2), np.array([0.0, 2 * spec.h]))
    once = fl.resample_action(sp.compose(g1, g2), f)
    twice = fl.resample_action(g1, fl.resample_action(g2, f))
    assert np.allclose(once.data, twice.data, atol=1e-13)


def _direct_mode_sum(g, f):
    """f(g^-1 x) at every grid point, one exponential per (point, mode)."""
    spec = f.spec
    F = fl.spectral_forward(f)
    idx, xi = fl.occupied_modes(F)
    x = np.stack([X.ravel() for X in spec.coords()], axis=-1)
    y = sp.act_vector(sp.inverse(g), x)
    vals = np.exp(2j * np.pi * (y @ xi.T)) @ F.data[tuple(idx.T)] / spec.L ** spec.n
    return vals.reshape(f.data.shape)


@pytest.mark.parametrize(
    "algebra, n, N, band",
    # H 32^3 has 1024 output rows, so the product runs in two blocks
    [("Cl2", 2, 32, 0.5), ("Cl3", 3, 16, 0.4), ("H", 3, 16, 0.4), ("H", 3, 32, 0.2)],
)
def test_resample_off_grid_matches_direct_mode_sum(algebra, n, N, band):
    spec = fl.GridSpec(n, N, 9.0)
    f = fl.make_band_limited_random(spec, algebra, band, 21)
    rng = np.random.default_rng(22)
    moves = [
        sp.GroupElement(float(rng.uniform(0.5, 2.0)), sp.random_spin(n, rng), rng.standard_normal(n))
        for _ in range(3)
    ]
    moves.append(sp.GroupElement(2.0, sp.identity_spin(n), np.zeros(n)))
    for g in moves:
        assert not fl.is_grid_preserving(g, spec)
        want = _direct_mode_sum(g, f)
        got = fl.resample_action(g, f).data
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    zero = fl.zero_field(spec, algebra)
    got = fl.resample_action(moves[0], zero).data
    assert not np.any(got) and np.array_equal(got, _direct_mode_sum(moves[0], zero))


def _fields_for_the_per_axis_path():
    out = []
    for algebra, n, N, band in (("Cl2", 2, 32, 0.5), ("H", 3, 16, 0.4), ("Cl3", 3, 16, 0.4)):
        f = fl.make_band_limited_random(fl.GridSpec(n, N, 9.0), algebra, band, 29)
        out.append(pytest.param(f, id=f"{algebra}-{N}-band-{band}"))
    # every bin occupied, the Nyquist planes included
    spec = fl.GridSpec(3, 8, 9.0)
    rng = np.random.default_rng(30)
    shape = spec.shape + (8,)
    out.append(pytest.param(fl.CliffordField(spec, "Cl3", rng.standard_normal(shape) + 1j * rng.standard_normal(shape)),
                            id="Cl3-8-full-band"))
    return out


@pytest.mark.parametrize("f", _fields_for_the_per_axis_path())
def test_resample_axis_permuting_moves_match_direct_mode_sum(f):
    spec = f.spec
    rng = np.random.default_rng(31)
    zero = fl.zero_field(spec, f.value_algebra)
    for s in _quarter_turn_rotors(spec.n):
        for r in (0.5, 1.0, 2.0):
            g = sp.GroupElement(r, s, rng.standard_normal(spec.n))
            assert not fl.is_grid_preserving(g, spec)
            want = _direct_mode_sum(g, f)
            got = fl.resample_action(g, f).data
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            left = r ** (-spec.n / 2) * spin_value_coefficients(s, f.value_algebra)
            want = fl.left_multiply_constant(left, f._like(want)).data
            got = fl.resample_action(g, f, left=left).data
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert not np.any(fl.resample_action(g, zero).data)


def _occupied_by_the_blade_axis_max(F):
    """The occupied-mode rule written as one max over the blade axis."""
    mags = np.max(np.abs(F.data), axis=-1)
    idx = np.argwhere(mags > 1e-13 * mags.max())
    return idx, (idx - F.spec.N / 2) / F.spec.L


def _spectra_for_the_mode_rule():
    rng = np.random.default_rng(27)
    out = []
    for algebra, n, N in (("Cl2", 2, 32), ("H", 3, 16), ("Cl3", 3, 16)):
        spec = fl.GridSpec(n, N, 9.0)
        out.append(pytest.param(fl.spectral_forward(fl.make_band_limited_random(spec, algebra, 0.4, 28)),
                                id=f"{algebra}-seeded"))
        # magnitudes over 20 decades, so that bins sit on both sides of the 1e-13 cut
        shape = spec.shape + (alg.get_algebra(algebra).dim,)
        data = 10.0 ** rng.uniform(-20, 0, shape) * np.exp(2j * np.pi * rng.uniform(size=shape))
        data[rng.uniform(size=shape) < 0.5] = 0.0
        last = data.copy()
        last[(1,) * n + (-1,)] = 10.0  # the peak sits in the last blade
        out.append(pytest.param(fl.SpectralField(spec, algebra, last), id=f"{algebra}-peak-in-last-blade"))
        single = np.zeros_like(data)
        single[..., 1] = data[..., 1]  # one live blade
        out.append(pytest.param(fl.SpectralField(spec, algebra, single), id=f"{algebra}-one-live-blade"))
    return out


@pytest.mark.parametrize("F", _spectra_for_the_mode_rule())
def test_occupied_modes_match_the_blade_axis_max_rule(F):
    idx, xi = fl.occupied_modes(F)
    want_idx, want_xi = _occupied_by_the_blade_axis_max(F)
    assert 0 < len(idx) < F.spec.N ** F.spec.n
    assert np.array_equal(idx, want_idx) and np.array_equal(xi, want_xi)


def test_resample_off_grid_memory_stays_below_one_phase_chunk():
    spec = fl.GridSpec(3, 32, 10.0)
    f = fl.make_band_limited_random(spec, "Cl3", 0.4, 23)
    M = len(fl.occupied_modes(fl.spectral_forward(f))[0])
    assert M == 1044
    rng = np.random.default_rng(24)
    g = sp.GroupElement(1.3, sp.random_spin(3, rng), rng.standard_normal(3))
    tracemalloc.start()
    try:
        fl.resample_action(g, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096 * M * 16


def test_resample_off_grid_memory_is_bounded_at_full_band():
    # 17070 modes: a 512-row block of the phase product alone would be 140 MB
    spec = fl.GridSpec(3, 32, 10.0)
    f = fl.make_band_limited_random(spec, "Cl3", 1.0, 25)
    assert len(fl.occupied_modes(fl.spectral_forward(f))[0]) == 17070
    rng = np.random.default_rng(26)
    g = sp.GroupElement(0.8, sp.random_spin(3, rng), rng.standard_normal(3))
    tracemalloc.start()
    try:
        fl.resample_action(g, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20


def test_value_algebra_must_match_spatial_dimension():
    with pytest.raises(ValueError):
        fl.zero_field(fl.GridSpec(2, 16, 8.0), "Cl3")
    with pytest.raises(ValueError):
        fl.zero_field(fl.GridSpec(3, 16, 8.0), "Cl2")


def _quarter_turn_rotors(n):
    """Both rotors of every rotation that permutes the coordinate axes with
    signs (orientation kept): 4 rotations for n = 2, the cube's 24 for n = 3."""
    if n == 2:
        turns = [sp.spin2_from_angle(k * np.pi / 4) for k in range(4)]
    else:
        gens = [sp.spin3_from_axis_angle(e, np.pi / 2) for e in np.eye(3)]
        turns, seen = [sp.identity_spin(3)], set()
        for s in turns:  # grows while it is walked: closes the set under the generators
            for t in (s * q for q in gens):
                key = tuple(np.rint(sp.rotation_matrix(t)).astype(int).ravel())
                if key not in seen:
                    seen.add(key)
                    turns.append(t)
        turns = turns[1:]
    return turns + [-s for s in turns]


def _permuted_by_integer_oracle(s, steps, f):
    """f(g^-1 x) for g = (1, s, h steps), point by point in integers: grid
    offset k - N/2 maps to R^-1 (k - N/2 - steps), R the rounded rotation."""
    N = f.spec.N
    R = np.rint(sp.rotation_matrix(s)).astype(int)
    k = np.indices(f.spec.shape).reshape(f.spec.n, -1).T
    src = ((k - N // 2 - steps) @ R + N // 2) % N  # row form of R^T (k - N/2 - steps)
    return f.data[tuple(src.T)].reshape(f.data.shape)


@pytest.mark.parametrize("n, N, L", [(2, 16, 7.3), (3, 8, 10.0)])
def test_exact_permutation_matches_a_per_point_integer_oracle(n, N, L):
    spec = fl.GridSpec(n, N, L)
    rng = np.random.default_rng(31)
    value_algebra = "Cl2" if n == 2 else "Cl3"
    shape = spec.shape + (alg.get_algebra(value_algebra).dim,)
    f = fl.CliffordField(spec, value_algebra, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    rotors = _quarter_turn_rotors(n)
    assert len(rotors) == (8 if n == 2 else 48)
    edge = np.where(np.arange(n) % 2, -2 * N, 2 * N)
    shifts = [np.zeros(n, int), edge, -edge] + [rng.integers(-2 * N, 2 * N + 1, size=n) for _ in range(3)]
    for s in rotors:
        for steps in shifts:
            g = sp.GroupElement(1.0, s, spec.h * steps)
            assert fl.is_grid_preserving(g, spec)
            assert np.array_equal(fl.resample_action(g, f).data, _permuted_by_integer_oracle(s, steps, f))
