"""The two in-process workloads: spectral-ops and group-actions.

A workload is a fixed list of steps, one pass.  Each step is one library
call (the timed request) plus a check that runs after it, outside the timed
window.  Steps that check an identity such as H(H f) = f chain on earlier
steps of the same pass through a small state dict.  Every check uses a
tolerance the library's suites or tests already pin.

Run as a script, this module is one worker process of a run:
    python3 inproc.py OUT_JSON WORKLOAD SEED SECONDS TRACE MIN_PASSES
It builds the seeded inputs, warms up, makes timed passes and writes what it
measured to OUT_JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import dataclass
from math import pi
from typing import Callable

import numpy as np

import cliffharm as ch
from cliffharm import algebra as alg
from cliffharm import fields as fl
from cliffharm import representations as rep
from cliffharm import spin as sp

L = 10.0


class CheckFailed(Exception):
    pass


@dataclass
class Step:
    kind: str
    call: Callable
    check: Callable
    path: str | None = None


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    den = float(np.linalg.norm(want))
    if den == 0:
        raise CheckFailed("reference is all zero")
    return float(np.linalg.norm(got - want)) / den


def expect_close(got, want, tol, what):
    r = _rel(np.asarray(got), np.asarray(want))
    if not r <= tol:
        raise CheckFailed(f"{what}: residual {r:.3e} > {tol:g}")


def expect_small(value, tol, what):
    if not float(value) <= tol:
        raise CheckFailed(f"{what}: residual {float(value):.3e} > {tol:g}")


def expect_norm_kept(out, f, tol, what):
    nf = ch.norm(f)
    if not abs(ch.norm(out) - nf) / nf <= tol:
        raise CheckFailed(f"{what}: norm changed by {abs(ch.norm(out) - nf) / nf:.3e}")


def nonzero_input(f, what):
    """Refuse an all-zero seeded input, so that no check passes vacuously."""
    if not np.any(f.data != 0) or ch.norm(f) == 0:
        raise SystemExit(f"error: seeded input {what} is identically zero")
    return f


def field(n, N, algebra, band, seed):
    tag = f"{algebra} {N}^{n} band {band}"
    return tag, nonzero_input(ch.make_band_limited_random(ch.GridSpec(n, N, L), algebra, band, seed), tag)


def quarter_turn(n, axis=2):
    if n == 2:
        return sp.spin2_from_angle(pi / 4)
    return sp.spin3_from_axis_angle(np.eye(3)[axis], pi / 2)


# ---------------------------------------------------------------------------
# spectral-ops


def _hilbert_pair(tag, f, shared):
    st = {}

    def first_check(h):
        expect_norm_kept(h, f, 1e-12, "hilbert unitary")
        st["h"] = shared["H"] = h

    def second_check(hh):
        expect_norm_kept(hh, st["h"], 1e-12, "hilbert unitary")
        expect_close(hh.data, f.data, 1e-11, "H^2 = I")

    return [
        Step(f"hilbert {tag}", lambda: ch.hilbert(f), first_check),
        Step(f"hilbert {tag}", lambda: ch.hilbert(st["h"]), second_check),
    ]


def _hilbert_chain(tag, f):
    """One H per pass on the largest field; every second call is H(H f)."""
    st = {"x": f, "k": 0}

    def check(out):
        expect_norm_kept(out, st["x"], 1e-12, "hilbert unitary")
        st["k"] += 1
        if st["k"] % 2:
            st["x"] = out
        else:
            expect_close(out.data, f.data, 1e-11, "H^2 = I")
            st["x"] = f

    return [Step(f"hilbert {tag}", lambda: ch.hilbert(st["x"]), check)]


def _hardy_pair(tag, f, shared):
    st = {}

    def plus_check(p):
        st["p"] = p

    def minus_check(m):
        expect_close(st["p"].data + m.data, f.data, 1e-13, "P+ + P- = I")

    return [
        Step(f"hardy_project+ {tag}", lambda: ch.hardy_project("+", f), plus_check),
        Step(f"hardy_project- {tag}", lambda: ch.hardy_project("-", f), minus_check),
    ]


def _riesz_all(tag, f, shared):
    """R_j for every axis; sum_j e_j R_j f must equal H f from this pass."""
    n = f.spec.n
    st = {}

    def keep(j):
        def check(r):
            st[j] = r
            if j == n - 1:
                acc = np.zeros_like(f.data)
                for k in range(n):
                    ek = alg.vector_embed(np.eye(n)[k], f.value_algebra, n)
                    acc += np.einsum("ijk,i,...j->...k", f.algebra.tensor, ek, st[k].data)
                expect_close(acc, shared["H"].data, 1e-13, "sum e_j R_j = H")
        return check

    return [Step(f"riesz {tag}", (lambda j=j: ch.riesz(j, f)), keep(j)) for j in range(n)]


def _poisson_semigroup(tag, f, shared, x0=0.1):
    st = {}

    def first(u):
        if not ch.norm(u) < ch.norm(f):
            raise CheckFailed("poisson extension did not damp")
        st["u"] = u

    def second(v):
        st["v"] = v

    def direct(w):
        expect_close(st["v"].data, w.data, 1e-12, "P_a P_a = P_2a")

    return [
        Step(f"poisson {tag}", lambda: ch.poisson_extend(f, x0), first),
        Step(f"poisson {tag}", lambda: ch.poisson_extend(st["u"], x0), second),
        Step(f"poisson {tag}", lambda: ch.poisson_extend(f, 2 * x0), direct),
    ]


def _eigen(tag, f, shared):
    return [Step(f"hilbert_eigen_check {tag}", lambda: rep.hilbert_eigen_check(1, f),
                 lambda r: expect_small(r, 1e-10, "H P+ f = P+ f"))]


def _qhardy_pair(tag, f, shared):
    st = {}
    pair = np.einsum("ab,...b->...a", alg.pair_projector("H", 1), f.data)

    def plus_check(p):
        st["p"] = p

    def minus_check(m):
        expect_close(st["p"].data + m.data, pair, 1e-12, "QHardy(1,+) + QHardy(1,-) = pair projection")

    return [
        Step(f"subspace_project QHardy(1,+) {tag}",
             lambda: rep.subspace_project(rep.SubspaceId.QHardy1Plus, f), plus_check),
        Step(f"subspace_project QHardy(1,-) {tag}",
             lambda: rep.subspace_project(rep.SubspaceId.QHardy1Minus, f), minus_check),
    ]


def spectral_inputs(seed):
    return {
        "c32": field(3, 32, "Cl3", 0.4, seed),
        "c32b": field(3, 32, "Cl3", 0.4, seed + 4),
        "c32c": field(3, 32, "Cl3", 0.4, seed + 6),
        "p256": field(2, 256, "Cl2", 0.4, seed + 5),
        "p256b": field(2, 256, "Cl2", 0.4, seed + 7),
        "p512": field(2, 512, "Cl2", 0.4, seed + 1),
        "h64": field(3, 64, "H", 0.4, seed + 2),
        "c64": field(3, 64, "Cl3", 0.4, seed + 3),
    }


# The mix keeps request costs in separated groups: FFT-only calls on 32^3
# (6 of the 25 requests), value-product calls on 32^3 and 256^2 (14, the
# middle, where p50 falls) and calls on the 16-32 MiB fields (5, the top; p90
# falls among the QHardy calls).  A percentile taken where two groups meet
# would jump whenever the groups' costs move by different amounts, as they
# do when the machine's memory traffic changes.
def spectral_steps(inputs, seed):
    steps = []
    for key, groups in (
        ("c32", (_hilbert_pair, _hardy_pair, _riesz_all, _poisson_semigroup)),
        ("c32b", (_hilbert_pair, _hardy_pair)),
        ("c32c", (_hilbert_pair, _hardy_pair)),
        ("p256", (_eigen,)),
        ("p256b", (_eigen,)),
        ("p512", (_hilbert_pair,)),
        ("h64", (_qhardy_pair,)),
    ):
        tag, f = inputs[key]
        shared = {}  # hilbert leaves H f here for the riesz check
        for group in groups:
            steps += group(tag, f, shared)
    steps += _hilbert_chain(*inputs["c64"])
    return steps


# ---------------------------------------------------------------------------
# group-actions


def _on_grid_spectral(g, F):
    """The rule natural_rep_spectral uses to pick direct assembly."""
    spec = F.spec
    mags = np.max(np.abs(F.data), axis=-1)
    occ = np.argwhere(mags > 1e-13 * mags.max())
    xi_out = (((occ - spec.N / 2) / spec.L) @ sp.rotation_matrix(g.s).T) / g.r
    pos = xi_out * spec.L + spec.N / 2
    idx = np.round(pos)
    return bool(np.max(np.abs(pos - idx)) <= 1e-9 and idx.min() >= 0 and idx.max() < spec.N)


def _natrep_roundtrip(tag, f, g, tol):
    ginv = sp.inverse(g)
    path = "exact" if fl.is_grid_preserving(g, f.spec) else "trig"
    st = {}

    def forward(u):
        st["u"] = u

    def back(v):
        expect_close(v.data, f.data, tol, f"natural_rep g^-1 g ({path})")

    return [
        Step(f"natural_rep {path} {tag}", lambda: rep.natural_rep(g, f), forward, path),
        Step(f"natural_rep {path} {tag}", lambda: rep.natural_rep(ginv, st["u"]), back, path),
    ]


def _spectral_roundtrip(tag, f, g):
    F = fl.spectral_forward(f)
    ginv = sp.inverse(g)
    if not _on_grid_spectral(g, F):
        raise SystemExit(f"error: {tag}: element does not keep the modes on the grid")
    st = {}

    def forward(U):
        st["U"] = U

    def back(V):
        expect_close(V.data, F.data, 1e-10, "natural_rep_spectral g^-1 g (on grid)")

    return [
        Step(f"natural_rep_spectral on-grid {tag}", lambda: rep.natural_rep_spectral(g, F), forward, "on_grid"),
        Step(f"natural_rep_spectral on-grid {tag}", lambda: rep.natural_rep_spectral(ginv, st["U"]), back, "on_grid"),
    ]


def _direct_samples(g, f, points):
    """Independent oracle: r^(-n/2) s f(g^-1 x) at the given grid points by a
    direct sum over f's occupied modes."""
    spec = f.spec
    F = fl.spectral_forward(f)
    mags = np.max(np.abs(F.data), axis=-1)
    occ = np.argwhere(mags > 1e-13 * mags.max())
    xi = (occ - spec.N / 2) / spec.L
    coeffs = F.data[tuple(occ.T)]
    x = -spec.L / 2 + spec.h * points
    A = sp.rotation_matrix(g.s)
    y = ((x - g.b) @ A) / g.r  # rows are A^-1 (x - b) / r
    vals = np.exp(2j * pi * (y @ xi.T)) @ coeffs / spec.L ** spec.n
    sval = rep.spin_value_coefficients(g.s, f.value_algebra)
    return g.r ** (-spec.n / 2) * np.einsum("ijk,i,...j->...k", f.algebra.tensor, sval, vals)


def _spectral_fallback(tag, f, g, rng):
    F = fl.spectral_forward(f)
    if _on_grid_spectral(g, F):
        raise SystemExit(f"error: {tag}: element keeps the modes on the grid, so no fallback")
    points = rng.integers(0, f.spec.N, size=(32, f.spec.n))
    want = _direct_samples(g, f, points)

    def check(G):
        got = fl.spectral_inverse(G).data[tuple(points.T)]
        expect_close(got, want, 1e-10, "natural_rep_spectral fallback vs direct mode sum")

    return [Step(f"natural_rep_spectral fallback {tag}", lambda: rep.natural_rep_spectral(g, F), check, "fallback")]


def _commutation(tag, f, g, mode, tol):
    return [Step(f"commutation_residual {mode} {tag}", lambda: rep.commutation_residual(g, f, mode=mode),
                 lambda r: expect_small(r, tol, f"H commutes with the action ({mode})"))]


def _induced(tag, member, g):
    sid = rep.SubspaceId.TildeH1Minus

    def check(img):
        expect_small(rep.subspace_membership_residual(sid, img), 1e-10, "induced_rep keeps TildeH(1,-)")

    return [Step(f"induced_rep {tag}", lambda: rep.induced_rep(-1, g, member, subspace=sid), check)]


def _intertwiners(member, c16, p64, s):
    """One request per intertwiner, each checked against the identity the
    intertwiners suite pins."""
    sid_to = rep.SubspaceId.TildeH2Plus

    def right_e1(out):
        expect_norm_kept(out, member, 1e-12, "right e1 isometry")
        expect_small(rep.subspace_membership_residual(sid_to, out), 1e-10, "right e1 carries pair 1 to pair 2")

    def left_w(out):
        lhs = rep.intertwiner_left_w(fl.left_multiply_constant(s.coeffs, c16))
        expect_close(lhs.data, fl.left_multiply_constant(s.coeffs, out).data, 1e-13, "left w commutes with spins")

    def rho(out):
        expect_norm_kept(out, p64, 1e-12, "rho isometry")
        expect_close(rep.rho_conjugation_n2(out).data, -p64.data, 1e-14, "rho twice negates")

    return [
        Step("intertwiner_right_e1 H 16^3", lambda: rep.intertwiner_right_e1(member), right_e1),
        Step("intertwiner_left_w Cl3 16^3", lambda: rep.intertwiner_left_w(c16), left_w),
        Step("rho_conjugation_n2 Cl2 64^2", lambda: rep.rho_conjugation_n2(p64), rho),
    ]


def _member(sid, seed):
    tag = f"H 16^3 band 0.2 {sid.value} member"
    spec = ch.GridSpec(3, 16, L)
    return tag, nonzero_input(rep.random_subspace_member(sid, spec, seed, bandfraction=0.2), tag)


def group_inputs(seed):
    return {
        "c16": field(3, 16, "Cl3", 0.4, seed),
        "c16b": field(3, 16, "Cl3", 0.2, seed + 1),
        "h32": field(3, 32, "H", 0.2, seed + 2),
        "p64": field(2, 64, "Cl2", 0.4, seed + 3),
        "p128": field(2, 128, "Cl2", 0.2, seed + 4),
        "tildeh_minus": _member(rep.SubspaceId.TildeH1Minus, seed + 5),
        "tildeh_plus": _member(rep.SubspaceId.TildeH1Plus, seed + 6),
    }


# As in spectral_steps, the costs fall into separated groups: calls under
# about 12 ms (13 of the 33 requests; p50 stays above them), exact
# permutations and other calls of 19-23 ms (6; p50 falls here) and, at the
# top, trigonometric resampling on H 32^3 (6 calls of about 300 ms; p90 falls
# among them).
def group_steps(fs, seed):
    rng = np.random.default_rng(seed + 100)

    def grid_shift(f):
        return f.spec.h * rng.integers(-f.spec.N // 4, f.spec.N // 4, size=f.spec.n).astype(float)

    steps = []
    for key in ("h32", "c16", "p128"):
        tag, f = fs[key]
        g = sp.GroupElement(1.0, quarter_turn(f.spec.n), grid_shift(f))
        steps += _natrep_roundtrip(tag, f, g, 1e-12)
    for key in ("c16", "p64", "h32", "h32", "h32"):
        tag, f = fs[key]
        g = sp.GroupElement(1.0, quarter_turn(f.spec.n, axis=0), rng.standard_normal(f.spec.n))
        steps += _natrep_roundtrip(tag, f, g, 1e-10)
    for key in ("c16", "p128", "h32", "p64"):
        tag, f = fs[key]
        steps += _spectral_roundtrip(tag, f, sp.GroupElement(1.0, quarter_turn(f.spec.n, axis=1),
                                                            rng.standard_normal(f.spec.n)))
    for key in ("p64", "c16b"):
        tag, f = fs[key]
        steps += _spectral_fallback(tag, f, sp.GroupElement(2.0, quarter_turn(f.spec.n),
                                                           rng.standard_normal(f.spec.n)), rng)
    tag, f = fs["p64"]
    steps += _commutation(tag, f, sp.GroupElement(1.0, quarter_turn(2), grid_shift(f)), "grid", 1e-12)
    for key in ("h32", "p128"):
        tag, f = fs[key]
        n = f.spec.n
        g = sp.GroupElement(float(rng.uniform(0.5, 2.0)), sp.random_spin(n, rng), rng.standard_normal(n))
        steps += _commutation(tag, f, g, "modes", 1e-8)
    steps += _induced(*fs["tildeh_minus"], sp.GroupElement(1.0, quarter_turn(3, axis=0), rng.standard_normal(3)))
    steps += _intertwiners(fs["tildeh_plus"][1], fs["c16"][1], fs["p64"][1], sp.random_spin(3, rng))
    return steps


WORKLOADS = {
    "spectral-ops": (spectral_inputs, spectral_steps),
    "group-actions": (group_inputs, group_steps),
}



# ---------------------------------------------------------------------------
# one worker process


def _fail(result, kind, err):
    result["failed"] += 1
    if len(result["errors"]) < 10:
        result["errors"].append(f"{kind}: {type(err).__name__}: {err}")


def run_step(step, result, tracer=None):
    """One request and its check; returns the timed seconds, or None."""
    result["attempted"] += 1
    rid = result["attempted"]
    try:
        if tracer is None:
            t0 = time.perf_counter()
            out = step.call()
            dt = time.perf_counter() - t0
        else:
            result["request_kind"][rid] = step.kind
            with tracer.request_span(rid):
                t0 = time.perf_counter()
                out = step.call()
                dt = time.perf_counter() - t0
    except Exception as err:  # a failed request is counted, the run goes on
        _fail(result, step.kind, err)
        return None
    try:
        if tracer is None:
            step.check(out)
        else:
            with tracer.pause():
                step.check(out)
    except Exception as err:  # includes CheckFailed
        _fail(result, step.kind, err)
    return dt


def worker(workload, seed, seconds, trace, min_passes):
    make_inputs, make_steps = WORKLOADS[workload]
    inputs = make_inputs(seed)
    steps = make_steps(inputs, seed)
    result = {"attempted": 0, "failed": 0, "errors": [], "latencies": [], "by_kind": {}, "request_kind": {},
              "passes": {"untraced": [], "traced": []}}
    seen = set()
    for step in steps:  # warm-up: the first request of each kind, checked, not timed
        if step.kind not in seen:
            seen.add(step.kind)
            run_step(step, result)
    result["first_request_at"] = time.perf_counter()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    passes = result["passes"]
    t_start = time.perf_counter()
    while True:
        traced = trace and len(passes["untraced"]) > len(passes["traced"])
        if traced:
            tracer.install()
        try:
            timed = 0.0
            for step in steps:
                dt = run_step(step, result, tracer if traced else None)
                if dt is not None:
                    timed += dt
                    result["latencies"].append(dt)
                    result["by_kind"].setdefault(step.kind, []).append(dt)
        finally:
            if traced:
                tracer.uninstall()
        passes["traced" if traced else "untraced"].append(timed)
        n_passes = len(passes["untraced"]) + len(passes["traced"])
        if time.perf_counter() - t_start >= seconds and n_passes >= min_passes:
            break
    result["requests_per_pass"] = len(steps)
    result["path_of"] = {st.kind: st.path for st in steps if st.path is not None}
    result["path_counts"] = {}
    for st in steps:
        if st.path is not None:
            result["path_counts"][st.path] = result["path_counts"].get(st.path, 0) + 1
    result["input_bytes"] = {tag: f.data.nbytes for tag, f in inputs.values()}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["spans"] = tracer.dump()
    return result


if __name__ == "__main__":
    out_path, workload, seed, seconds, trace, min_passes = sys.argv[1:]
    res = worker(workload, int(seed), float(seconds), bool(int(trace)), int(min_passes))
    with open(out_path, "w") as fh:
        json.dump(res, fh)
