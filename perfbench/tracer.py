"""Span tracer that wraps cliffharm's public functions from the outside.

Every function listed in LAYERS is replaced, in every module that binds it,
by a wrapper that records a span (layer, function, start, end, parent,
request id).  Spans stay in memory until the run ends.  A layer's self time
is its spans' duration minus the time their child spans cover.  Quantities
that need extra work (bytes moved, grid points x occupied modes, the
resampling path) are computed by hooks that run outside the span with
recording paused, so they cost wall time but no layer time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

import cliffharm
from cliffharm import algebra, cli, fields, representations, spin, suites, transforms

MODULES = (cliffharm, algebra, spin, fields, transforms, representations, suites, cli)

SUITE_NAMES = tuple(suites.SUITE_NAMES)


def _nbytes(*values) -> int:
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif hasattr(v, "data") and isinstance(v.data, np.ndarray):
            total += v.data.nbytes
    return total


def _product_bytes(args, kwargs, result):
    return {"bytes": _nbytes(*args, result)}


def _fft_bytes(args, kwargs, result):
    return {"bytes": _nbytes(args[0], result)}


def _file_bytes(path_arg):
    def hook(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_arg])}
    return hook


def occupied_modes(data: np.ndarray, n: int) -> int:
    """Modes above 1e-13 of the peak, the rule fields.resample_action uses."""
    mags = np.max(np.abs(np.fft.fftn(data, axes=tuple(range(n)))), axis=-1)
    peak = float(mags.max())
    return int(np.count_nonzero(mags > 1e-13 * peak)) if peak > 0 else 0


def _resample_layer(args, kwargs):
    g, f = args[0], args[1]
    if fields.is_grid_preserving(g, f.spec):
        return "fields.resample.exact", {}
    points = f.spec.N ** f.spec.n
    return "fields.resample.trig", {"point_modes": points * occupied_modes(f.data, f.spec.n)}


def _suite_counts(args, kwargs, result):
    cases = result[0]
    return {"cases": len(cases), "failed": sum(1 for c in cases if not c.passed)}


# (module, function name) -> (layer, pre-hook, post-hook).  A pre-hook may
# rename the layer; both hooks return counters added to the span's layer.
LAYERS = {
    (fields, "apply_multiplier_array"): ("algebra.product", None, _product_bytes),
    (fields, "left_multiply_constant"): ("algebra.product", None, _product_bytes),
    (fields, "right_multiply_constant"): ("algebra.product", None, _product_bytes),
    (algebra, "geometric_product"): ("algebra.product", None, _product_bytes),
    (fields, "spectral_forward"): ("fields.fft", None, _fft_bytes),
    (fields, "spectral_inverse"): ("fields.fft", None, _fft_bytes),
    (fields, "resample_action"): ("fields.resample", _resample_layer, None),
    (fields, "read_field_binary"): ("fields.io.read.binary", None, _file_bytes(0)),
    (fields, "read_field_json"): ("fields.io.read.json", None, _file_bytes(0)),
    (fields, "write_field_binary"): ("fields.io.write.binary", None, _file_bytes(1)),
    (fields, "write_field_json"): ("fields.io.write.json", None, _file_bytes(1)),
    (fields, "make_band_limited_random"): ("fields.random", None, None),
    (fields, "spectral_upsample"): ("fields.upsample", None, None),
    (spin, "compose"): ("spin", None, None),
    (spin, "inverse"): ("spin", None, None),
    (spin, "rotation_matrix"): ("spin", None, None),
    (spin, "act_vector"): ("spin", None, None),
    (spin, "random_spin"): ("spin", None, None),
    (spin, "section_s_omega"): ("spin", None, None),
    (spin, "parse_group_element"): ("spin", None, None),
    (transforms, "hilbert_multiplier_array"): ("transforms.multiplier", None, None),
    (transforms, "chi_multiplier_array"): ("transforms.multiplier", None, None),
    (transforms, "riesz_symbol_array"): ("transforms.multiplier", None, None),
    (transforms, "hilbert"): ("transforms.operator", None, None),
    (transforms, "hardy_project"): ("transforms.operator", None, None),
    (transforms, "riesz"): ("transforms.operator", None, None),
    (transforms, "poisson_extend"): ("transforms.operator", None, None),
    (transforms, "pv_quadrature_riesz"): ("transforms.quadrature", None, None),
    (transforms, "cauchy_extend"): ("transforms.quadrature", None, None),
    (transforms, "_lattice_tail"): ("transforms.lattice_tail", None, None),
    (representations, "natural_rep"): ("representations.natural_rep", None, None),
    (representations, "natural_rep_spectral"): ("representations.natural_rep_spectral", None, None),
    (representations, "commutation_residual"): ("representations.residuals", None, None),
    (representations, "hilbert_eigen_check"): ("representations.residuals", None, None),
    (representations, "subspace_membership_residual"): ("representations.residuals", None, None),
    (representations, "multiplier_equivariance_residual"): ("representations.residuals", None, None),
    (representations, "riesz_covariance_residual"): ("representations.residuals", None, None),
    (representations, "subspace_project"): ("representations.subspace_project", None, None),
    (representations, "commutant_dimension_experiment"): ("representations.commutant", None, None),
    (np.linalg, "svd"): ("representations.commutant.svd", None, None),
    (suites, "run_suite"): ("suites.run", None, _suite_counts),
    **{(suites, f"run_{name}"): (f"suites.{name}", None, None) for name in SUITE_NAMES},
}


class Tracer:
    """In-memory spans plus per-layer counters.  install() wraps every
    binding of every LAYERS function; uninstall() puts the originals back."""

    def __init__(self):
        self.layer = []
        self.func = []
        self.start = []
        self.end = []
        self.parent = []
        self.request = []
        self.counters = defaultdict(float)
        self._stack = []
        self._request_id = None
        self._paused = False
        self._patched = []

    # -- recording -------------------------------------------------------

    def _open(self, layer, func):
        i = len(self.layer)
        self.layer.append(layer)
        self.func.append(func)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request_id)
        self.end.append(None)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _count(self, layer, values):
        for key, v in values.items():
            self.counters[f"{layer}.{key}"] += v

    def _call_hook(self, hook, *args):
        with self.pause():
            return hook(*args)

    def wrap(self, fn, layer, pre=None, post=None):
        label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            name, extra = layer, {}
            if pre is not None:
                name, extra = self._call_hook(pre, args, kwargs)
            i = self._open(name, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if post is not None:
                extra = {**extra, **self._call_hook(post, args, kwargs, result)}
            self._count(name, extra)
            return result

        return traced

    @contextlib.contextmanager
    def pause(self):
        """Wrapped calls made inside record nothing."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextlib.contextmanager
    def request_span(self, request_id, name="request"):
        """The root span of one timed request."""
        self._request_id = request_id
        i = self._open(name, name)
        try:
            yield
        finally:
            self._close(i)
            self._request_id = None

    # -- patching --------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for (module, name), (layer, pre, post) in LAYERS.items():
            original = getattr(module, name)
            wrappers[id(original)] = (original, self.wrap(original, layer, pre, post))
        for module in MODULES + (np.linalg,):
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and value is wrappers[id(value)][0]:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrappers[id(value)][1])
        for key, value in list(suites.SUITES.items()):
            if id(value) in wrappers:
                self._patched.append((suites.SUITES, key, value))
                suites.SUITES[key] = wrappers[id(value)][1]
        return self

    def uninstall(self):
        for target, name, original in reversed(self._patched):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self):
        ends = [e if e is not None else s for s, e in zip(self.start, self.end)]
        dur = [e - s for s, e in zip(self.start, ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def dump(self):
        dur, own = self.self_times()
        return {
            "spans": [
                {"layer": l, "func": f, "start": s, "dur": d, "self": o, "parent": p, "request": r}
                for l, f, s, d, o, p, r in zip(self.layer, self.func, self.start, dur, own, self.parent, self.request)
            ],
            "counters": dict(self.counters),
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


def layer_metrics(dumps):
    """Fold span dumps (one per process) into the per-layer metric values."""
    calls = defaultdict(int)
    own = defaultdict(float)
    total = defaultdict(float)
    counters = defaultdict(float)
    fallback = 0
    for dump in dumps:
        spans = dump["spans"]
        for k, v in dump["counters"].items():
            counters[k] += v
        for s in spans:
            calls[s["layer"]] += 1
            own[s["layer"]] += s["self"]
            total[s["layer"]] += s["dur"]
            p = s["parent"]
            if (s["layer"] == "representations.natural_rep" and p >= 0
                    and spans[p]["layer"] == "representations.natural_rep_spectral"):
                fallback += 1

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {}
    for layer in ("algebra.product", "fields.fft"):
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_s"] = (own[layer], "s")
        m[f"{layer}.bytes"] = (counters[f"{layer}.bytes"], "B")
        m[f"{layer}.bytes_per_s"] = (rate(counters[f"{layer}.bytes"], own[layer]), "B/s")
    m["fields.resample.exact.calls"] = (calls["fields.resample.exact"], "count")
    m["fields.resample.exact.self_s"] = (own["fields.resample.exact"], "s")
    trig = "fields.resample.trig"
    m[f"{trig}.calls"] = (calls[trig], "count")
    m[f"{trig}.self_s"] = (own[trig], "s")
    m[f"{trig}.point_modes"] = (counters[f"{trig}.point_modes"], "count")
    m[f"{trig}.point_modes_per_s"] = (rate(counters[f"{trig}.point_modes"], own[trig]), "1/s")
    for way in ("read", "write"):
        for fmt in ("binary", "json"):
            layer = f"fields.io.{way}.{fmt}"
            m[f"{layer}.self_s"] = (own[layer], "s")
            m[f"{layer}.bytes"] = (counters[f"{layer}.bytes"], "B")
    m["fields.random.self_s"] = (own["fields.random"], "s")
    m["fields.upsample.self_s"] = (own["fields.upsample"], "s")
    m["spin.calls"] = (calls["spin"], "count")
    m["spin.self_s"] = (own["spin"], "s")
    m["transforms.multiplier.self_s"] = (own["transforms.multiplier"], "s")
    m["transforms.operator.self_s"] = (own["transforms.operator"], "s")
    m["transforms.quadrature.self_s"] = (own["transforms.quadrature"], "s")
    m["transforms.lattice_tail.calls"] = (calls["transforms.lattice_tail"], "count")
    m["transforms.lattice_tail.self_s"] = (own["transforms.lattice_tail"], "s")
    m["representations.natural_rep.self_s"] = (own["representations.natural_rep"], "s")
    m["representations.natural_rep_spectral.calls"] = (calls["representations.natural_rep_spectral"], "count")
    m["representations.natural_rep_spectral.fallback_calls"] = (fallback, "count")
    m["representations.residuals.self_s"] = (own["representations.residuals"], "s")
    m["representations.subspace_project.self_s"] = (own["representations.subspace_project"], "s")
    m["representations.commutant.self_s"] = (own["representations.commutant"], "s")
    m["representations.commutant.svd_s"] = (own["representations.commutant.svd"], "s")
    for name in SUITE_NAMES:
        m[f"suites.{name}.s"] = (total[f"suites.{name}"], "s")
    m["suites.cases"] = (counters["suites.run.cases"], "count")
    m["suites.failed"] = (counters["suites.run.failed"], "count")
    m["cli.main.self_s"] = (own["cli.main"], "s")
    m["cli.start_s"] = (0.0, "s")  # the cli workload fills this from invocation wall times
    return m


def layer_shares(groups):
    """Share of each layer's self time in the traced time of each request
    kind.  groups: (kind, spans of one request) pairs; the root span of a
    request has parent -1."""
    own = defaultdict(lambda: defaultdict(float))
    total = defaultdict(float)
    for kind, spans in groups:
        for s in spans:
            own[kind][s["layer"]] += s["self"]
            if s["parent"] < 0:
                total[kind] += s["dur"]
    return {
        kind: {layer: round(v / total[kind], 4)
               for layer, v in sorted(layers.items(), key=lambda kv: -kv[1]) if v / total[kind] >= 0.005}
        for kind, layers in sorted(own.items()) if total[kind] > 0
    }
