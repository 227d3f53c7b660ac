"""The cli workload: fresh `cliffharm` processes, one at a time.

One pass runs `verify --suite X` for each of the nine suites and, twice, a
fixed set of `transform` invocations on seeded CLF1 binary and JSON field
files.  Each invocation is checked after it exits: a verify must exit 0
with every case line PASS; a transform's output file, read back, must equal
the in-process result bit for bit.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from math import pi

import numpy as np

import cliffharm as ch
from cliffharm import representations as rep
from cliffharm import spin as sp
from cliffharm import suites

from inproc import CheckFailed, L, nonzero_input

HERE = os.path.dirname(os.path.abspath(__file__))
# Each pass runs the quick transforms, with the cauchy one between them, this
# many times, so that the transform latency percentiles rest on more than one
# sample per kind.
TRANSFORM_REPEATS = 2


def write_inputs(workdir, seed):
    """Seeded input files; returns {file name: bytes}."""
    sizes = {}
    for name, n, N, algebra in (("c32.clf", 3, 32, "Cl3"), ("c64.clf", 3, 64, "Cl3"), ("c16.json", 3, 16, "Cl3")):
        f = nonzero_input(ch.make_band_limited_random(ch.GridSpec(n, N, L), algebra, 0.4, seed + N), name)
        path = os.path.join(workdir, name)
        ch.write_field(f, path)
        sizes[name] = os.path.getsize(path)
    return sizes


def natrep_on_grid(seed):
    """A quarter turn with an on-grid shift: the exact permutation path."""
    rng = np.random.default_rng(seed)
    h = L / 32
    g = sp.GroupElement(1.0, sp.spin3_from_axis_angle([0.0, 0.0, 1.0], pi / 2),
                        h * rng.integers(-8, 8, size=3).astype(float))
    return sp.serialize_group_element(g)


def transform_specs(seed):
    """(op, input, output) for one pass.

    The cauchy transform (quadrature and lattice tail, compute-bound) is the
    slowest but one and runs twice per repeat; the 64^3 hilbert, slower still
    and with more spread (it is memory-bound), runs once.  With 14 quick
    samples, 4 cauchy and 1 64^3 hilbert, p50 falls inside the quick group and
    p90 (rank 16.2 of 0..18) inside the cauchy group, not at a group's edge,
    where it would jump with either group's spread."""
    quick = [
        ("hilbert", "c32.clf", "hilbert32.clf"),
        ("chi:+", "c32.clf", "chiplus.clf"),
        ("chi:-", "c32.clf", "chiminus.clf"),
        ("project:HardyPlus", "c32.clf", "hardyplus.clf"),
        ("poisson:0.2", "c32.clf", "poisson.clf"),
        (f"natrep:{natrep_on_grid(seed)}", "c32.clf", "natrep.clf"),
        ("hilbert", "c16.json", "hilbert16.json"),
    ]
    cauchy = ("cauchy:0.2", "c16.json", "cauchy.clf")
    one_repeat = quick[:3] + [cauchy] + quick[3:] + [cauchy]
    return [("hilbert", "c64.clf", "hilbert64.clf")] + one_repeat * TRANSFORM_REPEATS


def in_process(op, f):
    """The transform computed with the library's public functions."""
    head, _, arg = op.partition(":")
    if head == "hilbert":
        return ch.hilbert(f)
    if head == "chi":
        return ch.hardy_project(arg, f)
    if head == "project":
        return rep.subspace_project(rep.parse_subspace_id(arg), f)
    if head == "poisson":
        return ch.poisson_extend(f, float(arg))
    if head == "cauchy":
        return ch.cauchy_extend(f, float(arg))
    if head == "natrep":
        return rep.natural_rep(sp.parse_group_element(arg), f)
    raise ValueError(f"no in-process form for {op!r}")


class CliRunner:
    def __init__(self, root, workdir, seed, traced):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.traced = traced
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.expected = {}
        self.invocations = 0
        self.spans_path = None  # where the last traced invocation wrote its spans

    def command(self, args):
        self.invocations += 1
        if self.traced:
            self.spans_path = os.path.join(self.workdir, f"spans-{self.invocations}.json")
            return [sys.executable, os.path.join(HERE, "trace_child.py"), self.spans_path] + args
        return [sys.executable, "-m", "cliffharm"] + args

    def invoke(self, args):
        cmd = self.command(args)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True, text=True)
        return time.perf_counter() - t0, proc

    def verify(self, suite):
        wall, proc = self.invoke(["verify", "--suite", suite, "--seed", str(self.seed)])

        def check():
            if proc.returncode != 0:
                raise CheckFailed(f"verify {suite}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            lines = proc.stdout.splitlines()
            cases = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
            if not cases or any(not ln.startswith("PASS ") for ln in cases):
                raise CheckFailed(f"verify {suite}: not every case passed")
            if lines[-1] != f"{len(cases)}/{len(cases)} cases passed":
                raise CheckFailed(f"verify {suite}: summary {lines[-1]!r}")

        return wall, check

    def transform(self, op, src, dst):
        out = os.path.join(self.workdir, dst)
        if os.path.exists(out):
            os.remove(out)
        wall, proc = self.invoke(["transform", op, src, dst])

        def check():
            if proc.returncode != 0:
                raise CheckFailed(f"transform {op}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            got = ch.read_field(out)
            key = (op, src)
            if key not in self.expected:
                self.expected[key] = in_process(op, ch.read_field(os.path.join(self.workdir, src)))
            want = self.expected[key]
            if (got.spec != want.spec or got.value_algebra != want.value_algebra
                    or not np.array_equal(got.data, want.data)):
                raise CheckFailed(f"transform {op} {src}: file differs from the in-process result")

        return wall, check

    def requests(self):
        """(kind, run) for one pass; run() returns (wall seconds, check).

        The transforms are spread between the verify runs, so that a slow
        spell of the machine in one part of the pass moves only some of them."""
        verify = [(f"verify {s}", lambda s=s: self.verify(s)) for s in suites.SUITE_NAMES]
        transform = [(f"transform {op.split(':')[0]} {src}",
                      lambda op=op, src=src, dst=dst: self.transform(op, src, dst))
                     for op, src, dst in transform_specs(self.seed)]
        per_verify = len(transform) // len(verify)
        out = []
        for i, v in enumerate(verify):
            out.append(v)
            out += transform[i * per_verify:(i + 1) * per_verify]
        return out + transform[len(verify) * per_verify:]
