"""cliffharm benchmark: one workload, one seed, one run.

Usage (from the repository root):
    python3 perfbench/run.py --workload spectral-ops --seed 1 --seconds 15 --trace 0

Workloads: spectral-ops, group-actions (library calls in worker processes,
see inproc.py) and cli (fresh `cliffharm` processes, one at a time).  All three are closed
loops with one client and one request in flight.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it runs the tracer self-test,
wraps every layer and reports the per-layer metrics and the tracing
overhead.  Every request's output is checked outside its timed window.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# BLAS is held to one thread in this process and every process it starts.  On
# a shared host with few cores a second OpenBLAS thread spins for little wall
# time gained, and the timings then measure the scheduler.  A value set in
# the environment wins; the stamp records it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
# An in-process run is spread over this many worker processes and makes at
# least MIN_PASSES passes (of 25 or 33 requests), so that at least 10
# requests lie beyond p90 even when the machine runs slowly.
WORKERS = 2
MIN_PASSES = 4
WORKLOADS = ("spectral-ops", "group-actions", "cli")


def fresh_import_s():
    """Wall time of a fresh interpreter that imports cliffharm."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cliffharm"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def latency_metrics(walls, samples):
    """Requests per second of timed wall time over all requests, and the
    latency percentiles of the sampled ones."""
    return {
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "op_ms.p50": (1e3 * float(np.percentile(samples, 50)), "ms"),
        "op_ms.p90": (1e3 * float(np.percentile(samples, 90)), "ms"),
    }


# ---------------------------------------------------------------------------
# environment stamp


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cache_sizes():
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        size = _read(os.path.join(base, entry, "size"))
        if level and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def blas_stamp():
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = info.get("lib directory") or ""
    if os.path.isdir(libdir):
        import ctypes

        for lib in sorted(os.listdir(libdir)):
            if ".so" not in lib:
                continue
            try:
                handle = ctypes.CDLL(os.path.join(libdir, lib))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
            if threads is not None:
                break
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": threads,
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def source_stamp():
    """Git SHA when the checkout is a git repository, and a digest of src/."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def env_stamp(args, input_bytes, extra):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_stamp(),
        **source_stamp(),
        "caches": cache_sizes(),
        "input_bytes": input_bytes,
        **extra,
    }


# ---------------------------------------------------------------------------
# in-process workloads


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, kind, err):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{kind}: {type(err).__name__}: {err}")


def inproc_workload(args):
    """WORKERS fresh processes, one after another, each making its share of
    the passes.  Each process is set up once, so the set-up time is the
    median over the workers.  A process keeps the speed it started with for
    its life, and on a shared host that speed differs from one process to
    the next; spreading a run over several processes averages that out."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    per_worker = -(-MIN_PASSES // WORKERS)
    results = []
    for w in range(WORKERS):
        out = os.path.join(OUT_DIR, f"worker-{os.getpid()}-{w}.json")
        cmd = [sys.executable, os.path.join(HERE, "inproc.py"), out, args.workload, str(args.seed),
               repr(args.seconds / WORKERS), str(args.trace), str(per_worker)]
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        with open(out) as fh:
            res = json.load(fh)
        os.remove(out)
        res["setup_s"] = res["first_request_at"] - t0
        results.append(res)

    outcome = Outcome()
    latencies, by_kind, untraced, traced = [], {}, [], []
    for res in results:
        outcome.attempted += res["attempted"]
        outcome.failed += res["failed"]
        outcome.errors += res["errors"]
        latencies += res["latencies"]
        for kind, v in res["by_kind"].items():
            by_kind.setdefault(kind, []).extend(v)
        untraced += res["passes"]["untraced"]
        traced += res["passes"]["traced"]
    first = results[0]
    info = {"passes": len(untraced) + len(traced), "requests_per_pass": first["requests_per_pass"],
            "workers": WORKERS, "worker_setup_s": [round(r["setup_s"], 4) for r in results],
            "pass_timed_s": [round(t, 4) for t in untraced + traced],
            "median_ms_by_kind": {k: round(1e3 * statistics.median(v), 3) for k, v in by_kind.items()}}
    if first["path_of"]:
        seconds = {}
        for kind, path in first["path_of"].items():
            seconds[path] = seconds.get(path, 0.0) + sum(by_kind.get(kind, []))
        info["path_share_of_requests"] = {p: n / first["requests_per_pass"]
                                          for p, n in sorted(first["path_counts"].items())}
        info["path_share_of_timed_s"] = {p: s / sum(latencies) for p, s in sorted(seconds.items())}
    metrics = {}
    if args.trace:
        from tracer import layer_metrics, layer_shares

        dumps = [r["spans"] for r in results]
        groups = []
        for res in results:
            kinds = {int(k): v for k, v in res["request_kind"].items()}
            by_request = {}
            for s in res["spans"]["spans"]:
                by_request.setdefault(s["request"], []).append(s)
            groups += [(kinds[rid], spans) for rid, spans in by_request.items() if rid in kinds]
        info["layer_share_by_kind"] = layer_shares(groups)
        metrics = per_pass(layer_metrics(dumps), len(traced))
        metrics["trace.overhead"] = (statistics.mean(traced) / statistics.mean(untraced) - 1, "ratio")
        write_spans(args, dumps)
    else:
        metrics["setup_s"] = (statistics.median(r["setup_s"] for r in results), "s")
        metrics.update(latency_metrics(latencies, latencies))
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB")
    return outcome, metrics, first["input_bytes"], info


def per_pass(metrics, passes):
    """Totals become per-pass values; rates and ratios stay as they are."""
    return {k: (v / passes if u in ("count", "s", "B") else v, u) for k, (v, u) in metrics.items()}


def write_spans(args, dumps):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(dumps, fh)


# ---------------------------------------------------------------------------
# cli workload


def cli_pass(runner, outcome, walls):
    """One pass of invocations; appends (kind, wall seconds, spans file)."""
    for kind, run in runner.requests():
        outcome.attempted += 1
        try:
            wall, check = run()
        except OSError as err:
            outcome.fail(kind, err)
            continue
        walls.append((kind, wall, runner.spans_path))
        try:
            check()
        except Exception as err:  # includes CheckFailed
            outcome.fail(kind, err)


def cli_workload(args):
    import cliwork

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            imp = fresh_import_s()
            t0 = time.perf_counter()
            sizes = cliwork.write_inputs(workdir, args.seed)
            setups.append(imp + time.perf_counter() - t0)
        outcome = Outcome()
        untraced = []
        walls_per_pass = []
        t_start = time.perf_counter()
        while True:
            walls = []
            cli_pass(cliwork.CliRunner(ROOT, workdir, args.seed, traced=False), outcome, walls)
            walls_per_pass.append(walls)
            untraced.extend((k, w) for k, w, _ in walls)
            if args.trace or time.perf_counter() - t_start >= args.seconds:
                break
        info = {"passes": len(walls_per_pass), "requests_per_pass": len(walls_per_pass[0]),
                "request_s": [[k, round(w, 4)] for k, w in untraced]}
        metrics = {}
        if args.trace:
            from tracer import layer_metrics, layer_shares

            runner = cliwork.CliRunner(ROOT, workdir, args.seed, traced=True)
            traced = []
            cli_pass(runner, outcome, traced)
            # a traced child that failed may have written no spans; its check failed already
            kinds, dumps = [], []
            for kind, _, path in traced:
                if os.path.exists(path):
                    with open(path) as fh:
                        dumps.append(json.load(fh))
                    kinds.append(kind)
            metrics = layer_metrics(dumps)
            info["layer_share_by_kind"] = layer_shares((k, d["spans"]) for k, d in zip(kinds, dumps))
            traced_s = sum(w for _, w, _ in traced)
            main_s = sum(s["dur"] for d in dumps for s in d["spans"] if s["layer"] == "cli.main")
            metrics["cli.start_s"] = (traced_s - main_s, "s")
            metrics["trace.overhead"] = (traced_s / sum(w for _, w in untraced) - 1, "ratio")
            write_spans(args, dumps)
        else:
            transform = [w for k, w in untraced if k.startswith("transform")]
            verify = [sum(w for k, w, _ in p if k.startswith("verify")) for p in walls_per_pass]
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics.update(latency_metrics([w for _, w in untraced], transform))
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB")
            info["verify_s"] = statistics.median(verify)
            info["transform_samples"] = len(transform)
        return outcome, metrics, sizes, info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------


def selftest_failures():
    import test_tracer

    failures = []
    for name in sorted(dir(test_tracer)):
        if name.startswith("test_"):
            try:
                getattr(test_tracer, name)()
            except Exception as err:  # report every failing self-test
                failures.append(f"{name}: {type(err).__name__}: {err}")
    return failures


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "cliffharm")):
        print(f"error: no cliffharm sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    failures = selftest_failures() if args.trace else []
    if args.workload == "cli":
        outcome, metrics, input_bytes, info = cli_workload(args)
    else:
        outcome, metrics, input_bytes, info = inproc_workload(args)
    for msg in failures:
        print(f"self-test FAIL {msg}")
    for msg in outcome.errors:
        print(f"request FAIL {msg}")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>16.6g} {unit}")
    ratio = outcome.failed / outcome.attempted
    print(f"  {'fail_ratio':<52} {ratio:>16.6g} ratio  ({outcome.failed} of {outcome.attempted})")
    for key, value in info.items():
        print(f"  {key:<52} {json.dumps(value)}")
    print(json.dumps({"env": env_stamp(args, input_bytes, info)}, sort_keys=True))
    result = {
        "correct": outcome.failed == 0 and not failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
