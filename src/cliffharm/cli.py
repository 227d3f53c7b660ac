"""Command-line front end.

Subcommands: verify (run suites), transform (apply operators to field
files), info.
Exit codes: 0 all cases passed, 1 at least one failure, 2 usage or I/O
error.  Config precedence is CLI flags > config file > defaults; the
environment variable CLIFFORD_HILBERT_SEED supplies the seed when neither
flag nor file sets one.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import algebra as alg
from . import fields as fl
from . import representations as rep
from . import spin as sp
from . import suites as su
from . import transforms as tr
from ._version import __version__

# the verify options: each is a flag, a config-file key and a SuiteConfig field
OPTIONS = {
    "suite": (str, "suite name or 'all' (default all)"),
    "n": (int, "restrict to dimension 2 or 3"),
    "N": (int, "grid points per axis (power of two)"),
    "L": (float, "period length"),
    "seed": (int, "random seed"),
    "out": (str, "write JSON-lines report here"),
}


def _cast(kind, text: str, what: str):
    try:
        return kind(text)
    except ValueError as err:
        raise su.UsageError(f"{what}: expected {kind.__name__}, got {text!r}") from err


def _read_config_file(path):
    """Flat key=value lines; '#' starts a comment; tol.<case>=v loosens one case."""
    opts = {}
    tols = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise su.UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = (part.strip() for part in line.partition("="))
            if key.startswith("tol."):
                tols[key[4:]] = val
            elif key in OPTIONS:
                opts[key] = val
            else:
                raise su.UsageError(
                    f"{path}:{lineno}: unknown key {key!r}; expected one of {', '.join(OPTIONS)} or tol.<case>"
                )
    return opts, tols


def _build_config(args) -> su.SuiteConfig:
    """Each option from its flag, else the config file, else (seed only)
    CLIFFORD_HILBERT_SEED, else the SuiteConfig default."""
    file_opts, tols = _read_config_file(args.config) if args.config else ({}, {})
    env = {"seed": os.environ.get("CLIFFORD_HILBERT_SEED")}
    values = {}
    for name, (kind, _) in OPTIONS.items():
        for source, what in ((vars(args), f"--{name}"), (file_opts, f"{name} in {args.config}"),
                             (env, "CLIFFORD_HILBERT_SEED")):
            if source.get(name) is not None:
                values[name] = _cast(kind, source[name], what)
                break
    for item in args.tol or []:
        if "=" not in item:
            raise su.UsageError(f"--tol expects CASE=VALUE, got {item!r}")
        case, _, text = item.partition("=")
        tols[case.strip()] = text
    tols = {case: _cast(float, text, f"tolerance for {case}") for case, text in tols.items()}
    return su.SuiteConfig(**values, tol_overrides=tols)


def _refuse_output_path(path, what: str) -> None:
    """Refuse, before any work is done, a path that is a directory or lies in none."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise su.UsageError(f"{what} path {path!r} is a directory or lies in no existing directory")


def _run_verify(args) -> int:
    cfg = _build_config(args)
    _refuse_output_path(cfg.out, "report")
    if args.emit_plots:
        os.makedirs(args.emit_plots, exist_ok=True)
    results, extras = su.run_suite(cfg)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.suite}/{r.case} residual={r.residual:.3e} tol={r.tol:g}")
    for label, note in (extras.get("commutant_notes") or {}).items():
        print(f"note {label}: {note}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} cases passed")
    if cfg.out:
        su.write_report(cfg.out, results, cfg.seed)
    if args.emit_plots:
        for path in su.emit_plots(args.emit_plots, results, extras):
            print(f"wrote {path}")
    return 1 if failed else 0


def _parse_op(opspec: str):
    """Operator spec, split on the first ':' into head and argument."""
    head, sep, rest = opspec.partition(":")
    if head == "hilbert":
        if sep:
            raise su.UsageError(f"hilbert takes no argument, got {opspec!r}")
        return tr.hilbert
    if head == "riesz":
        j = _cast(int, rest, "riesz axis")
        return lambda f: tr.riesz(j, f)
    if head == "chi":
        if rest not in ("+", "-"):
            raise su.UsageError(f"chi needs + or -, got {rest!r}")
        return lambda f: tr.hardy_project(rest, f)
    if head in ("poisson", "cauchy"):
        x0 = _cast(float, rest, f"{head} height x0")
        if head == "poisson":
            return lambda f: tr.poisson_extend(f, x0)
        return lambda f: tr.cauchy_extend(f, x0)
    if head == "natrep":
        try:
            g = sp.parse_group_element(rest)
        except (ValueError, IndexError) as err:
            raise su.UsageError(f"natrep needs a serialized group element: {err}") from err
        return lambda f: rep.natural_rep(g, f)
    if head == "project":
        try:
            sid = rep.parse_subspace_id(rest)
        except (KeyError, ValueError):
            sid = None
        if sid is not None:
            return lambda f: rep.subspace_project(sid, f)
        try:
            ideal = alg.IdealId[rest]
        except KeyError as err:
            raise su.UsageError(f"unknown subspace or ideal id {rest!r}") from err
        return lambda f: f._like(alg.ideal_project(f.data, ideal))
    raise su.UsageError(
        f"unknown operation {head!r}; expected hilbert | riesz:j | chi:+|- | "
        f"poisson:x0 | cauchy:x0 | natrep:g | project:id"
    )


def _run_transform(args) -> int:
    op = _parse_op(args.op)
    _refuse_output_path(args.output, "output")
    f = fl.read_field(args.input)
    g = op(f)
    fl.write_field(g, args.output)
    print(f"wrote {args.output}")
    return 0


def _run_info() -> int:
    print(f"cliffharm {__version__}")
    print(f"python {sys.version.split()[0]}, numpy {np.__version__}")
    print(f"default seed {su.DEFAULT_SEED} (override: --seed or CLIFFORD_HILBERT_SEED)")
    print("suites: " + ", ".join(su.SUITE_NAMES) + ", all")
    print("value algebras: " + ", ".join(sorted(alg.ALGEBRAS)))
    print("subspace ids: " + ", ".join(s.value for s in rep.SubspaceId))
    print("ideal ids: " + ", ".join(i.name for i in alg.IdealId))
    print("field files: .json (text) or CLF1 binary (any other extension)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cliffharm",
        description="Clifford-algebra Hilbert transform toolkit: verification suites and field transforms.",
    )
    p.add_argument("--version", action="version", version=f"cliffharm {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    for name, (_, text) in OPTIONS.items():
        v.add_argument(f"--{name}", default=None, help=text)
    v.add_argument("--config", default=None, help="flat key=value config file")
    v.add_argument("--tol", action="append", default=None, metavar="CASE=VALUE",
                   help="loosen one case tolerance (repeatable)")
    v.add_argument("--emit-plots", dest="emit_plots", default=None, metavar="DIR",
                   help="write CSV companions for plotting")

    t = sub.add_parser("transform", help="apply an operator to a stored field")
    t.add_argument("op", help="hilbert | riesz:j | chi:+|- | poisson:x0 | cauchy:x0 | natrep:g | project:id")
    t.add_argument("input", help="input field file")
    t.add_argument("output", help="output field file")

    sub.add_parser("info", help="print version and registry information")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "transform":
            return _run_transform(args)
        if args.command == "info":
            return _run_info()
    except (OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
