import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from cliffharm import fields as fl
from cliffharm import suites


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("CLIFFORD_HILBERT_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "cliffharm", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def read_report(path):
    lines = [json.loads(ln) for ln in path.read_text().splitlines() if ln.strip()]
    assert lines[0]["type"] == "environment"
    return lines[0], lines[1:]


def test_registry_covers_every_suite_name():
    assert set(suites.SUITES) == set(suites.SUITE_NAMES)


SUITE_ORDER = ("algebra", "spin", "spectral", "hilbert", "plemelj", "subspaces", "representation",
               "intertwiners", "commutant")
# the suites that fill extras, and the keys they fill
EXTRAS = {"plemelj": {"plemelj_rows"}, "commutant": {"commutant_sv", "commutant_notes"}}


def test_suites_register_in_the_documented_order():
    assert suites.SUITE_NAMES == SUITE_ORDER


@pytest.mark.parametrize("name", SUITE_ORDER)
def test_each_registered_suite_is_its_run_function(name):
    run = suites.SUITES[name]
    assert getattr(suites, f"run_{name}") is run
    assert run.__name__ == f"run_{name}"


@pytest.mark.parametrize("name", SUITE_ORDER)
def test_each_suite_reports_rows_under_its_own_name(name):
    cases, extras = suites.SUITES[name](suites.SuiteConfig(suite=name, n=2))
    assert isinstance(cases, list) and cases
    assert {r.suite for r in cases} == {name}
    assert set(extras) == EXTRAS.get(name, set())


def test_run_suite_in_process_smoke():
    cfg = suites.SuiteConfig(suite="algebra")
    results, extras = suites.run_suite(cfg)
    assert results and all(r.passed for r in results)
    assert {r.suite for r in results} == {"algebra"}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"suite": "nonsense"},
        {"N": 12},
        {"N": 4},
        {"n": 4},
        {"L": 0.0},
        {"L": -1.0},
        {"L": float("nan")},
        {"seed": -1},
        {"L": float("inf")},
        {"tol_overrides": {"some_case": -1.0}},
        {"parallel": 0},
        {"tol_overrides": {"some_case": float("nan")}},
        {"tol_overrides": {"some_case": float("inf")}},
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(suites.UsageError):
        suites.SuiteConfig(**kwargs)


def test_parallel_run_matches_sequential():
    def rows(parallel):
        results, _ = suites.run_suite(suites.SuiteConfig(suite="all", n=2, parallel=parallel))
        return [(r.suite, r.case, r.residual, r.passed) for r in results]

    assert rows(2) == rows(1)


def test_tolerance_overrides_only_loosen():
    cfg = suites.SuiteConfig(tol_overrides={"a_case": 1e-3})
    assert cfg.tolerance("a_case", 1e-6) == 1e-3
    with pytest.raises(suites.UsageError):
        cfg.tolerance("a_case", 1e-2)
    assert cfg.tolerance("other_case", 1e-6) == 1e-6


def test_report_lines_shape():
    results, _ = suites.run_suite(suites.SuiteConfig(suite="spin"))
    lines = suites.report_lines(results, seed=42)
    head = json.loads(lines[0])
    assert head["type"] == "environment" and head["seed"] == 42
    for ln in lines[1:]:
        row = json.loads(ln)
        assert set(row) == {"suite", "case", "residual", "tol", "pass"}


def test_cli_info_runs():
    p = run_cli("info")
    assert p.returncode == 0
    assert "suites" in p.stdout
    lines = p.stdout.splitlines()
    assert (
        "subspace ids: TildeH(1,+), TildeH(1,-), TildeH(2,+), TildeH(2,-), PrimeH(1,+), PrimeH(1,-), "
        "PrimeH(2,+), PrimeH(2,-), PrimeH(3,+), PrimeH(3,-), PrimeH(4,+), PrimeH(4,-), TildeTildeH(1,+), "
        "TildeTildeH(1,-), TildeTildeH(2,+), TildeTildeH(2,-), QHardy(1,+), QHardy(1,-), QHardy(2,+), "
        "QHardy(2,-), HardyPlus, HardyMinus"
    ) in lines
    assert (
        "ideal ids: S2plus, S2minus, S2plusE1, S2minusE1, W2plus, W2minus, W2plusE1, W2minusE1, W2plusE3, "
        "W2minusE3, W2plusE1E3, W2minusE1E3, U2plus, U2minus, U2plusE1, U2minusE1"
    ) in lines


def test_cli_verify_algebra_writes_report(tmp_path):
    out = tmp_path / "report.jsonl"
    p = run_cli("verify", "--suite", "algebra", "--out", out)
    assert p.returncode == 0, p.stderr
    head, rows = read_report(out)
    assert rows and all(r["pass"] for r in rows)
    assert all(r["residual"] <= r["tol"] for r in rows)
    assert "cases passed" in p.stdout


def test_cli_verify_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli("verify", "--suite", "spin", "--seed", "7", "--out", a).returncode == 0
    assert run_cli("verify", "--suite", "spin", "--seed", "7", "--out", b).returncode == 0
    strip = lambda p: p.read_text().splitlines()[1:]
    assert strip(a) == strip(b)


def test_cli_rejects_unknown_suite():
    p = run_cli("verify", "--suite", "nonsense")
    assert p.returncode == 2
    assert "unknown suite" in p.stderr


@pytest.mark.parametrize("value", ["0", "-2"])
def test_cli_rejects_parallel_below_one(value, tmp_path):
    conf = tmp_path / "conf.ini"
    conf.write_text(f"parallel = {value}\n")
    for args in (("--parallel", value), ("--config", conf)):
        p = run_cli("verify", "--suite", "algebra", *args)
        assert p.returncode == 2
        assert p.stderr.startswith("error:") and "Traceback" not in p.stderr


@pytest.mark.parametrize(
    "args, config",
    [
        (("--L", "0"), None),
        (("--L", "-1", "--suite", "algebra"), None),
        (("--seed", "-1", "--suite", "spectral"), None),
        (("--n", "x"), None),
        ((), "sede = 5"),
        ((), "emit_plots = out"),
        (("--L", "1e160"), None),
        (("--L", "1e-160", "--suite", "plemelj"), None),
        (("--L", "1e100", "--suite", "representation"), None),
        (("--out", os.path.join(os.path.dirname(__file__), "no_such_dir", "report.jsonl")), None),
        (("--out", os.path.dirname(__file__)), None),
        (("--emit-plots", __file__), None),
        ((), "mode = exact"),
    ],
)
def test_cli_refuses_a_bad_option_before_any_suite_runs(args, config, tmp_path):
    if config:
        conf = tmp_path / "conf.ini"
        conf.write_text(f"# a comment line\n{config}\n")
        args = ("--config", conf)
    p = run_cli("verify", *args)
    assert p.returncode == 2, p.stderr
    assert p.stderr.startswith("error:") and "Traceback" not in p.stderr
    assert p.stdout == ""
    if config:
        assert f"conf.ini:2: unknown key {config.split()[0]!r}" in p.stderr


@pytest.mark.parametrize("argv", [("verify", "--mode", "exact"), ("plemelj",), ("commutant",)])
def test_cli_has_no_mode_flag_and_no_suite_shortcuts(argv):
    p = run_cli(*argv)
    assert p.returncode == 2
    assert p.stdout == ""


@pytest.mark.parametrize("L", ["1e30", "1e-30"])
def test_cli_commutant_passes_at_both_ends_of_the_box_length_range(L):
    # the bins are k/L: matched within 1e-9 in absolute frequency units, off-bin
    # frequencies would pass at L = 1e30 and no bin at all at L = 1e-30
    p = run_cli("verify", "--suite", "commutant", "--L", L)
    assert p.returncode == 0, p.stdout
    assert p.stderr == ""


def test_cli_rejects_tightened_tolerance():
    p = run_cli("verify", "--suite", "algebra", "--tol", "associativity=1e-30")
    assert p.returncode == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rejects_non_finite_tolerance(value):
    p = run_cli("verify", "--suite", "algebra", "--tol", f"associativity={value}")
    assert p.returncode == 2
    assert p.stderr.startswith("error:") and "Traceback" not in p.stderr


def test_cli_accepts_loosened_tolerance(tmp_path):
    out = tmp_path / "r.jsonl"
    p = run_cli("verify", "--suite", "algebra", "--tol", "associativity=1e-6", "--out", out)
    assert p.returncode == 0
    _, rows = read_report(out)
    row = next(r for r in rows if r["case"] == "associativity")
    assert row["tol"] == 1e-6


def test_run_suite_refuses_tolerance_overrides_no_case_used():
    cfg = suites.SuiteConfig(suite="algebra", tol_overrides={"typo_case": 1.0, "associativity": 1e-6})
    with pytest.raises(suites.UsageError, match="typo_case") as err:
        suites.run_suite(cfg)
    assert "associativity" not in str(err.value)
    results, _ = suites.run_suite(suites.SuiteConfig(suite="algebra", tol_overrides={"associativity": 1e-6}))
    assert next(r for r in results if r.case == "associativity").tol == 1e-6


@pytest.mark.parametrize("key", ["typo_case", "algebra/associativity"])
def test_cli_refuses_tolerance_for_no_case(key, tmp_path):
    conf = tmp_path / "conf.ini"
    conf.write_text(f"tol.{key} = 1\n")
    for args in (("--tol", f"{key}=1"), ("--config", conf)):
        p = run_cli("verify", "--suite", "algebra", *args)
        assert p.returncode == 2, (args, p.stderr)
        assert p.stderr.startswith("error:") and key in p.stderr and "Traceback" not in p.stderr


def test_cli_refuses_a_grid_above_the_cap():
    p = run_cli("verify", "--suite", "spectral", "--N", "4096")
    assert p.returncode == 2, p.stderr
    assert p.stderr.startswith("error:") and "cap" in p.stderr and "Traceback" not in p.stderr
    # a grid the user names may be refused through the 8x grid the Cauchy integral refines it to
    p = run_cli("verify", "--suite", "plemelj", "--N", "512")
    assert p.returncode == 2, p.stderr
    assert "refining a 512^2 grid 8x" in p.stderr and "Traceback" not in p.stderr


def test_cli_honest_failure_exits_one(tmp_path):
    # a grid spacing too coarse for the smallest extension height: three
    # plemelj cases miss their pinned tolerances and the run reports failure
    out = tmp_path / "fail.jsonl"
    plots = tmp_path / "plots"
    plots.mkdir()
    p = run_cli(
        "verify", "--suite", "plemelj", "--N", "16", "--L", "24",
        "--out", out, "--emit-plots", plots,
    )
    assert p.returncode == 1
    _, rows = read_report(out)
    assert any(not r["pass"] for r in rows)
    assert "FAIL" in p.stdout
    csv = (plots / "plemelj_boundary.csv").read_text().splitlines()
    assert csv[0] == "x0,residual"
    assert len(csv) == 4  # three extension heights


def test_cli_seed_precedence(tmp_path):
    conf = tmp_path / "conf.ini"
    conf.write_text("seed = 5\n")
    out = tmp_path / "r.jsonl"
    p = run_cli("verify", "--suite", "spin", "--config", conf, "--out", out)
    assert p.returncode == 0
    head, _ = read_report(out)
    assert head["seed"] == 5
    p = run_cli("verify", "--suite", "spin", "--config", conf, "--seed", "9", "--out", out)
    assert p.returncode == 0
    head, _ = read_report(out)
    assert head["seed"] == 9


def test_cli_seed_env_fallback(tmp_path):
    out = tmp_path / "r.jsonl"
    p = run_cli("verify", "--suite", "spin", "--out", out, env_extra={"CLIFFORD_HILBERT_SEED": "11"})
    assert p.returncode == 0
    head, _ = read_report(out)
    assert head["seed"] == 11
    p = run_cli("verify", "--suite", "spin", env_extra={"CLIFFORD_HILBERT_SEED": "-5"})
    assert p.returncode == 2
    assert p.stderr.startswith("error:") and p.stdout == ""


def test_cli_config_file_tolerances(tmp_path):
    conf = tmp_path / "conf.ini"
    conf.write_text("# loosen one case\ntol.associativity = 1e-6\n")
    out = tmp_path / "r.jsonl"
    p = run_cli("verify", "--suite", "algebra", "--config", conf, "--out", out)
    assert p.returncode == 0
    _, rows = read_report(out)
    row = next(r for r in rows if r["case"] == "associativity")
    assert row["tol"] == 1e-6


@pytest.fixture()
def sample_field(tmp_path):
    spec = fl.GridSpec(2, 16, 8.0)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, 31)
    path = tmp_path / "in.clf"
    fl.write_field(f, path)
    return f, path


def test_cli_transform_projections_cancel(sample_field, tmp_path):
    f, path = sample_field
    mid, out = tmp_path / "mid.clf", tmp_path / "out.clf"
    assert run_cli("transform", "chi:+", path, mid).returncode == 0
    assert run_cli("transform", "chi:-", mid, out).returncode == 0
    g = fl.read_field(out)
    assert fl.norm(g) < 1e-11 * fl.norm(f)


def test_cli_transform_hilbert_is_an_involution(sample_field, tmp_path):
    f, path = sample_field
    mid, out = tmp_path / "mid.clf", tmp_path / "out.clf"
    assert run_cli("transform", "hilbert", path, mid).returncode == 0
    assert run_cli("transform", "hilbert", mid, out).returncode == 0
    assert fl.rel_error(fl.read_field(out), f) < 1e-11


def test_cli_transform_identity_group_move_roundtrips_bytes(sample_field, tmp_path):
    _, path = sample_field
    out = tmp_path / "out.clf"
    g = "1.0|4;0:1.0,0.0|0.0,0.0"
    assert run_cli("transform", f"natrep:{g}", path, out).returncode == 0
    assert out.read_bytes() == path.read_bytes()


def test_cli_transform_json_output(sample_field, tmp_path):
    f, path = sample_field
    out = tmp_path / "out.json"
    assert run_cli("transform", "project:HardyPlus", path, out).returncode == 0
    g = fl.read_field(out)
    assert g.spec == f.spec


def test_cli_transform_bad_inputs(sample_field, tmp_path):
    _, path = sample_field
    out = tmp_path / "out.clf"
    assert run_cli("transform", "squigglify", path, out).returncode == 2
    assert run_cli("transform", "hilbert:x", path, out).returncode == 2
    assert not out.exists()
    assert run_cli("transform", "hilbert", tmp_path / "missing.clf", out).returncode == 2
    assert run_cli("transform", "riesz:7", path, out).returncode == 2
    bad_files = {
        "short_header.clf": fl.MAGIC + b"\x02\x00\x00\x00",
        "not_an_object.json": b"[1]",
        "bad_rows.json": b'{"format": "CLF1", "n": 2, "N": 8, "L": 1.0, '
                         b'"value_algebra": "Cl2", "values": [[1, 2]]}',
        "nan_values.clf": fl.MAGIC + struct.pack("<IId", 2, 8, 1.0) + np.full(8 * 8 * 4 * 2, np.nan).tobytes(),
    }
    for name, content in bad_files.items():
        bad = tmp_path / name
        bad.write_bytes(content)
        res = run_cli("transform", "hilbert", bad, out)
        assert res.returncode == 2, (name, res.stderr)
        assert "Traceback" not in res.stderr, name


def test_cli_transform_refuses_boolean_field_values(tmp_path):
    doc = {"format": "CLF1", "n": 2, "N": 8, "L": 1.0, "value_algebra": "Cl2", "values": [[[True, False]] * 4] * 64}
    bad, out = tmp_path / "bools.json", tmp_path / "out.clf"
    bad.write_text(json.dumps(doc))
    res = run_cli("transform", "hilbert", bad, out)
    assert res.returncode == 2, res.stderr
    assert "pairs of JSON numbers" in res.stderr, res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_cli_transform_refuses_non_finite_box_length(tmp_path):
    bad = tmp_path / "nan_length.clf"
    bad.write_bytes(fl.MAGIC + struct.pack("<IId", 2, 8, float("nan")) + bytes(16 * 8 * 8 * 4))
    res = run_cli("transform", "hilbert", bad, tmp_path / "out.clf")
    assert res.returncode == 2, res.stderr
    assert any(line.startswith("error:") for line in res.stderr.splitlines()), res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("L, op", [(1e160, "hilbert"), (1e-160, "cauchy:0.2"), (1e100, "chi:+")])
def test_cli_transform_refuses_a_box_length_out_of_range(L, op, tmp_path):
    doc = {"format": "CLF1", "n": 2, "N": 8, "L": L, "value_algebra": "Cl2", "values": [[[1.0, 0.0]] * 4] * 64}
    (tmp_path / "in.json").write_text(json.dumps(doc))
    (tmp_path / "in.clf").write_bytes(fl.MAGIC + struct.pack("<IId", 2, 8, L) + bytes(16 * 8 * 8 * 4))
    for name in ("in.json", "in.clf"):
        res = run_cli("transform", op, tmp_path / name, tmp_path / "out.clf")
        assert res.returncode == 2, (name, res.stderr)
        assert res.stderr.startswith("error:") and "box length" in res.stderr, (name, res.stderr)
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "out.clf").exists()


@pytest.mark.parametrize(
    "op",
    ["natrep:nan|4;0:1,0|0,0", "natrep:1|4;0:1,0|0.3,inf", "poisson:nan", "cauchy:inf",
     "cauchy:1e-200", "cauchy:1e308", "poisson:1e308"],
)
def test_cli_transform_refuses_non_finite_parameters(op, sample_field, tmp_path):
    _, path = sample_field
    out = tmp_path / "out.clf"
    res = run_cli("transform", op, path, out)
    assert res.returncode == 2, res.stderr
    assert any(line.startswith("error:") for line in res.stderr.splitlines()), res.stderr
    assert "Traceback" not in res.stderr
    assert "Warning" not in res.stderr
    assert not out.exists()


def test_cli_transform_names_a_nan_rotor(sample_field, tmp_path):
    _, path = sample_field
    out = tmp_path / "out.clf"
    res = run_cli("transform", "natrep:1.0|8;0:nan,0.0|0.0,0.0,0.0", path, out)
    assert res.returncode == 2, res.stderr
    assert "rotor coefficients must be finite" in res.stderr, res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_cli_verify_refuses_grid_with_empty_band():
    res = run_cli("verify", "--suite", "representation", "--N", "8")
    assert res.returncode == 2, res.stderr
    assert any(line.startswith("error:") for line in res.stderr.splitlines()), res.stderr
    assert "Traceback" not in res.stderr


def test_emit_plots_from_extras(tmp_path):
    results, _ = suites.run_suite(suites.SuiteConfig(suite="spin"))
    extras = {
        "plemelj_rows": [(0.4, 0.1), (0.2, 0.05)],
        "commutant_sv": {"toy": np.array([3.0, 2.0, 0.0])},
    }
    written = suites.emit_plots(tmp_path, results, extras)
    assert len(written) == 2
    sv = (tmp_path / "commutant_singular_values.csv").read_text().splitlines()
    assert sv[0] == "configuration,index,singular_value"
    assert len(sv) == 4
    assert suites.emit_plots(tmp_path, [], extras) == []
