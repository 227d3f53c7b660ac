"""Property tests: text forms of multivectors and group elements, the group
law, the two field file formats, the symbol product against the general
product kernel and the symbolic oracle, and the command line's operator specs
and config files."""

import contextlib
import io
import os
import re
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffharm import algebra as alg
from cliffharm import cli
from cliffharm import fields as fl
from cliffharm import representations as rep
from cliffharm import spin as sp
from cliffharm import suites

import symbolic_oracle as oracle

PROPERTY = settings(database=None, derandomize=True, deadline=None)

# tokens that a hand-written or damaged text form may carry in a number's place
SPECIAL = ["nan", "-nan", "inf", "-inf", "1e309", "-0.0", "0", "", "x", "2.5"]

number = st.one_of(st.floats(width=64).map(repr), st.sampled_from(SPECIAL))


@st.composite
def multivector_text(draw):
    dim = draw(st.sampled_from(["4", "8", "5", "0", "", "x"]))
    entries = draw(st.lists(st.tuples(st.integers(-1, 8), number, number), max_size=8))
    return ";".join([dim] + [f"{k}:{re_},{im}" for k, re_, im in entries])


def elements(n):
    """Group elements of R^n with dilation in [1/4, 4] and shift in [-10, 10]^n."""
    return st.builds(
        lambda r, seed, b: sp.GroupElement(r, sp.random_spin(n, seed), np.array(b)),
        st.floats(0.25, 4.0),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
    )


@st.composite
def group_element_text(draw):
    """A serialized group element, with one number token replaced half the time."""
    g = draw(st.sampled_from([2, 3]).flatmap(elements))
    pieces = re.split(r"([|;:,])", sp.serialize_group_element(g))
    if draw(st.booleans()):
        slots = [i for i, p in enumerate(pieces) if p not in ("|", ";", ":", ",")]
        pieces[draw(st.sampled_from(slots))] = draw(st.sampled_from(SPECIAL))
    return "".join(pieces)


@PROPERTY
@given(multivector_text())
def test_multivector_text_round_trips_or_is_refused(text):
    try:
        x = alg.parse_multivector(text)
    except ValueError:
        return
    back = alg.parse_multivector(alg.serialize_multivector(x))
    assert np.array_equal(back, x, equal_nan=True), (text, x, back)


@PROPERTY
@given(st.one_of(group_element_text(), st.text(alphabet="0123456789.,;:|-naif ", max_size=40)))
def test_group_element_text_round_trips_or_is_refused(text):
    try:
        g = sp.parse_group_element(text)
    except ValueError:
        return
    assert np.all(np.isfinite(g.s.coeffs)), text
    assert sp.strictly_equal(sp.parse_group_element(sp.serialize_group_element(g)), g), text


@PROPERTY
@given(st.data())
def test_compose_is_associative_and_inverse_inverts(data):
    n = data.draw(st.sampled_from([2, 3]))
    g, h, k = (data.draw(elements(n)) for _ in range(3))
    left = sp.compose(sp.compose(g, h), k)
    right = sp.compose(g, sp.compose(h, k))
    assert sp.strictly_equal(left, right, tol=1e-10)
    e = sp.identity_element(n)
    assert sp.strictly_equal(sp.compose(g, sp.inverse(g)), e, tol=1e-10)
    assert sp.strictly_equal(sp.compose(sp.inverse(g), g), e, tol=1e-10)


@settings(PROPERTY, max_examples=40)
@given(
    st.sampled_from([(2, 8), (2, 16), (2, 32), (3, 8), (3, 16)]),
    st.floats(1e-3, 1e3),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["binary", "json"]),
)
def test_field_files_round_trip_bit_exactly(grid, L, seed, kind):
    n, N = grid
    spec = fl.GridSpec(n, N, L)
    algebras = [va for (m, _), va in alg.VALUE_ALGEBRA_BY_DIM.items() if m == n]
    value_algebra = algebras[seed % len(algebras)]
    dim = alg.get_algebra(value_algebra).dim
    # arbitrary finite bit patterns: signed zeros, subnormals and extremes included
    bits = np.random.default_rng(seed).integers(0, 2**64, size=spec.shape + (dim, 2), dtype=np.uint64)
    parts = bits.view(np.float64)
    parts[~np.isfinite(parts)] = -0.0
    f = fl.CliffordField(spec, value_algebra, parts.view(np.complex128)[..., 0])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json" if kind == "json" else "f.clf")
        fl.write_field(f, path)
        back = fl.read_field(path)
    assert (back.spec, back.value_algebra) == (spec, value_algebra)
    assert back.data.tobytes() == f.data.tobytes()


# point counts around the symbol product's block: below, at, above and not a multiple
BLOCK = alg._SYMBOL_BLOCK
POINT_COUNTS = [1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 37]


@settings(PROPERTY, max_examples=60)
@given(
    st.sampled_from([("Cl2", 2, 2), ("H", 2, 3), ("Cl3", 3, 3)]),
    st.sampled_from(POINT_COUNTS),
    st.data(),
)
def test_symbol_product_matches_the_product_kernel_and_the_oracle(algebra, points, data):
    name, gens, n = algebra
    a = alg.get_algebra(name)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def rand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # each blade of m is zero everywhere, live on one random run of points, or live everywhere
    live = np.zeros((points, a.dim), dtype=bool)
    for i, kind in enumerate(data.draw(st.lists(st.sampled_from(["zero", "run", "all"]), min_size=a.dim,
                                                max_size=a.dim))):
        lo, hi = sorted(rng.integers(0, points + 1, size=2))
        live[:, i] = kind == "all"
        live[lo:hi, i] |= kind == "run"
    b = rand(points, a.dim)

    symbol = np.zeros((points, a.dim), dtype=complex)
    symbol[:, 0] = rng.standard_normal(points)
    symbol[:, 1 : n + 1] = 1j * rng.standard_normal((points, n))
    symbol *= live
    general = rand(points, a.dim) * live

    got = a.symbol_product(symbol, b)
    assert np.array_equal(got, a.product(symbol, b))
    got_general, want_general = a.symbol_product(general, b), a.product(general, b)
    assert alg.coeff_norm(got_general - want_general) <= 1e-15 * alg.coeff_norm(want_general)

    for m, result in ((symbol, got), (general, got_general), (general, want_general)):
        for p in rng.choice(points, size=min(points, 8), replace=False):
            want = oracle.mv_to_coeffs(oracle.mv_mul(oracle.mv_from_coeffs(m[p], gens),
                                                     oracle.mv_from_coeffs(b[p], gens)), gens)
            assert alg.coeff_norm(result[p] - np.array(want)) <= 1e-12 * max(alg.coeff_norm(want), 1.0)


# the text a user may put after an operator's ':' or a config key's '='
WORDS = ["+", "-", "0", "1", "2", "-1", "0.5", "16", "all", "spin", "exact", "spectral", "r.jsonl"]
IDS = [*(s.value for s in rep.SubspaceId), *(i.name for i in alg.IdealId)]
argument = st.one_of(st.sampled_from(WORDS), number, st.sampled_from(IDS), group_element_text(),
                     st.text(alphabet="0123456789.,;:|+-=#() eanifx", max_size=12))

# an argument each operator accepts on a Cl2 field, so that accepted specs are drawn as often as refused ones
OP_ARGS = {"hilbert": [None], "riesz": ["0", "1"], "chi": ["+", "-"], "poisson": ["0.5"], "cauchy": ["0.5"],
           "natrep": ["1.0|4;0:1.0,0.0|0.5,0.0"], "project": ["HardyPlus", "TildeTildeH(1,+)", "U2plus"],
           "squiggle": [None], "": [None]}


@st.composite
def op_spec(draw):
    head = draw(st.sampled_from(list(OP_ARGS)))
    arg = draw(st.one_of(st.sampled_from(OP_ARGS[head]), st.none(), argument))
    return head if arg is None else f"{head}:{arg}"


@settings(PROPERTY, max_examples=150)
@given(op_spec())
def test_transform_op_specs_are_applied_or_refused(op):
    f = fl.make_band_limited_random(fl.GridSpec(2, 8, 4.0), "Cl2", 0.4, 5)
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = os.path.join(tmp, "in.clf"), os.path.join(tmp, "out.clf")
        fl.write_field(f, src)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = cli.main(["transform", op, src, dst])
        assert code in (0, 2), op
        if code == 0:
            assert fl.read_field(dst).spec == f.spec, op
        else:
            assert err.getvalue().startswith("error:") and not os.path.exists(dst), op


# a value each config key accepts; the last five keys are unknown
CONFIG_VALUES = {"suite": ["all", "spin"], "n": ["2", "3"], "N": ["16"], "L": ["12.5"], "seed": ["7"],
                 "out": ["r.jsonl"], "parallel": ["2"], "tol.associativity": ["1e-6"],
                 "mode": ["exact"], "sede": ["5"], "emit_plots": ["out"], "config": ["c.ini"], "": ["1"]}
config_line = st.one_of(
    st.sampled_from(list(CONFIG_VALUES)).flatmap(
        lambda key: st.tuples(st.just(key), st.one_of(st.sampled_from(CONFIG_VALUES[key]), argument))),
    st.sampled_from(["# a comment", "", "no separator", "tol. = 1"]),
)


@settings(PROPERTY, max_examples=150)
@given(st.lists(config_line, max_size=4))
def test_config_files_are_read_or_refused(lines):
    text = "\n".join(line if isinstance(line, str) else f"{line[0]} = {line[1]}" for line in lines)
    unknown = any(isinstance(line, tuple) and line[0] not in cli.OPTIONS and not line[0].startswith("tol.")
                  for line in lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "conf.ini")
        with open(path, "w") as fh:
            fh.write(text)
        args = cli.build_parser().parse_args(["verify", "--config", path])
        try:
            cfg = cli._build_config(args)
        except suites.UsageError:
            return
    assert isinstance(cfg, suites.SuiteConfig) and not unknown, text
