"""Property tests: text forms of multivectors and group elements, the group
law, and the two field file formats."""

import os
import re
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffharm import algebra as alg
from cliffharm import fields as fl
from cliffharm import spin as sp

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
