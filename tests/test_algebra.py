import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cliffharm import algebra as alg
from cliffharm import representations as rep

import symbolic_oracle as oracle


def _to_oracle(coeffs, gens):
    return oracle.mv_from_coeffs(np.asarray(coeffs, dtype=complex), gens)


def _from_oracle(x, gens):
    return np.array(oracle.mv_to_coeffs(x, gens), dtype=complex)


def test_blades_come_in_the_documented_order():
    """One generator, blades by grade and then by index tuple, gives the
    order the module docstring documents for both tables."""
    for name in ("Cl2", "H"):
        assert alg.get_algebra(name).names == ("1", "e1", "e2", "e12")
    assert alg.get_algebra("Cl3").names == ("1", "e1", "e2", "e3", "e12", "e13", "e23", "e123")
    for a in alg.ALGEBRAS.values():
        assert list(a.grades) == [len(n) - 1 if n != "1" else 0 for n in a.names]


@pytest.mark.parametrize("name,gens", [("Cl2", 2), ("Cl3", 3), ("H", 2)])
def test_product_table_matches_oracle_exactly(name, gens):
    a = alg.get_algebra(name)
    dim = a.dim
    for i in range(dim):
        for j in range(dim):
            x = np.zeros(dim)
            y = np.zeros(dim)
            x[i] = 1.0
            y[j] = 1.0
            got = alg.geometric_product(x, y, a)
            want = _from_oracle(oracle.mv_mul(_to_oracle(x, gens), _to_oracle(y, gens)), gens)
            assert np.array_equal(got, want), (a.names[i], a.names[j])


@pytest.mark.parametrize("name,gens", [("Cl2", 2), ("Cl3", 3), ("H", 2)])
def test_random_products_match_oracle(name, gens):
    rng = np.random.default_rng(42)
    a = alg.get_algebra(name)

    def rand(*shape):
        return rng.standard_normal(shape + (a.dim,)) + 1j * rng.standard_normal(shape + (a.dim,))

    def close(got, want):
        return alg.coeff_norm(got - want) < 1e-12 * max(alg.coeff_norm(got), 1.0)

    def oracle_mul(x, y):
        return _from_oracle(oracle.mv_mul(_to_oracle(x, gens), _to_oracle(y, gens)), gens)

    for _ in range(300):
        x, y = rand(), rand()
        assert close(alg.geometric_product(x, y, a), oracle_mul(x, y))

    # broadcast over leading axes: constant x field, field x constant, field x field
    c, F, G = rand(), rand(5, 3), rand(5, 3)
    for x, y in ((c, F), (F, c), (F, G)):
        got = a.product(x, y)
        assert got.shape == (5, 3, a.dim)
        xb, yb = np.broadcast_arrays(x, y)
        for idx in np.ndindex(5, 3):
            assert close(got[idx], oracle_mul(xb[idx], yb[idx]))

    M = rep._left_mult_matrix(c, name)
    for v in rand(20):
        assert close(M @ v, alg.geometric_product(c, v, a))


def _kernel_cases(dim, rng):
    """Operand pairs for Algebra.product.  Those whose right operand holds
    more than one block of points (33 * 37 or 600, neither a multiple of the
    block) run the blocked path, the rest the single einsum."""

    def rand(*shape):
        return rng.standard_normal(shape + (dim,)) + 1j * rng.standard_normal(shape + (dim,))

    c = rand()
    return {
        "field x field": (rand(33, 37), rand(33, 37)),
        "constant x field": (c, rand(33, 37)),
        "field x constant": (rand(33, 37), c),
        "stride-0 constant x field": (np.broadcast_to(c, (33, 37, dim)), rand(33, 37)),
        "field x stride-0 constant": (rand(33, 37), np.broadcast_to(c, (33, 37, dim))),
        "two-sided broadcast": (rand(9, 1), rand(1, 300)),
        "two-sided broadcast, blocked": (rand(9, 1), rand(1, 600)),
        "real operands": (rng.standard_normal((33, 37, dim)), rng.standard_normal((33, 37, dim))),
        "constant x identity": (c, np.eye(dim)),
        "empty": (rand(0), rand(0)),
    }


@pytest.mark.parametrize("name,gens", [("Cl2", 2), ("Cl3", 3), ("H", 2)])
def test_product_kernel_matches_dense_contraction(name, gens):
    a = alg.get_algebra(name)
    rng = np.random.default_rng(17)
    for case, (x, y) in _kernel_cases(a.dim, rng).items():
        got = a.product(x, y)
        want = np.einsum("ijk,...i,...j->...k", a.tensor, x, y)
        assert got.shape == want.shape and got.dtype == want.dtype, case
        assert np.array_equal(got, want), case

        xb, yb = np.broadcast_arrays(x, y)
        xb, yb, flat = (v.reshape(-1, a.dim) for v in (xb, yb, got))
        for p in rng.choice(len(flat), size=min(50, len(flat)), replace=False):
            want_p = _from_oracle(oracle.mv_mul(_to_oracle(xb[p], gens), _to_oracle(yb[p], gens)), gens)
            assert alg.coeff_norm(flat[p] - want_p) < 1e-12 * max(alg.coeff_norm(want_p), 1.0), case


def test_product_memory_stays_near_its_output():
    """The gathered right operand is built one block at a time, so a field
    product allocates little beyond its output (a whole gather is 8x it)."""
    a = alg.get_algebra("Cl3")
    rng = np.random.default_rng(23)
    F, G = (rng.standard_normal((2**16, 8)) + 1j * rng.standard_normal((2**16, 8)) for _ in range(2))
    tracemalloc.start()
    try:
        out = a.product(F, G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * out.nbytes, (peak, out.nbytes)


def test_structure_tensor_is_read_only_in_algebra():
    """Only algebra.py knows the blade-table layout; every other module
    multiplies values through Algebra.product, Algebra.symbol_product or
    geometric_product."""
    offenders = []
    for path in sorted(Path(alg.__file__).parent.glob("*.py")):
        if path.name == "algebra.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if ".tensor" in line or 'einsum("ijk' in line:
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, offenders


@pytest.mark.parametrize("name,pair", list(alg._PAIR_VECS))
def test_spinor_matrices_carry_the_left_action_of_each_vector(name, pair):
    """B C_j = e_j B column by column against the oracle's blade arithmetic,
    and the C_j anticommute exactly, as the vectors do: C_j C_k + C_k C_j =
    -2 delta_jk I."""
    gens = alg.get_algebra(name).gens
    B, C = alg.spinor_matrices(name, pair)
    assert np.array_equal(B, alg.pair_basis(name, pair))
    n = alg.SPATIAL_DIM[name]
    assert C.shape == (n, 2, 2)
    for j in range(n):
        e = np.eye(B.shape[0])[j + 1]
        for k in range(2):
            want = _from_oracle(oracle.mv_mul(_to_oracle(e, gens), _to_oracle(B[:, k], gens)), gens)
            assert np.abs(B @ C[j][:, k] - want).max() <= 1e-15, (j, k)
        for k in range(n):
            assert np.array_equal(C[j] @ C[k] + C[k] @ C[j], -2.0 * (j == k) * np.eye(2)), (j, k)


@pytest.mark.parametrize("name,gens", [("Cl2", 2), ("Cl3", 3)])
def test_clifford_conjugate_matches_oracle(name, gens):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(2**gens) + 1j * rng.standard_normal(2**gens)
    got = alg.clifford_conjugate(x, name)
    want = _from_oracle(oracle.mv_conjugate(_to_oracle(x, gens)), gens)
    assert alg.coeff_norm(got - want) == 0.0


# Factor expressions behind each generator line, in oracle form.  The base
# spinors are 1 - i e12 and e1 + i e2; translated lines multiply on the
# right by e1, e3, or e1 e3; the third-dimension lines carry (1 - i e3);
# the n=2 lines are the sum and difference of the two base spinors.
def _oracle_generator(ideal):
    i = 1j
    p = {(): 1, (1, 2): -i}
    m = {(1,): 1, (2,): i}
    e1 = {(1,): 1}
    e3 = {(3,): 1}
    w = {(): 1, (3,): -i}
    name = ideal.name
    if name.startswith("S2"):
        base = p if "plus" in name else m
        out = dict(base)
    elif name.startswith("W2"):
        base = oracle.mv_mul(p if "plus" in name else m, w)
        out = dict(base)
    else:
        out = oracle.mv_add(m, p if "plus" in name else oracle.mv_scale(p, -1))
    if "E1" in name:
        out = oracle.mv_mul(out, e1)
    if "E3" in name:
        out = oracle.mv_mul(out, e3)
    return out


@pytest.mark.parametrize("ideal", list(alg.IdealId))
def test_generator_vectors_match_factor_expressions(ideal):
    ambient = alg.IDEAL_AMBIENT[ideal]
    gens = alg.get_algebra(ambient).gens
    want = _oracle_generator(ideal)
    if ideal is alg.IdealId.W2minusE1:
        # the stored vector is the negative of the factor product; as a line
        # generator the sign is immaterial
        want = oracle.mv_scale(want, -1)
    got = _to_oracle(alg.ideal_generators(ideal)[0], gens)
    assert oracle.mv_close(got, want, tol=0.0), ideal


@pytest.mark.parametrize("ideal", list(alg.IdealId))
def test_reference_axis_eigenvalue_via_oracle(ideal):
    ambient = alg.IDEAL_AMBIENT[ideal]
    a = alg.get_algebra(ambient)
    slot = alg.REFERENCE_AXIS_SLOT[ambient]
    blade = tuple(int(ch) for ch in a.names[slot][1:])
    g = _to_oracle(alg.ideal_generators(ideal)[0], a.gens)
    prod = oracle.mv_mul({blade: 1}, g)
    lam = alg.IDEAL_AXIS_EIGENVALUE[ideal]
    assert oracle.mv_close(prod, oracle.mv_scale(g, lam), tol=1e-13)


@pytest.mark.parametrize("ideal", list(alg.IdealId))
def test_left_ideal_closure(ideal):
    # left products by random algebra elements stay in the two-dim pair span
    rng = np.random.default_rng(11)
    ambient, j = alg.IDEAL_PAIR[ideal]
    a = alg.get_algebra(ambient)
    P = alg.pair_projector(ambient, j)
    g = alg.ideal_generators(ideal)[0]
    for _ in range(20):
        x = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
        prod = alg.geometric_product(x, g, a)
        assert alg.coeff_norm(prod - P @ prod) < 1e-12 * max(alg.coeff_norm(prod), 1.0)


@pytest.mark.parametrize("name,npairs", [("H", 2), ("Cl2", 2), ("Cl3", 4)])
def test_pair_projectors_resolve_identity(name, npairs):
    a = alg.get_algebra(name)
    total = sum(alg.pair_projector(name, j) for j in range(1, npairs + 1))
    assert np.linalg.norm(total - np.eye(a.dim)) < 1e-13


def test_pair_projectors_mutually_orthogonal():
    for name, npairs in (("H", 2), ("Cl2", 2), ("Cl3", 4)):
        for i in range(1, npairs + 1):
            for j in range(1, npairs + 1):
                if i == j:
                    continue
                prod = alg.pair_projector(name, i) @ alg.pair_projector(name, j)
                assert np.linalg.norm(prod) < 1e-13


@pytest.mark.parametrize(
    "name,coeffs",
    [
        ("H", [0.5, 0, 0, -0.5j]),
        ("Cl2", [0.5, 0.5, 0.5j, -0.5j]),
        ("Cl3", [0.25, 0, 0, -0.25j, -0.25j, 0, 0, -0.25]),
    ],
)
def test_idempotents_via_oracle(name, coeffs):
    gens = alg.get_algebra(name).gens
    x = _to_oracle(np.array(coeffs, dtype=complex), gens)
    assert oracle.mv_close(oracle.mv_mul(x, x), x, tol=1e-14)


def test_quaternion_view_is_a_homomorphism():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = np.zeros(8, dtype=complex)
        y = np.zeros(8, dtype=complex)
        x[[0, 4, 5, 6]] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y[[0, 4, 5, 6]] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = alg.phi_even_to_h(alg.geometric_product(x, y, "Cl3"))
        rhs = alg.geometric_product(alg.phi_even_to_h(x), alg.phi_even_to_h(y), "H")
        assert alg.coeff_norm(lhs - rhs) < 1e-12 * max(alg.coeff_norm(lhs), 1.0)


def test_quaternion_view_rejects_odd_elements():
    x = np.zeros(8, dtype=complex)
    x[1] = 1.0
    with pytest.raises(ValueError):
        alg.phi_even_to_h(x)


def _even_rows(count, seed):
    rows = np.zeros((count, 8), dtype=complex)
    rows[:, [0, 4, 5, 6]] = np.random.default_rng(seed).standard_normal((count, 4))
    return rows


def test_quaternion_view_checks_each_row():
    # one row with a small odd part in a large batch is refused, as it is
    # alone, although the batch's aggregate odd norm is below the threshold
    rows = _even_rows(10**5, 11)
    rows[777, 1] = 1e-8
    with pytest.raises(ValueError, match="even-grade"):
        alg.phi_even_to_h(rows[777])
    with pytest.raises(ValueError, match="even-grade"):
        alg.phi_even_to_h(rows)
    rows[777, 1] = 0.0
    got = alg.phi_even_to_h(rows[:300])
    assert np.array_equal(got, np.stack([alg.phi_even_to_h(r) for r in rows[:300]]))


def test_quaternion_view_keeps_the_single_element_threshold():
    # a single multivector is refused exactly when its odd norm exceeds
    # 1e-10 max(|a|, 1), both norms taken by coeff_norm
    rows = _even_rows(400, 12)
    scale = np.random.default_rng(13).uniform(0.01, 100.0, (400, 1))
    rows *= scale
    for k, a in enumerate(rows):
        a[[1, 2, 3, 7][k % 4]] = 1e-10 * max(alg.coeff_norm(a), 1.0) * (1 + (k % 7 - 3) * 2.0**-52)
        refused = alg.coeff_norm(a[[1, 2, 3, 7]]) > 1e-10 * max(alg.coeff_norm(a), 1.0)
        if refused:
            with pytest.raises(ValueError, match="even-grade"):
                alg.phi_even_to_h(a)
        else:
            alg.phi_even_to_h(a)


def test_vector_embed_and_part_roundtrip():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(3)
    emb = alg.vector_embed(v, "Cl3")
    assert np.array_equal(alg.vector_part(emb, 3).real, v)
    assert alg.coeff_norm(emb[[0, 4, 5, 6, 7]]) == 0.0


def test_serialization_roundtrip():
    rng = np.random.default_rng(9)
    for dim in (4, 8):
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x[rng.integers(dim)] = 0.0
        back = alg.parse_multivector(alg.serialize_multivector(x))
        assert np.array_equal(back, x)
    with pytest.raises(ValueError):
        alg.parse_multivector("5;0:1.0,0.0")
    with pytest.raises(ValueError):
        alg.parse_multivector("")


def test_unknown_algebra_name_raises():
    with pytest.raises(KeyError):
        alg.get_algebra("Cl4")
