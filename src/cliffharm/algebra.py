"""Complexified Clifford algebras Cl(0,2) and Cl(0,3) over fixed blade bases.

Generators square to -1 and anticommute; the scalar imaginary i commutes
with every blade.  Coefficients live in numpy complex arrays whose last
axis runs over the blade basis in the fixed documented order:

    4-dim table: [1, e1, e2, e12]
    8-dim table: [1, e1, e2, e3, e12, e13, e23, e123]

Three named value algebras share these two tables: "Cl2" and "H" use the
4-dim table (for "H" the bivector slot is read as the third quaternion
imaginary, paired with a 3-dimensional spatial domain), "Cl3" the 8-dim
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

import numpy as np


def _blades(gens: int) -> list:
    """Generator index tuples of the blades in the documented order: by grade,
    then by index tuple, so () for 1, (1,) for e1, ..., (1, 2) for e12."""
    return [c for k in range(gens + 1) for c in combinations(range(1, gens + 1), k)]


def _blade_sign(a: int, b: int) -> int:
    """Sign of the product of basis blades with index masks a, b."""
    swaps = 0
    j = 0
    bb = b
    while bb:
        if bb & 1:
            swaps += bin(a >> (j + 1)).count("1")
        bb >>= 1
        j += 1
    swaps += bin(a & b).count("1")  # each repeated generator contributes -1
    return -1 if swaps % 2 else 1


# Points per block in Algebra.product: the gathered right operand holds
# _CHUNK * dim**2 entries at a time, whatever the field size.
_CHUNK = 512
# Points per block in Algebra.symbol_product: its one permuted copy of the
# right operand holds _SYMBOL_BLOCK * dim entries, no more than product's gather.
_SYMBOL_BLOCK = 2048


@dataclass(frozen=True)
class Algebra:
    """One blade table, its structure tensor and its signed-permutation form.

    Each blade product is one signed blade, so for every pair (i, k) exactly
    one j has tensor[i, j, k] != 0: that j is cols[i, k] and the entry,
    +1 or -1, is signs[i, k].
    """

    name: str
    gens: int
    names: tuple = field(repr=False)
    tensor: np.ndarray = field(repr=False)
    grades: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return 2 ** self.gens

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Geometric product of coefficient arrays, broadcast over the
        leading axes; the last axis is the blade axis.  The general value
        product: out[k] = sum_i signs[i, k] a[i] b[cols[i, k]], gathered and
        summed in blocks of _CHUNK points."""
        a = np.asarray(a)
        b = np.asarray(b)
        if b.size <= _CHUNK * self.dim:
            return np.einsum("ik,...i,...ik->...k", self.signs, a, b.take(self.cols, axis=-1))
        lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        out = np.empty(lead + (self.dim,), np.result_type(self.signs, a, b))
        flat = out.reshape(-1, self.dim)
        A = np.broadcast_to(a, out.shape).reshape(flat.shape)
        B = np.broadcast_to(b, out.shape).reshape(flat.shape)
        for start in range(0, len(flat), _CHUNK):
            block = slice(start, start + _CHUNK)
            gathered = B[block].take(self.cols, axis=-1)
            np.einsum("ik,pi,pik->pk", self.signs, A[block], gathered, out=flat[block])
        return out

    def symbol_product(self, m: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Geometric product m b blade by blade: out = sum_i m[i] (e_i b),
        in ascending blade order, where e_i b is the signed permutation
        signs[i] * b[cols[i]].  A blade whose coefficients are exactly zero
        throughout a block of _SYMBOL_BLOCK points is skipped there, so a
        Fourier symbol with n + 1 of its dim blades live costs n + 1 passes.

        When every coefficient of m is purely real or purely imaginary
        (Fourier symbols, rotors, basis constants, vector embeddings) each
        term is one rounded product and the result equals `product` bit for
        bit.  On general complex m numpy's complex multiply (which fuses
        multiply-adds) rounds differently from the einsum in `product`, by
        about 1e-16 relative, so `product` stays the general kernel."""
        m = np.asarray(m)
        b = np.asarray(b)
        lead = np.broadcast_shapes(m.shape[:-1], b.shape[:-1])
        out = np.zeros(lead + (self.dim,), np.result_type(self.signs, m, b))
        flat = out.reshape(-1, self.dim)
        M = np.broadcast_to(m, out.shape).reshape(flat.shape)
        B = np.broadcast_to(b, out.shape).reshape(flat.shape)
        scratch = np.empty((min(_SYMBOL_BLOCK, len(flat)), self.dim), out.dtype)
        for start in range(0, len(flat), _SYMBOL_BLOCK):
            block = slice(start, start + _SYMBOL_BLOCK)
            acc, Bb, Mb = flat[block], B[block], M[block]
            term = scratch[: len(acc)]
            for i in range(self.dim):
                mi = Mb[:, i]
                if not mi.any():
                    continue
                # the indices are in range; any mode but "raise" writes to out unbuffered
                np.take(Bb, self.cols[i], axis=1, out=term, mode="wrap")
                term *= self.signs[i]
                term *= mi[:, None]
                acc += term
        return out


def _build(name: str, gens: int) -> Algebra:
    blades = _blades(gens)
    masks = [sum(1 << (g - 1) for g in b) for b in blades]
    dim = len(masks)
    index = {m: k for k, m in enumerate(masks)}
    T = np.zeros((dim, dim, dim))
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            T[i, j, index[mi ^ mj]] = _blade_sign(mi, mj)
    grades = np.array([len(b) for b in blades])
    cols = np.argmax(T != 0, axis=1)
    signs = np.take_along_axis(T, cols[:, None, :], axis=1)[:, 0, :]
    names = tuple("e" + "".join(map(str, b)) if b else "1" for b in blades)
    return Algebra(name, gens, names, T, grades, cols, signs)


ALGEBRAS = {
    "Cl2": _build("Cl2", 2),
    "Cl3": _build("Cl3", 3),
    "H": _build("H", 2),
}

# Spatial dimension each value algebra is paired with.
SPATIAL_DIM = {"Cl2": 2, "Cl3": 3, "H": 3}
# Value algebras admissible for a given spatial dimension, keyed by table size.
VALUE_ALGEBRA_BY_DIM = {(3, 4): "H", (3, 8): "Cl3", (2, 4): "Cl2"}


def get_algebra(name: str) -> Algebra:
    try:
        return ALGEBRAS[name]
    except KeyError:
        raise KeyError(f"unknown value algebra {name!r}; choose from {sorted(ALGEBRAS)}")


def geometric_product(a: np.ndarray, b: np.ndarray, algebra: Algebra | str) -> np.ndarray:
    """Geometric product of coefficient arrays; last axis is the blade axis."""
    alg = get_algebra(algebra) if isinstance(algebra, str) else algebra
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return alg.product(a, b)


def clifford_conjugate(a: np.ndarray, algebra: Algebra | str) -> np.ndarray:
    """Clifford conjugation: grade k picks up (-1)^(k(k+1)/2)."""
    alg = get_algebra(algebra) if isinstance(algebra, str) else algebra
    signs = np.where((alg.grades * (alg.grades + 1) // 2) % 2 == 1, -1.0, 1.0)
    return np.asarray(a, dtype=complex) * signs


def coeff_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hermitian inner product making the blade basis orthonormal."""
    return np.sum(np.conj(a) * b, axis=-1)


def coeff_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex).ravel()))


def _row_norms(a: np.ndarray) -> np.ndarray:
    """coeff_norm of every row a[..., :]: a dot product per row adds in
    coeff_norm's order, where a last-axis sum would round differently."""
    a = np.asarray(a, dtype=complex)
    return np.sqrt((a.real[..., None, :] @ a.real[..., None] + a.imag[..., None, :] @ a.imag[..., None])[..., 0, 0])


def vector_embed(x, algebra: Algebra | str, spatial_n: int | None = None) -> np.ndarray:
    """Embed a real/complex spatial vector into coefficient slots 1..n."""
    alg = get_algebra(algebra) if isinstance(algebra, str) else algebra
    x = np.asarray(x)
    n = x.shape[-1] if spatial_n is None else spatial_n
    if n >= alg.dim:
        raise ValueError(f"vector length {n} does not fit algebra {alg.name}")
    out = np.zeros(x.shape[:-1] + (alg.dim,), dtype=complex)
    out[..., 1 : n + 1] = x
    return out


def vector_part(a: np.ndarray, spatial_n: int) -> np.ndarray:
    return np.asarray(a)[..., 1 : spatial_n + 1]


_i = 1j

# One row per ideal line: ambient algebra, index j of the ambient pair in
# _PAIR_VECS that holds the line, left eigenvalue of the reference axis on it,
# and the generating spinor as a literal coefficient vector.  Pairs and
# eigenvalues are recorded from direct blade arithmetic, not derived here, so
# the algebra suite and the tests can check them against it; two of the U
# lines come out opposite to a printed claim upstream, and the recorded value
# wins.
_IDEALS = {
    "S2plus": ("H", 1, _i, [1, 0, 0, -_i]),            # 1 - i e1e2
    "S2minus": ("H", 1, -_i, [0, 1, _i, 0]),           # e1 + i e2
    "S2plusE1": ("H", 2, _i, [0, 1, -_i, 0]),          # (1 - i e1e2) e1
    "S2minusE1": ("H", 2, -_i, [-1, 0, 0, -_i]),       # (e1 + i e2) e1
    "W2plus": ("Cl3", 1, _i, [1, 0, 0, -_i, -_i, 0, 0, -1]),
    "W2minus": ("Cl3", 1, -_i, [0, 1, _i, 0, 0, -_i, 1, 0]),
    "W2plusE1": ("Cl3", 2, _i, [0, 1, -_i, 0, 0, _i, 1, 0]),
    "W2minusE1": ("Cl3", 2, -_i, [1, 0, 0, _i, _i, 0, 0, -1]),
    "W2plusE3": ("Cl3", 1, _i, [_i, 0, 0, 1, 1, 0, 0, -_i]),
    "W2minusE3": ("Cl3", 1, -_i, [0, _i, -1, 0, 0, 1, _i, 0]),
    "W2plusE1E3": ("Cl3", 2, _i, [0, -_i, -1, 0, 0, 1, -_i, 0]),
    "W2minusE1E3": ("Cl3", 2, -_i, [_i, 0, 0, -1, -1, 0, 0, -_i]),
    "U2plus": ("Cl2", 1, -_i, [1, 1, _i, -_i]),         # e1 + i e2 + 1 - i e1e2
    "U2minus": ("Cl2", 1, _i, [-1, 1, _i, _i]),         # e1 + i e2 - (1 - i e1e2)
    "U2plusE1": ("Cl2", 2, -_i, [-1, 1, -_i, -_i]),
    "U2minusE1": ("Cl2", 2, _i, [-1, -1, _i, -_i]),
}

IdealId = Enum("IdealId", [(k, k) for k in _IDEALS], module=__name__)

IDEAL_AMBIENT = {IdealId(k): row[0] for k, row in _IDEALS.items()}
IDEAL_AXIS_EIGENVALUE = {IdealId(k): row[2] for k, row in _IDEALS.items()}
# Lines grouped by their ambient pair, pairs in order of first appearance.
_pairs = [row[:2] for row in _IDEALS.values()]
IDEAL_PAIR = dict(sorted(zip(IdealId, _pairs), key=lambda item: _pairs.index(item[1])))

# Reference axis of each ambient algebra for the recorded eigenvalues: the
# last spatial direction e_n, which sits in blade slot n of both tables.
REFERENCE_AXIS_SLOT = {a: SPATIAL_DIM[a] for a in IDEAL_AMBIENT.values()}

# Two-dimensional ambient left ideals, given as orthonormal column pairs.
_PAIR_VECS = {
    ("H", 1): ([1, 0, 0, -_i], [0, 1, _i, 0]),
    ("H", 2): ([0, 1, -_i, 0], [1, 0, 0, _i]),
    ("Cl2", 1): ([1, 0, 0, -_i], [0, 1, _i, 0]),
    ("Cl2", 2): ([0, 1, -_i, 0], [1, 0, 0, _i]),
    ("Cl3", 1): ([1, 0, 0, -_i, -_i, 0, 0, -1], [0, 1, _i, 0, 0, -_i, 1, 0]),
    ("Cl3", 2): ([0, 1, -_i, 0, 0, _i, 1, 0], [1, 0, 0, _i, _i, 0, 0, -1]),
    ("Cl3", 3): ([1, 0, 0, _i, -_i, 0, 0, 1], [0, 1, _i, 0, 0, _i, -1, 0]),
    ("Cl3", 4): ([0, 1, -_i, 0, 0, -_i, -1, 0], [1, 0, 0, -_i, _i, 0, 0, 1]),
}


def ideal_generators(id: IdealId) -> list:
    """Generating spinors of the named ideal line, as coefficient vectors."""
    if not isinstance(id, IdealId):
        raise KeyError(f"not an IdealId: {id!r}")
    return [np.array(_IDEALS[id.value][3], dtype=complex)]


def pair_basis(algebra_name: str, pair_index: int) -> np.ndarray:
    """Orthonormal (dim, 2) basis of the ambient two-dimensional left ideal."""
    cols = _PAIR_VECS[(algebra_name, pair_index)]
    B = np.array(cols, dtype=complex).T
    return B / np.linalg.norm(B, axis=0)


def pair_projector(algebra_name: str, pair_index: int) -> np.ndarray:
    B = pair_basis(algebra_name, pair_index)
    return B @ B.conj().T


def spinor_matrices(algebra_name: str, pair_index: int) -> tuple:
    """B = pair_basis and the (n, 2, 2) stack of C_j = B^† L(e_j) B, the left
    action of the vector e_j (blade slot j + 1) in the pair's two spinor
    coordinates: e_j B = B C_j, because the ideal is closed under left
    multiplication.  C_j is formed from the recorded columns and divided by
    their norms last, so that its entries come out exact."""
    a = get_algebra(algebra_name)
    V = np.array(_PAIR_VECS[(algebra_name, pair_index)], dtype=complex)  # rows: the columns of B
    E = np.eye(a.dim)[1 : SPATIAL_DIM[algebra_name] + 1]
    moved = a.product(E[:, None, :], V[None, :, :])  # moved[j, k] = e_j v_k
    norms2 = np.sum(np.abs(V) ** 2, axis=-1)
    C = V.conj() @ moved.transpose(0, 2, 1) / np.sqrt(np.outer(norms2, norms2))
    return pair_basis(algebra_name, pair_index), C


def ideal_project(v: np.ndarray, id: IdealId) -> np.ndarray:
    """Orthogonal projection onto the generator line of the ideal."""
    g = ideal_generators(id)[0]
    v = np.asarray(v, dtype=complex)
    if v.shape[-1] != g.shape[0]:
        raise ValueError(f"value dimension {v.shape[-1]} does not match {id.value}")
    coef = coeff_inner(g, v) / coeff_inner(g, g)
    return coef[..., None] * g


# Quaternion view adapter: even part of the 8-dim table -> 4-dim table.
# 1 -> 1, e23 -> e1', e13 -> -e2', e12 -> e3'.
def phi_even_to_h(a: np.ndarray) -> np.ndarray:
    """The even part of each row a[..., :] of Cl3 coefficients as a
    quaternion; every row's odd part must be below 1e-10 of its norm."""
    a = np.asarray(a, dtype=complex)
    if np.any(_row_norms(a[..., [1, 2, 3, 7]]) > 1e-10 * np.maximum(_row_norms(a), 1.0)):
        raise ValueError("quaternion view needs an even-grade element")
    out = np.zeros(a.shape[:-1] + (4,), dtype=complex)
    out[..., 0] = a[..., 0]
    out[..., 1] = a[..., 6]
    out[..., 2] = -a[..., 5]
    out[..., 3] = a[..., 4]
    return out


def serialize_multivector(coeffs: np.ndarray) -> str:
    """Text form `dim;index:re,im;...`, nonzero entries in ascending order."""
    coeffs = np.asarray(coeffs, dtype=complex)
    parts = [str(coeffs.shape[-1])]
    for k, c in enumerate(coeffs):
        if c != 0:
            parts.append(f"{k}:{float(c.real)!r},{float(c.imag)!r}")
    return ";".join(parts)


def parse_multivector(text: str) -> np.ndarray:
    fields = [p for p in text.strip().split(";") if p]
    if not fields:
        raise ValueError("empty multivector text")
    dim = int(fields[0])
    if dim not in (4, 8):
        raise ValueError(f"unsupported blade count {dim}")
    out = np.zeros(dim, dtype=complex)
    for part in fields[1:]:
        idx, _, reim = part.partition(":")
        re, _, im = reim.partition(",")
        k = int(idx)
        if not 0 <= k < dim:
            raise ValueError(f"blade index {k} out of range for dim {dim}")
        out[k] = float(re) + 1j * float(im or 0.0)
    return out
