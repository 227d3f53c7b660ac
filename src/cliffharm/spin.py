"""Spin(2)/Spin(3) rotors and the scale-rotate-translate group acting on R^n.

A group element is the triple (r, s, b): positive dilation r, unit even
rotor s, translation b.  The action on a vector is x -> r(s x s^-1) + b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    _row_norms,
    clifford_conjugate,
    coeff_norm,
    geometric_product,
    parse_multivector,
    serialize_multivector,
    vector_embed,
    vector_part,
)

_TABLE_FOR_N = {2: "Cl2", 3: "Cl3"}
_ODD_SLOTS = {2: [1, 2], 3: [1, 2, 3, 7]}


@dataclass(frozen=True)
class SpinElement:
    """Unit even-grade rotor in Cl(0,n), n in {2,3}.

    Coefficients have shape (..., dim): leading axes hold a batch of rotors,
    and every row is checked as a single rotor is."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.n not in _TABLE_FOR_N:
            raise ValueError("n must be 2 or 3")
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        dim = 2**self.n
        if c.shape[-1:] != (dim,):
            raise ValueError(f"rotor needs {dim} coefficients for n={self.n}")
        if not np.isfinite(c).all():
            raise ValueError("rotor coefficients must be finite")
        mag2 = c.real**2 + c.imag**2
        if (mag2[..., _ODD_SLOTS[self.n]].sum(axis=-1) > 1e-24).any():
            raise ValueError("rotor must be even-grade")
        if (np.abs(c.imag) > 1e-12).any():
            raise ValueError("rotor coefficients must be real")
        nrm = np.sqrt(mag2.sum(axis=-1))
        off = nrm[np.abs(nrm - 1.0) > 1e-12]
        if off.size:
            raise ValueError(f"rotor norm {off[0]} is not 1")

    @property
    def algebra(self) -> str:
        return _TABLE_FOR_N[self.n]

    def inverse(self) -> "SpinElement":
        # for unit even rotors the inverse is the Clifford conjugate
        return SpinElement(self.n, clifford_conjugate(self.coeffs, self.algebra))

    def __mul__(self, other: "SpinElement") -> "SpinElement":
        if self.n != other.n:
            raise ValueError("rotor dimensions differ")
        prod = geometric_product(self.coeffs, other.coeffs, self.algebra)
        return SpinElement(self.n, prod.real + 0j)

    def __neg__(self) -> "SpinElement":
        return SpinElement(self.n, -self.coeffs)


def identity_spin(n: int) -> SpinElement:
    return SpinElement(n, np.eye(2**n)[0])


@dataclass(frozen=True)
class GroupElement:
    r: float
    s: SpinElement
    b: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError("dilation must be positive and finite")
        if self.s.coeffs.ndim != 1:
            raise ValueError("a group element holds one rotor, not a batch")
        b = np.asarray(self.b, dtype=float)
        if b.shape != (self.s.n,):
            raise ValueError("translation length must match the spin dimension")
        if not np.all(np.isfinite(b)):
            raise ValueError("translation must be finite")
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.s.n


def identity_element(n: int) -> GroupElement:
    return GroupElement(1.0, identity_spin(n), np.zeros(n))


def _sandwich(s: SpinElement, x: np.ndarray) -> np.ndarray:
    if s.coeffs.ndim != 1:
        raise ValueError("the spin action needs one rotor, not a batch")
    alg = s.algebra
    xe = vector_embed(np.asarray(x, dtype=float), alg, s.n)
    # s^-1 of a unit even rotor is its Clifford conjugate
    out = geometric_product(geometric_product(s.coeffs, xe, alg), clifford_conjugate(s.coeffs, alg), alg)
    rest = out.copy()
    rest[..., 1 : s.n + 1] = 0
    if coeff_norm(rest) > 1e-12 * (1.0 + coeff_norm(out)):
        raise ArithmeticError("spin action left the vector grade")
    return vector_part(out, s.n).real


def act_vector(g: GroupElement, x) -> np.ndarray:
    """Apply x -> r (s x s^-1) + b."""
    return g.r * _sandwich(g.s, x) + g.b


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Group law (r,s,b)(r',s',b') = (rr', ss', r s b' s^-1 + b)."""
    if g.n != h.n:
        raise ValueError("group element dimensions differ")
    return GroupElement(g.r * h.r, g.s * h.s, g.r * _sandwich(g.s, h.b) + g.b)


def inverse(g: GroupElement) -> GroupElement:
    si = g.s.inverse()
    return GroupElement(1.0 / g.r, si, -_sandwich(si, g.b) / g.r)


def strictly_equal(g: GroupElement, h: GroupElement, tol: float = 0.0) -> bool:
    return (
        g.n == h.n
        and abs(g.r - h.r) <= tol
        and np.all(np.abs(g.b - h.b) <= tol)
        and coeff_norm(g.s.coeffs - h.s.coeffs) <= tol
    )


def spin2_from_angle(theta: float) -> SpinElement:
    """Rotor cos(theta) + sin(theta) e1e2; rotates vectors by 2*theta."""
    c = np.zeros(4, dtype=complex)
    c[0] = np.cos(theta)
    c[3] = np.sin(theta)
    return SpinElement(2, c)


def spin3_from_axis_angle(axis, theta) -> SpinElement:
    """Rotor fixing the axis and turning the orthogonal plane by theta.
    An array of angles gives one rotor per angle."""
    axis = np.asarray(axis, dtype=float)
    if not abs(np.linalg.norm(axis) - 1.0) <= 1e-10:
        raise ValueError("axis must be a unit vector")
    bivec = -geometric_product(vector_embed(axis, "Cl3", 3), np.eye(8)[7], "Cl3")  # -axis e123
    half = np.asarray(theta, dtype=float)[..., None] / 2.0
    c = np.cos(half) * np.eye(8)[0] + np.sin(half) * bivec
    return SpinElement(3, c.real + 0j)


def rotation_matrix(s: SpinElement) -> np.ndarray:
    """Columns are the images of the coordinate axes under x -> s x s^-1."""
    return np.ascontiguousarray(_sandwich(s, np.eye(s.n)).T)


def section_s_omega(omega) -> SpinElement:
    """Deterministic rotor with s e_ref s^-1 = omega (e_ref = e3, or e2 when n=2).

    omega has shape (..., n); the result holds one rotor per unit vector.
    Formula (1 - omega e_ref)/norm, switching to the fixed antipodal
    fallback wherever the norm falls under 1e-6.
    """
    omega = np.asarray(omega, dtype=float)
    n = omega.shape[-1] if omega.ndim else None
    if n not in _TABLE_FOR_N:
        raise ValueError("n must be 2 or 3")
    if not np.all(np.abs(np.linalg.norm(omega, axis=-1) - 1.0) <= 1e-10):
        raise ValueError("omega must be a unit vector")
    alg = _TABLE_FOR_N[n]
    dim = 2**n
    u = np.eye(dim)[0] - geometric_product(vector_embed(omega, alg, n), np.eye(dim)[n], alg)
    nrm = _row_norms(u)[..., None]
    fallback = np.eye(dim)[5 if n == 3 else 3]  # e1e3, or e1e2 when n=2
    small = nrm < 1e-6
    return SpinElement(n, np.where(small, fallback, u / np.where(small, 1.0, nrm)).real + 0j)


def random_spin(n: int, rng) -> SpinElement:
    """Haar sample: unit 3-sphere of even coefficients (n=3), uniform angle (n=2)."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    if n == 3:
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        c = np.zeros(8, dtype=complex)
        c[[0, 4, 5, 6]] = q
        return SpinElement(3, c)
    if n == 2:
        return spin2_from_angle(rng.uniform(0.0, 2.0 * np.pi))
    raise ValueError("n must be 2 or 3")


def serialize_group_element(g: GroupElement) -> str:
    b = ",".join(repr(float(v)) for v in g.b)
    return f"{g.r!r}|{serialize_multivector(g.s.coeffs)}|{b}"


def parse_group_element(text: str) -> GroupElement:
    parts = text.strip().split("|")
    if len(parts) != 3:
        raise ValueError("group element text must be r|s|b1,b2(,b3)")
    r = float(parts[0])
    s_coeffs = parse_multivector(parts[1])
    b = np.array([float(v) for v in parts[2].split(",")])
    n = 2 if s_coeffs.shape[0] == 4 else 3
    if b.shape[0] != n:
        raise ValueError("translation length does not match the rotor dimension")
    return GroupElement(r, SpinElement(n, s_coeffs), b)
