"""The Clifford Hilbert transform and the two-sided Hardy split.

Run:  python3 demos/02_hilbert_hardy.py
"""

import numpy as np

from cliffharm import fields as fl
from cliffharm import representations as rp
from cliffharm import transforms as tr


def main():
    spec = fl.GridSpec(2, 64, 12.0)
    f = fl.make_band_limited_random(spec, "Cl2", 0.4, seed=5)
    print(f"grid: n={spec.n}, {spec.N} points per axis, box length {spec.L}")
    print(f"random band-limited field, norm {fl.norm(f):.4f}")
    print()

    H = tr.hilbert(f)
    HH = tr.hilbert(H)
    print(f"applying the transform twice returns the field: {fl.rel_error(HH, f):.1e}")
    print(f"the norm is preserved: {abs(fl.norm(H) - fl.norm(f)) / fl.norm(f):.1e}")
    both = tr.hilbert(f, route="riesz_sum")
    print(f"multiplier route vs component-sum route: {fl.rel_error(H, both):.1e}")
    print()

    plus = tr.hardy_project("+", f)
    minus = tr.hardy_project("-", f)
    recon = fl.CliffordField(spec, "Cl2", plus.data + minus.data)
    print("the two half-space projections split the field:")
    print(f"  reconstruction: {fl.rel_error(recon, f):.1e}")
    print(f"  H on the + half acts as +1: {rp.hilbert_eigen_check('+', f):.1e}")
    print(f"  H on the - half acts as -1: {rp.hilbert_eigen_check('-', f):.1e}")
    print(f"  the halves are orthogonal: {abs(fl.inner_product(plus, minus)) / fl.norm(f) ** 2:.1e}")
    print()

    # the classical one-variable picture sits inside: a sine along one axis
    X = spec.coords()
    a = 2 / spec.L
    sine = fl.zero_field(spec, "Cl2")
    sine.data[..., 0] = np.sin(2 * np.pi * a * X[0])
    out = tr.hilbert(sine)
    cos_part = out.data[..., 1].real
    print("H(sin along axis 1) lands on the e1 component as a cosine:")
    print(f"  max |e1 part - cos|: {np.max(np.abs(cos_part - np.cos(2 * np.pi * a * X[0]))):.1e}")
    print(f"  largest other component: {np.max(np.abs(np.delete(out.data, 1, axis=-1))):.1e}")


if __name__ == "__main__":
    main()
