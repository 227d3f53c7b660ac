"""Boundary behaviour of the Cauchy integral: convergence to the jump formula.

Run:  python3 demos/03_plemelj_convergence.py     (about half a minute)
"""

import numpy as np

from cliffharm import fields as fl
from cliffharm import transforms as tr


def main():
    spec = fl.GridSpec(2, 64, 12.0)
    X = spec.coords()
    f = fl.zero_field(spec, "Cl2")
    f.data[..., 0] = np.exp(-np.pi * (X[0] ** 2 + X[1] ** 2) / 16.0)
    f.meta["band_limit"] = spec.N / (2 * spec.L)
    fnorm = fl.norm(f)
    half_sum = 0.5 * (f.data + tr.hilbert(f).data)
    print("Cauchy integral of a wide Gaussian, evaluated at decreasing heights;")
    print("the target is the boundary jump value (f + Hf)/2.")
    print()
    print("  height   distance to target   distance to damped target")
    for x0 in (0.4, 0.2, 0.1):
        C = tr.cauchy_extend(f, x0)
        to_limit = fl.norm(fl.CliffordField(spec, "Cl2", C.data - half_sum)) / fnorm
        damped = tr.hardy_project("+", tr.poisson_extend(f, x0))
        to_damped = fl.norm(fl.CliffordField(spec, "Cl2", C.data - damped.data)) / fnorm
        print(f"  {x0:5.2f}   {to_limit:18.3e}   {to_damped:25.3e}")
    print()
    print("the second column shrinks with the height (the boundary limit);")
    print("the third stays at quadrature accuracy for every height.")
    print()

    wrong = tr.cauchy_extend(f, 0.1, kernel_exponent=spec.n)
    gap = fl.norm(fl.CliffordField(spec, "Cl2", wrong.data - half_sum)) / fnorm
    print(f"with the kernel exponent lowered to n the limit is missed: {gap:.3e}")


if __name__ == "__main__":
    main()
