"""Group actions on fields, the pinned subspaces, and the commutant count.

Run:  python3 demos/04_representations_commutant.py
"""

import numpy as np

from cliffharm import fields as fl
from cliffharm import representations as rp
from cliffharm import spin as sp


def main():
    spec = fl.GridSpec(3, 16, 10.0)
    f = fl.make_band_limited_random(spec, "H", 0.3, seed=2)
    s = sp.spin3_from_axis_angle([0.0, 0.0, 1.0], np.pi / 2)
    shift = np.array([2 * spec.h, 0.0, -3 * spec.h])
    g = sp.GroupElement(1.0, s, shift)
    print("a quarter turn plus an on-grid shift permutes the samples exactly:")
    out = rp.natural_rep(g, f)
    print(f"  norm change: {abs(fl.norm(out) - fl.norm(f)) / fl.norm(f):.1e}")
    back = rp.natural_rep(sp.inverse(g), out)
    print(f"  round trip:  {fl.rel_error(back, f):.1e}")
    print()

    id = rp.SubspaceId.TildeH1Plus
    member = rp.random_subspace_member(id, spec, seed=3)
    print(f"a member of {id.value} under the conditioned action stays inside:")
    moved = rp.induced_rep("+", g, member, id)
    print(f"  membership residual: {rp.subspace_membership_residual(id, moved):.1e}")
    plain = rp.natural_rep(sp.GroupElement(1.0, sp.identity_spin(3), shift), member)
    print(f"  same shift, unconditioned action: {rp.subspace_membership_residual(id, plain):.1e}"
          "  (the direction factor is anchored at the origin)")
    print()

    print("the right axis factor hops between the paired copies:")
    hopped = rp.intertwiner_right_e1(member)
    res = rp.subspace_membership_residual(rp.SubspaceId.TildeH2Plus, hopped)
    print(f"  image sits in {rp.SubspaceId.TildeH2Plus.value}: {res:.1e}")
    print()

    print("counting operators that commute with the action (multiplier form):")
    for spec_c, restriction in [
        (fl.GridSpec(3, 16, 10.0), "S2"),
        (fl.GridSpec(3, 16, 10.0), "full"),
        (fl.GridSpec(2, 16, 12.0), "S2"),
    ]:
        rep = rp.commutant_dimension_experiment(spec_c, restriction=restriction)
        print(f"  n={spec_c.n}, {restriction:>4}: dimension {rep.dimension} "
              f"(identity {rep.i_residual:.0e}, transform {rep.h_residual:.0e})")
        print(f"        {rep.note}")
    print()

    toy = rp.translations_force_multiplier_toy(N=8)
    print("1-D toy behind the multiplier ansatz: operators commuting with the")
    print(f"cyclic shift form an {toy.dimension}-dim space (expected {toy.expected}), "
          f"all diagonal in the Fourier basis ({toy.offdiagonal_residual:.0e}).")


if __name__ == "__main__":
    main()
