"""Normalizer structure and the dyadic phase gadget.

Run with:  python3 demos/normalizer_tour.py
"""

from fractions import Fraction

from qu2.canrep import phase_apply
from qu2.element import (
    element_str, eq, one, parse_element, putnam_form, bd_v_factor,
    u as u_power,
)


def main():
    print("Every unitary normalizing the diagonal factors as (charge part) *")
    print("(charge-free part).  Take U in its depth-1 form:")
    w = parse_element("S[1] S*[2] + S[2] U S*[1]")
    bd, v = bd_v_factor(w)
    print("  w  =", element_str(w))
    print("  bd =", element_str(bd))
    print("  v  =", element_str(v))
    print("  bd * v == w:", eq(bd * v, w))
    assert eq(bd * v, w)

    print()
    print("The charge part rewrites as a sum of projections times powers of")
    print("U (one translation component per exponent):")
    pairs = putnam_form(bd)
    for p, n in pairs:
        print(f"  U^{n:<3} on {element_str(p)}")
    print()
    print("with both partition-of-unity conditions:")
    domain = None
    ranges = None
    for p, n in pairs:
        shifted = u_power(-n) * p * u_power(n)
        domain = p if domain is None else domain + p
        ranges = shifted if ranges is None else ranges + shifted
    print("  sum of projections      == 1:", eq(domain, one()))
    print("  sum of shifted versions == 1:", eq(ranges, one()))
    assert eq(domain, one()) and eq(ranges, one())

    print()
    print("The rotation U_z e_k = z^k e_k (z a dyadic root of unity, phases")
    print("written as fractions of a turn) detects the charge of U under")
    print("conjugation: Ad(U_z)(U) acts like z times U.")
    z = Fraction(3, 8)
    for k in (-2, 0, 5):
        out = phase_apply(z, ["Uz", "U", "Uz*"], k)
        print(f"  z=3/8, e_{k:<3} ->  ({out.phase}) * e_{out.index}")
        assert out.index == k + 1 and out.phase == z

    print()
    print("whereas the rotations commute with the diagonal, so conjugating")
    print("a projection picks up no phase at all:")
    out = phase_apply(z, ["Uz", "S2", "S2*", "Uz*"], 6)
    print(f"  Ad(U_z)(P[2]) on e_6 -> ({out.phase}) * e_{out.index}")
    assert out.index == 6 and out.phase == 0


if __name__ == "__main__":
    main()
