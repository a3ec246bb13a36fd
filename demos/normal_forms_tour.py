"""A tour of exact monomial arithmetic.

Run with:  python3 demos/normal_forms_tour.py
"""

from qu2.element import (
    element_str, eq, membership, normalize, parse_element, total_charge,
)
from qu2.canrep import apply_basis, semantic_eq


def show(label, e):
    print(f"  {label:>34}  {element_str(e)}")


def main():
    print("The defining relation S2 U = U^2 S2.  Both sides collapse to the")
    print("same canonical triple as soon as they are parsed:")
    lhs = parse_element("S[2] U")
    rhs = parse_element("U^2 S[2]")
    show("parse('S[2] U')", lhs)
    show("parse('U^2 S[2]')", rhs)
    print("  equal:", eq(lhs, rhs))
    assert eq(lhs, rhs)

    print()
    print("The unit splits into the two range projections:")
    unit = parse_element("P[1] + P[2]")
    show("P[1] + P[2]", unit)
    print("  equal to 1:", eq(unit, parse_element("1")))

    print()
    print("One element, three presentations.  U at successive depths:")
    u = parse_element("U")
    for depth in range(3):
        show(f"depth {depth}", normalize(u, depth))
    print("  all equal:", all(eq(u, normalize(u, d)) for d in range(3)))

    print()
    print("Equality is decided symbolically; the integer-basis action is an")
    print("independent oracle.  U^2 against the doubled form:")
    a = parse_element("U U")
    b = parse_element("S[1] U S*[1] + S[2] U S*[2]")
    print("  symbolic :", eq(a, b))
    print("  pointwise:", semantic_eq(a, b))
    (coeff, index), = apply_basis(b, 5)
    print(f"  sample action: e_5 -> {coeff} * e_{index}")
    assert eq(a, b) and semantic_eq(a, b)

    print()
    print("Charge counts the net U-power and survives rewriting:")
    w = parse_element("S[11] U^7 S*[21] + S[12] U^-3 S*[1] + S[2] U^2 S*[22]")
    show("a group unitary w", w)
    print("  total_charge(w) =", total_charge(w))
    print("  after one more level:", total_charge(normalize(w, w.depth() + 1)))

    print()
    print("Membership flags locate an element in the subalgebra lattice:")
    for text in ("U", "P[12]", "S[1] S*[2] + S[2] S*[1]"):
        flags = membership(parse_element(text))
        line = " ".join(f"{k}={v}" for k, v in flags.items())
        print(f"  {text:<28} {line}")

    print()
    print("U sends even indices to odd ones, so compressing it to the even")
    print("side annihilates it:")
    p2 = parse_element("P[2]")
    squeezed = p2 * u * p2
    show("P[2] U P[2]", squeezed)
    assert eq(squeezed, parse_element("0*1"))


if __name__ == "__main__":
    main()
