"""Tree-pair diagrams with charges: the group of normalizing unitaries.

Run with:  python3 demos/diagram_tour.py
"""

from qu2.element import element_str, eq, one, parse_element, total_charge
from qu2.wgroup import (
    Diagram, charge, diagram_to_json, from_element, group_inv, group_mul,
    identity_diagram, reduce, render, to_element,
)


def main():
    print("A diagram is two binary trees with the same number of leaves, a")
    print("leaf permutation, and one integer charge per leaf.  A three-leaf")
    print("example (caret on the left / caret on the right, twisted):")
    d = Diagram(((0, 0), 0), (0, (0, 0)), (1, 0, 2), (7, -3, 2))
    print(" ", diagram_to_json(d))
    w = to_element(d)
    print("  as an element:", element_str(w))
    print("  leaf charges sum to", charge(d),
          "= total_charge of the element:", total_charge(w))
    assert charge(d) == total_charge(w)

    print()
    print("Diagrams multiply by refining both trees to a common shape;")
    print("inverses swap the trees and negate the charges:")
    dinv = group_inv(d)
    print("  d^-1:", diagram_to_json(dinv))
    prod = group_mul(d, dinv)
    print("  d * d^-1:", diagram_to_json(prod))
    assert eq(to_element(prod), one())
    assert eq(w * to_element(dinv), one())

    print()
    print("Conversion is faithful both ways and reduction strips cancelling")
    print("carets.  An identity written redundantly at depth 1:")
    fat = from_element(parse_element("S[1] S*[1] + S[2] S*[2]"))
    print("  unreduced:", diagram_to_json(fat))
    print("  reduced  :", diagram_to_json(reduce(fat)))
    assert reduce(fat) == identity_diagram()

    print()
    print("Graphviz output (dashed edges carry the leaf permutation):")
    print()
    for line in render(d, "dot").splitlines():
        print("   ", line)


if __name__ == "__main__":
    main()
