"""Permutative endomorphisms: checking, constructing, classifying.

Run with:  python3 demos/endomorphism_tour.py
"""

from qu2.element import element_str, eq, flip_flop, parse_element, phi
from qu2.endo import (
    check_extension_parts, enumerate_extendible, identity_perm, make_u_p,
    mixed_template, perm_to_cycles, perm_unitary_from_cycles,
    u_templates_labeled,
)


def main():
    print("A permutation of the 2^k words of length k gives a unitary")
    print("u = sum S_rho(w) S_w* and the endomorphism S_i -> u S_i of O2.")
    print("It extends from O2 to all of Q2 exactly when some Utilde solves")
    print()
    print("    (ext1)  Utilde u S2 = u S1")
    print("    (ext2)  Utilde u S1 = u S2 Utilde")
    print()

    print("The whole level-2 classification, recomputed from scratch (24")
    print("permutations against the eight candidate images of U):")
    total = 0
    for label, template in u_templates_labeled(2):
        hits = [perm_to_cycles(pu.perm)
                for pu in enumerate_extendible(2, template, mode="brute")]
        total += len(hits)
        print(f"  Utilde = {label:<9} {', '.join(hits) if hits else '-'}")
    print(f"  {total} extendible pairs in all")
    assert total == 10

    print()
    print("Near miss: u_134 satisfies the first equation for the mixed")
    print("template M2:0 but fails the second:")
    u134 = perm_unitary_from_cycles(2, "(1 3 4)")
    print("  (ext1, ext2) =",
          check_extension_parts(u134, mixed_template(2, 0, 2)))

    print()
    print("The identity-permutation family climbs the tower of the shift")
    print("endomorphism phi(x) = S1 x S1* + S2 x S2*.  With F the unitary")
    print("implementing phi, level k yields the implementer of phi^(k-1):")
    big_f = parse_element(
        "S[11] S*[11] + S[12] S*[21] + S[21] S*[12] + S[22] S*[22]"
    )
    tower = big_f
    for k in (2, 3, 4):
        plus = make_u_p(identity_perm(1 << (k - 1)), +1)
        print(f"  k={k}: u_id^+ equals F_{k-1}:", eq(plus.element, tower))
        assert eq(plus.element, tower)
        tower = phi(tower) * big_f

    print()
    print("and the negative twin differs from it by a right flip factor:")
    k = 3
    plus = make_u_p(identity_perm(1 << (k - 1)), +1)
    minus = make_u_p(identity_perm(1 << (k - 1)), -1)
    print("  u_id^-(3) f == u_id^+(3):",
          eq(minus.element * flip_flop(), plus.element))

    print()
    print("Constructive and brute-force enumeration agree where both run.")
    print("Level 3, template U^4, first three of 24 members:")
    members = list(enumerate_extendible(3, parse_element("U^4"),
                                        mode="constructive"))
    for pu in members[:3]:
        print(f"  {perm_to_cycles(pu.perm):<24} {element_str(pu.element)}")
    print(f"  ... {len(members)} members")


if __name__ == "__main__":
    main()
