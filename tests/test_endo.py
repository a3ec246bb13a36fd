import random
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from qu2.errors import CapacityError, DomainError, ParseError
from qu2.element import (
    element_str,
    eq,
    flip_flop,
    one,
    parse_element,
    phi,
    s,
    u,
)
from qu2.endo import (
    PermUnitary,
    automorphism_probe,
    check_extension,
    check_extension_parts,
    constructive_family,
    enumerate_extendible,
    enumerate_u_p,
    enumerate_u_sigma,
    extend,
    lambda_apply,
    make_inner_phi,
    make_u_p,
    make_u_sigma,
    mixed_template,
    parse_cycles,
    perm_to_cycles,
    perm_unitary,
    perm_unitary_from_cycles,
    perm_unitary_from_element,
    parse_template,
    template_labels,
    u_templates_labeled,
)

f = flip_flop()


def pu2(cycles):
    return perm_unitary_from_cycles(2, cycles)


def test_cycles_round_trip():
    assert perm_to_cycles((0, 1, 2, 3)) == "id"
    assert perm_to_cycles((1, 0, 3, 2)) == "(1 2)(3 4)"
    assert parse_cycles(4, "(1 3 4 2)") == (2, 0, 3, 1)
    assert parse_cycles(4, "(2 3)") == (0, 2, 1, 3)
    assert parse_cycles(4, "(1,3)(2,4)") == parse_cycles(4, "(13)(24)")
    with pytest.raises(ParseError):
        parse_cycles(4, "(1 5)")
    with pytest.raises(ParseError):
        parse_cycles(4, "(1 1)")
    with pytest.raises(ParseError, match=r"\(1 x\)"):
        parse_cycles(4, "(1 x)")


@given(st.permutations(range(8)))
def test_cycles_round_trip_random(p):
    assert parse_cycles(8, perm_to_cycles(tuple(p))) == tuple(p)


def test_perm_unitary():
    F = pu2("(2 3)")
    assert element_str(F.element) == \
        "P[11] + S[12] S*[21] + S[21] S*[12] + P[22]"
    assert perm_unitary_from_element(F.element).perm == F.perm
    with pytest.raises(DomainError):
        perm_unitary(2, (0, 0, 1, 2))
    with pytest.raises(DomainError):
        perm_unitary_from_element(u())


def test_check_extension_level2_cases():
    # the positive mixed case and its ext2-only failures
    assert check_extension_parts(pu2("(1 2 3)"), mixed_template(2, 0, 2)) \
        == (True, True)
    assert check_extension_parts(pu2("(1 3 4)"), mixed_template(2, 0, 2)) \
        == (True, False)
    assert check_extension_parts(pu2("(2 4 3)"), mixed_template(2, 0, 1)) \
        == (True, True)
    assert check_extension_parts(pu2("(1 4 2)"), mixed_template(2, 0, 1)) \
        == (True, False)
    assert check_extension(pu2("id"), u())
    with pytest.raises(DomainError):
        check_extension(pu2("id"), parse_element("S[2]"))


def test_s_images_match_products():
    # u S_i read off the permutation equals the product, term for term
    rng = random.Random(3)
    level3 = []
    for _ in range(200):
        perm = list(range(8))
        rng.shuffle(perm)
        level3.append(PermUnitary(3, tuple(perm)))
    cases = [PermUnitary(k, perm) for k in range(3)
             for perm in permutations(range(1 << k))] + level3
    for pu in cases:
        assert pu.s_images() == (pu.element * s((1,)), pu.element * s((2,)))


def test_level0_extension():
    # at level 0, u = 1 and u S_i = S_i: only U itself extends
    pu = PermUnitary(0, (0,))
    assert check_extension(pu, u())
    assert not check_extension(pu, u(-1))
    assert not check_extension(pu, flip_flop())
    assert enumerate_extendible(0, u(-1)) == []
    assert enumerate_extendible(0, u()) == [pu]


LEVEL2_TABLE = [
    ("U+", "(2 3)"),
    ("U+", "(1 3 4 2)"),
    ("U-", "(1 2 4 3)"),
    ("U-", "(1 4)"),
    ("M1:0", "(2 4 3)"),
    ("M2:0", "(1 2 3)"),
    ("AD:id", "id"),
    ("AD*:id", "(1 3)(2 4)"),
    ("AD:(1 2)", "(1 4)(2 3)"),
    ("AD*:(1 2)", "(1 2)(3 4)"),
]


def test_level2_classification():
    # brute force over all 24 permutations and the full template menu
    found = []
    for label, template in u_templates_labeled(2):
        for pu in enumerate_extendible(2, template):
            found.append((label, perm_to_cycles(pu.perm)))
    assert sorted(found) == sorted(LEVEL2_TABLE)


def test_templates_menu():
    labels2 = [label for label, _t in u_templates_labeled(2)]
    assert labels2 == ["U+", "U-", "M1:0", "M2:0",
                       "AD:id", "AD*:id", "AD:(1 2)", "AD*:(1 2)"]
    ts = [t for _label, t in u_templates_labeled(2)]
    assert eq(ts[0], u(2)) and eq(ts[1], u(-2))
    # mixed templates commute past the power of U at matching depth
    lhs = mixed_template(2, 0, 1)
    rhs = u(2) * parse_element("P[1]") + u(-2) * parse_element("P[2]")
    assert eq(lhs, rhs)
    labels3 = [label for label, _t in u_templates_labeled(3)]
    assert labels3[:6] == ["U+", "U-", "M1:0", "M2:0", "M1:1", "M2:1"]
    assert len([l for l in labels3 if l.startswith("AD:")]) \
        == len([l for l in labels3 if l.startswith("AD*:")])
    with pytest.raises(DomainError):
        u_templates_labeled(1)


def test_menu_entries_pairwise_distinct():
    # why the menu needs no dedupe: no two entries are equal operators
    for k, size in ((2, 8), (3, 54)):
        menu = [t for _label, t in u_templates_labeled(k)]
        assert len(menu) == size == 2 + 2 * (k - 1) + 2 * factorial(1 << (k - 1))
        for i, j in combinations(range(size), 2):
            assert not eq(menu[i], menu[j]), (k, i, j)


def test_parse_template_labels():
    kind, element = parse_template(3, "AD*:(1 2)")
    assert kind == ("inner", (1, 0, 2, 3), True)
    assert eq(element, pu2("(1 2)").element * u(-1) * pu2("(1 2)").element.adjoint())
    assert parse_template(3, "M2:1")[0] == ("mixed", 1, 2)
    assert parse_template(3, "U-")[0] == ("pure", -1)
    # element expressions are not labels
    assert parse_template(3, "U^4") is None
    for k in (1, 0, -1):
        with pytest.raises(DomainError):
            parse_template(k, "U+")
    with pytest.raises(DomainError):
        parse_template(3, "M1:2")


def test_menu_capacity_past_level_4():
    labels = template_labels(5)
    assert [next(labels) for _ in range(10)][-1] == "M2:3"
    with pytest.raises(CapacityError):
        next(labels)
    with pytest.raises(CapacityError):
        u_templates_labeled(5)
    # a family found before the inner section is reached, and refused by
    # its size: (8!)^2 members
    with pytest.raises(CapacityError, match=str(factorial(8) ** 2)):
        constructive_family(5, mixed_template(5, 2, 1))


def test_make_u_p():
    # trivial block permutation gives the tensor flip, lambda_F = phi
    assert eq(make_u_p((0, 1), +1).element, pu2("(2 3)").element)
    for k in (2, 3):
        n = 1 << (k - 1)
        for p in ([*range(n)], [n - 1, *range(n - 1)]):
            up = make_u_p(tuple(p), +1)
            um = make_u_p(tuple(p), -1)
            assert check_extension(up, u(n))
            assert check_extension(um, u(-n))
            # u_p^- f = u_p^+
            assert eq(um.element * f, up.element)


def test_make_u_sigma():
    # at k=2 the two variants are the two mixed cases of the level-2 table
    assert make_u_sigma(2, 0, 1).perm == pu2("(2 4 3)").perm
    assert make_u_sigma(2, 0, 2).perm == pu2("(1 2 3)").perm
    for h, variant in [(0, 1), (0, 2), (1, 1), (1, 2)]:
        fam = list(enumerate_u_sigma(3, h, variant))
        assert len({pu.perm for pu in fam}) == 4
        for pu in fam:
            assert check_extension(pu, mixed_template(3, h, variant))
    # at level 4, (1 2) swaps the words 11 and 12 and fixes 21 and 22: for
    # h >= 1 it permutes the tail under one head only, so it is no mask of
    # head flips times a tail permutation, and it still extends
    for h in (1, 2):
        for variant in (1, 2):
            pu = make_u_sigma(4, h, variant, parse_cycles(4, "(1 2)"),
                              parse_cycles(4, "(2 4 3)"))
            assert check_extension(pu, mixed_template(4, h, variant))
    with pytest.raises(DomainError):
        make_u_sigma(3, 0, 1, (0, 0))
    with pytest.raises(DomainError):
        make_u_sigma(3, 2, 1)
    with pytest.raises(DomainError):
        make_u_sigma(3, 0, 3)


def test_make_inner_phi():
    level1_id = perm_unitary(1, (0, 1))
    level1_swap = perm_unitary(1, (1, 0))
    endo = make_inner_phi(level1_id, with_flip=False)
    assert eq(endo.u.element, one()) and eq(endo.u_tilde, u()) and endo.verified
    endo = make_inner_phi(level1_id, with_flip=True)
    assert eq(endo.u.element, f) and eq(endo.u_tilde, u(-1)) and endo.verified
    endo = make_inner_phi(level1_swap, with_flip=False)
    assert eq(endo.u_tilde, f * u() * f) and endo.verified


def test_enumerate_modes():
    brute = {pu.perm for pu in enumerate_extendible(2, u(2), mode="brute")}
    cons = {pu.perm for pu in enumerate_extendible(2, u(2),
                                                   mode="constructive")}
    assert cons == brute == {pu2("(2 3)").perm, pu2("(1 3 4 2)").perm}
    with pytest.raises(CapacityError):
        list(enumerate_extendible(5, u(16), mode="brute"))
    with pytest.raises(DomainError):
        enumerate_extendible(2, u(2), mode="fast")


def test_enumerate_parallel_matches_serial():
    serial = [pu.perm for pu in enumerate_extendible(2, u(2), jobs=1)]
    parallel = [pu.perm for pu in enumerate_extendible(2, u(2), jobs=2)]
    assert serial == parallel


def test_constructive_family_dispatch():
    assert len(constructive_family(3, u(4))) == 24
    assert len(constructive_family(3, mixed_template(3, 1, 2))) == 4
    inner = pu2("(1 2)").element * u() * pu2("(1 2)").element.adjoint()
    fam = constructive_family(3, inner)
    assert len(fam) == 1 and check_extension(fam[0], inner)


def test_lambda_apply():
    ident = make_inner_phi(perm_unitary(1, (0, 1)), with_flip=False)
    for text in ("S[1]", "U^3", "S[12] U^-2 S*[2]"):
        e = parse_element(text)
        assert eq(lambda_apply(ident, e), e)
    # lambda_F is phi on every element it touches
    F = pu2("(2 3)")
    endo = extend(F, u(2))
    assert endo.verified
    for text in ("S[1]", "S[2]", "U", "S[21] U^5 S*[112]"):
        e = parse_element(text)
        assert eq(lambda_apply(endo, e), phi(e))
    bad = extend(pu2("(1 3 4)"), mixed_template(2, 0, 2))
    assert not bad.verified
    with pytest.raises(DomainError):
        lambda_apply(bad, u())


@settings(deadline=None, max_examples=20)
@given(st.permutations(range(4)), st.permutations(range(4)))
def test_lambda_apply_multiplicative(p1, p2):
    endo = extend(pu2("(2 3)"), u(2))
    e1 = perm_unitary(2, tuple(p1)).element
    e2 = perm_unitary(2, tuple(p2)).element
    assert eq(lambda_apply(endo, e1 * e2),
              lambda_apply(endo, e1) * lambda_apply(endo, e2))


def test_automorphism_probe():
    res = automorphism_probe(pu2("id"))
    assert res.stabilized and res.stabilized_at == 1
    assert eq(res.witness, one())
    # f is its own inverse under lambda
    res = automorphism_probe(perm_unitary_from_element(f, 2))
    assert res.stabilized and res.stabilized_at == 1
    assert eq(res.witness, f)
    # lambda_F = phi is proper: the probe must not claim an automorphism
    res = automorphism_probe(pu2("(2 3)"), depth=5)
    assert not res.stabilized
    with pytest.raises(DomainError):
        automorphism_probe(pu2("id"), depth=1)


def test_probe_witness_inverts():
    # stabilization witness v satisfies lambda_v(lambda_u(x)) = x on generators
    pu = perm_unitary_from_element(f, 2)
    res = automorphism_probe(pu)
    endo_u = extend(pu, u().adjoint())
    assert endo_u.verified
    v = perm_unitary_from_element(res.witness)
    endo_v = extend(v, u().adjoint())
    assert endo_v.verified
    for text in ("S[1]", "S[2]"):
        e = parse_element(text)
        assert eq(lambda_apply(endo_v, lambda_apply(endo_u, e)), e)
