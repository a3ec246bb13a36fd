from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qu2.canrep import apply_basis
from qu2.errors import DomainError, ParseError
from qu2.element import (
    Element,
    add,
    adjoint_el,
    bd_v_factor,
    element_str,
    eq,
    flip_flop,
    from_json,
    is_unitary,
    membership,
    mul,
    normalize,
    one,
    parse_element,
    phi,
    putnam_form,
    scale,
    to_json,
    total_charge,
    u,
    zero,
)
from qu2.monomial import Monomial

words = st.lists(st.sampled_from((1, 2)), max_size=3).map(tuple)
monos = st.builds(Monomial, words, st.integers(-8, 8), words)
coeffs = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
).filter(lambda c: c != 0)
elements = st.lists(st.tuples(coeffs, monos), max_size=4).map(Element.from_terms)
indices = st.integers(-200, 200)

F = parse_element("P[11] + S[12] S*[21] + S[21] S*[12] + P[22]")
f = flip_flop()


def same_action(e1: Element, e2: Element, points) -> bool:
    return all(apply_basis(e1, n) == apply_basis(e2, n) for n in points)


def test_normalize_examples():
    # odd-charge identity: U = S_1 S_2* + S_2 U S_1*
    assert normalize(u(), 1) == parse_element("S[1] S*[2] + S[2] U S*[1]")
    # defining relation S_2 S_2* + S_1 S_1* = 1 at depth 1
    assert eq(parse_element("P[1] + P[2]"), one())
    # already canonical at its depth: unchanged
    assert normalize(F) == F
    with pytest.raises(DomainError):
        normalize(F, 1)


def test_eq_examples():
    assert eq(mul(u(), adjoint_el(u())), one())
    assert eq(mul(F, F), one())
    assert eq(u(), parse_element("S[1] S*[2] + S[2] U S*[1]"))
    assert not eq(u(), adjoint_el(u()))
    assert eq(mul(u(2), u(-1)), u())


@given(elements)
def test_eq_reflexive(e):
    assert eq(e, e)


@given(elements, elements)
def test_add_commutes(e1, e2):
    assert eq(add(e1, e2), add(e2, e1))


@given(elements)
def test_adjoint_involution(e):
    assert eq(adjoint_el(adjoint_el(e)), e)


@settings(deadline=None)
@given(elements, elements, st.lists(indices, min_size=3, max_size=6))
def test_mul_matches_composed_action(e1, e2, points):
    prod = mul(e1, e2)
    for n in points:
        image = {}
        for c, j in apply_basis(e2, n):
            for c2, i in apply_basis(e1, j):
                image[i] = image.get(i, 0) + c * c2
        image = sorted((i, c) for i, c in image.items() if c)
        assert sorted((i, c) for c, i in apply_basis(prod, n)) == image


@given(elements, st.integers(1, 3), st.lists(indices, min_size=3, max_size=5))
def test_normalize_preserves_action(e, extra, points):
    out = normalize(e, e.depth() + extra)
    assert out.depth() == e.depth() + extra or not out.terms
    assert same_action(e, out, points)


def test_is_unitary():
    assert is_unitary(F)
    assert is_unitary(u())
    assert is_unitary(f)
    assert not is_unitary(parse_element("S[2]"))
    assert not is_unitary(scale(Fraction(1, 2), u()))
    assert not is_unitary(add(u(), u()))


def test_membership():
    mf = membership(F)
    assert (mf.in_O2, mf.in_QT, mf.in_F2, mf.in_D2) == (True, True, True, False)
    mu = membership(u())
    assert (mu.in_O2, mu.in_QT) == (False, True)
    mp = membership(parse_element("P[12]"))
    assert (mp.in_O2, mp.in_QT, mp.in_F2, mp.in_D2) == (True,) * 4


def test_putnam_form():
    assert putnam_form(u()) == [(one(), 1)]
    mix = parse_element("S[2] U S*[2] + S[1] S*[1]")
    assert [(element_str(p), n) for p, n in putnam_form(mix)] == [
        ("P[1]", 0),
        ("P[2]", 2),
    ]
    # the tensor flip: translations by -1, 0, 1 on the three diagonal blocks
    assert [(element_str(p), n) for p, n in putnam_form(F)] == [
        ("P[12]", -1),
        ("P[11] + P[22]", 0),
        ("P[21]", 1),
    ]
    # the one-letter flip is P_2 U^-1 + P_1 U
    assert [(element_str(p), n) for p, n in putnam_form(f)] == [
        ("P[2]", -1),
        ("P[1]", 1),
    ]
    with pytest.raises(DomainError):
        putnam_form(parse_element("S[2]"))
    with pytest.raises(DomainError):
        # unitary with unevenly long legs: not gauge-invariant
        putnam_form(parse_element("S[1] S*[11] + S[21] S*[12] + S[22] S*[2]"))


@given(elements, st.lists(indices, min_size=4, max_size=8))
def test_putnam_form_recomposes(e, points):
    partition = parse_element("P[1] + P[2]")
    v = normalize(add(mul(mul(partition, e), partition), zero()))
    # build a gauge-invariant unitary out of whatever survives; skip junk
    cand = F if not is_unitary(v) or not membership(v).in_QT else v
    pairs = putnam_form(cand)
    recomposed = zero()
    for p, n in pairs:
        recomposed = add(recomposed, mul(p, u(n)))
    assert eq(recomposed, cand)
    assert eq(sum((p for p, _ in pairs), zero()), one())


def test_bd_v_factor():
    bd, v = bd_v_factor(F)
    assert eq(bd, one()) and eq(v, F)
    bd, v = bd_v_factor(normalize(u(), 1))
    assert element_str(bd) == "P[1] + S[2] U S*[2]"
    assert eq(v, f)
    assert eq(mul(bd, v), u())
    # diagonal case: v = 1
    d = parse_element("S[1] U^2 S*[1] + S[2] U^-3 S*[2]")
    bd, v = bd_v_factor(d)
    assert eq(bd, d) and eq(v, one())
    with pytest.raises(DomainError):
        bd_v_factor(parse_element("S[2]"))


def test_total_charge():
    assert total_charge(u()) == 1
    assert total_charge(u(-7)) == -7
    assert total_charge(F) == 0


def test_total_charge_expansion_invariant():
    # expand_right splits k into k' + k'' with k' + k'' = k, so the sum
    # of charges does not depend on the depth of the canonical form
    for e, want in [(u(2), 2), (u(-3), -3), (mul(F, u()), 1)]:
        assert [total_charge(normalize(e, e.depth() + d)) for d in range(4)] \
            == [want] * 4


def test_total_charge_additive():
    assert total_charge(mul(u(3), u(4))) == 7
    assert total_charge(mul(F, u(5))) == 5


def test_phi():
    assert eq(phi(one()), one())
    assert eq(phi(u()), parse_element("S[1] U S*[1] + S[2] U S*[2]"))
    # F implements phi on the generators: F S_i = phi(S_i)
    assert eq(mul(F, parse_element("S[1]")), phi(parse_element("S[1]")))
    assert eq(mul(F, parse_element("S[2]")), phi(parse_element("S[2]")))


def test_parser():
    assert parse_element("1") == one()
    assert parse_element("U^-4") == u(-4)
    assert eq(parse_element("3/2*P[1] + -1*U"), add(
        scale(Fraction(3, 2), parse_element("P[1]")), scale(-1, u())))
    assert eq(parse_element("U U"), u(2))
    assert eq(parse_element("S[1]S*[2]+S[2]S*[1]"), f)
    assert eq(parse_element("2"), scale(2, one()))
    assert parse_element("U - U") == zero()
    with pytest.raises(ParseError):
        parse_element("3/2 P[1]")  # coefficient needs '*'
    with pytest.raises(ParseError):
        parse_element("S[1")
    with pytest.raises(ParseError):
        parse_element("U +")


@given(elements)
def test_str_round_trip(e):
    assert parse_element(element_str(e)) == e


@given(elements)
def test_json_round_trip(e):
    assert from_json(to_json(e)) == e


def test_deterministic_output():
    e = parse_element("S[2] U S*[1] + P[1] + 1/2*U^-2")
    assert element_str(e) == element_str(parse_element(element_str(e)))
    assert element_str(zero()) == "0"


def test_package_root_constructors_are_elements():
    import qu2

    prod = qu2.s((1,)) * qu2.u() * qu2.s_star((1,))
    assert eq(prod, parse_element("S[1] U S*[1]"))
    assert eq(qu2.proj((2,)) + qu2.proj((1,)), qu2.one())
