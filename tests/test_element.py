import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import qu2.element
from qu2.canrep import DecoratedPermutative, apply_basis, semantic_eq
from qu2.errors import CapacityError, DomainError, ParseError
from qu2.element import (
    Element,
    _beta_groups,
    _expand,
    _first_difference,
    _leaf_cancels,
    _refine,
    _translates_terms,
    _unitary_terms,
    bd_v_factor,
    element_str,
    eq,
    flip_flop,
    from_json,
    in_w,
    is_unitary,
    membership,
    normalize,
    one,
    parse_element,
    phi,
    proj,
    putnam_form,
    s,
    s_star,
    to_json,
    total_charge,
    u,
    zero,
)
from qu2.endo import enumerate_extendible, mixed_template
from qu2.monomial import Monomial, expand_right, mono_mul, u_pow
from qu2.wgroup import (Diagram, from_element, group_inv, group_mul, reduce,
                        to_element)
from qu2.words import carets, decode, is_partition, offset, word_str

from helpers import SRC, time_limit
from test_wgroup import diagrams

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
    assert eq(u() * u().adjoint(), one())
    assert eq(F * F, one())
    assert eq(u(), parse_element("S[1] S*[2] + S[2] U S*[1]"))
    assert not eq(u(), u().adjoint())
    assert eq(u(2) * u(-1), u())


@given(elements)
def test_eq_reflexive(e):
    assert eq(e, e)


@given(elements, elements)
def test_add_commutes(e1, e2):
    assert eq(e1 + e2, e2 + e1)


@given(elements)
def test_adjoint_involution(e):
    assert eq(e.adjoint().adjoint(), e)


@settings(deadline=None)
@given(elements, elements, st.lists(indices, min_size=3, max_size=6))
def test_mul_matches_composed_action(e1, e2, points):
    prod = e1 * e2
    for n in points:
        image = {}
        for c, j in apply_basis(e2, n):
            for c2, i in apply_basis(e1, j):
                image[i] = image.get(i, 0) + c * c2
        image = sorted((i, c) for i, c in image.items() if c)
        assert sorted((i, c) for c, i in apply_basis(prod, n)) == image


long_words = st.lists(st.sampled_from((1, 2)), max_size=24).map(tuple)
numerators = st.integers(-3, 3).filter(bool)
# ints, integral Fractions, and Fractions over coprime or large denominators
product_coeffs = st.one_of(
    numerators,
    numerators.map(Fraction),
    st.builds(Fraction, numerators,
              st.sampled_from((2, 3, 7, 9, 1 << 20)) | st.integers(2, 1 << 20)))


@st.composite
def product_operands(draw):
    """Two elements whose words are cut from a few stems of up to 24
    letters and extended, so that most term pairs meet and the offsets
    run past a machine word's low bits; charges reach 2^40.  The partner
    is independent, -e1, e1* or meeting: its first alpha is e1's first
    beta.  Either element may carry its first term next to the two halves
    of that term's expansion, negated or not, and a meeting pair always
    does, so that products collide: their sums cancel, add up
    (1/2 + 1/2) to an integer, or cancel and come back later in the pair
    order."""
    stems = draw(st.lists(long_words, min_size=1, max_size=3))

    def word():
        w = draw(st.sampled_from(stems))
        w = w[:draw(st.integers(0, len(w)))]
        return w + draw(long_words)[:24 - len(w)]

    def element(first_alpha=None, halves=False):
        alphas = [word() if first_alpha is None else first_alpha]
        alphas += [word() for _ in range(4)]
        e = Element.from_terms(
            (draw(product_coeffs),
             Monomial(alpha, draw(st.integers(-2**40, 2**40)), word()))
            for alpha in alphas[:draw(st.integers(0, 5))])
        if e.terms and (halves or draw(st.booleans())):
            m, c = next(iter(e.terms.items()))
            c *= draw(st.sampled_from((-1, 1)))
            e = e + Element.from_terms((c, p) for p in expand_right(m))
        return e

    partner = draw(st.sampled_from(("independent", "meeting", "negated",
                                    "adjoint")))
    meeting = partner == "meeting"
    e1 = element(halves=meeting)
    if partner == "negated":
        return e1, -e1
    if partner == "adjoint":
        return e1, e1.adjoint()
    if meeting and e1.terms:
        return e1, element(next(iter(e1.terms)).beta, halves=True)
    return e1, element()


@settings(max_examples=300, deadline=None)
@given(product_operands())
def test_mul_matches_mono_mul_sum(operands):
    # the reference: mono_mul over the term pairs, collected in pair order
    e1, e2 = operands
    ref = Element.from_terms((c1 * c2, m)
                             for m1, c1 in e1.terms.items()
                             for m2, c2 in e2.terms.items()
                             for m in [mono_mul(m1, m2)] if m is not None)
    assert list((e1 * e2).terms.items()) == list(ref.terms.items())


@settings(max_examples=100, deadline=None)
@given(product_operands())
def test_built_terms_are_monomials(operands):
    # a plain tuple hashes and compares equal to a Monomial, so the tests
    # above would pass a constructor that dropped the type
    e1, e2 = operands
    built = list((e1 * e2).terms)
    for m in e1.terms:
        built += expand_right(m)
    for m in built:
        assert type(m) is Monomial
        assert (m.alpha, m.k, m.beta) == tuple(m)


def count_fractions(monkeypatch):
    """The argument tuples of every Fraction built from here on."""
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return built


def test_mul_fraction_budget(monkeypatch):
    # the product's pair loop works on ints: an integral product builds no
    # Fraction, a fractional one at most one per distinct coefficient
    wide = normalize(u(3), 6)
    cases = [(wide, wide.adjoint(), 0),
             (F, parse_element("P[1] + S[2] U S*[2]"), 0)]
    frac = wide.scale(Fraction(1, 3)) + normalize(u(), 6).scale(Fraction(-2, 7))
    for e1, e2 in [(frac, wide.adjoint().scale(Fraction(5, 9))),
                   (frac, frac.adjoint())]:
        assert len(e1.terms) * len(e2.terms) >= 8000
        cases.append((e1, e2, len(set((e1 * e2).terms.values()))))
    built = count_fractions(monkeypatch)
    for e1, e2, budget in cases:
        built.clear()
        (e1 * e2).terms
        assert len(built) <= budget


def test_terms_build_each_fraction_once_per_element(monkeypatch):
    # a fractional product's first read of terms makes each distinct
    # coefficient n/d once, an int when it is integral; later reads of the
    # same Element build nothing, and an equal product builds its own
    a, b = parse_element("1/2*U + 1/3*P[1]"), parse_element("2*U + 3*P[1]")
    built = count_fractions(monkeypatch)
    p = a * b
    first = p.terms
    assert sorted(built) == [(4, 6), (9, 6)]
    built.clear()
    assert p.terms == first and not built
    (a * b).terms
    assert sorted(built) == [(4, 6), (9, 6)]
    monkeypatch.undo()
    assert sorted(first.values()) == [Fraction(2, 3), 1, 1, Fraction(3, 2)]
    assert [type(c) for c in first.values() if c == 1] == [int, int]


def mono_mul_reference(e1, e2):
    """mono_mul over the term pairs, collected in pair order."""
    return Element.from_terms((c1 * c2, m)
                              for m1, c1 in e1.terms.items()
                              for m2, c2 in e2.terms.items()
                              for m in [mono_mul(m1, m2)] if m is not None)


def test_mul_on_re_expanded_operands():
    # a times a brought 2-6 letters deeper: 300+ terms whose words run
    # past the word table's 8 letters.  Every other a has int
    # coefficients, and then so has the product.  Every third a carries
    # one term next to its two halves, so that pairs share their terms.
    rng = random.Random(23)
    shared = distinct = 0
    for i in range(12):
        a = zero()
        while not a.terms:
            a = _random_element(rng, max_len=4, max_terms=8)
        if i % 2:
            a = Element({m: c.numerator * rng.choice((1, 2, 3))
                         for m, c in a.terms.items()})
        if i % 3 == 0:
            m, c = next(iter(a.terms.items()))
            a = a + Element.from_terms((c, half) for half in expand_right(m))
        deep = normalize(a, a.depth() + rng.randint(2, 6))
        while len(deep.terms) < 300:
            deep = normalize(deep, deep.depth() + 1)
        for e1, e2 in [(a, deep), (deep, a)]:
            got = list((e1 * e2).terms.items())
            assert got == list(mono_mul_reference(e1, e2).terms.items())
            assert all(type(m) is Monomial for m, _c in got)
            if i % 2:
                assert all(type(c) is int for _m, c in got)
            pairs = [m for m1 in e1.terms for m2 in e2.terms
                     for m in [mono_mul(m1, m2)] if m is not None]
            if len(set(pairs)) < len(pairs):
                shared += 1
            else:
                distinct += 1
    assert shared and distinct


def eager_product(e1, e2):
    """e1 * e2's term map as a product built it when it made its Fractions
    at once: mono_mul over the term pairs in pair order, summed as int
    numerators over d = d1 * d2 (each operand's lcm of denominators), then
    each sum n made the coefficient n/d, an int when it is integral."""
    d1 = lcm(*(c.denominator for c in e1.terms.values()))
    d2 = lcm(*(c.denominator for c in e2.terms.values()))
    acc = {}
    for m1, c1 in e1.terms.items():
        n1 = c1.numerator * (d1 // c1.denominator)
        for m2, c2 in e2.terms.items():
            m = mono_mul(m1, m2)
            if m is not None:
                new = acc.get(m, 0) + n1 * c2.numerator * (d2 // c2.denominator)
                if new:
                    acc[m] = new
                else:
                    acc.pop(m, None)
    d = d1 * d2
    return {m: n // d if n % d == 0 else Fraction(n, d) for m, n in acc.items()}


def typed_items(terms):
    """A term map's items in order, each with its coefficient's type."""
    return [(m, c, type(c)) for m, c in terms.items()]


def unread(e):
    """True iff e holds numerators over d != 1 whose terms are not built."""
    return e._d != 1 and e._terms is None


@settings(max_examples=200, deadline=None)
@given(product_operands(), st.sampled_from(("once", "left", "right")))
def test_filled_product_terms_match_the_eager_product(operands, chain):
    # order, values and types, also when an unread product is an operand
    e1, e2 = operands
    p, ref = e1 * e2, eager_product(e1, e2)
    if chain == "left":
        p, ref = p * e2, eager_product(Element(ref), e2)
    elif chain == "right":
        p, ref = e1 * p, eager_product(e1, Element(ref))
    assert typed_items(p.terms) == typed_items(ref)
    assert type(p) is Element and not unread(p)


def test_filled_product_terms_match_the_eager_product_on_random_pairs():
    rng = random.Random(28)
    fractional = 0
    for _ in range(300):
        a, b = _random_element(rng), _random_element(rng)
        if rng.random() < 0.3:
            b = Element({m: c.numerator for m, c in b.terms.items()})
        p, q = a * b, b * a
        fractional += unread(p)
        chained = p * q
        assert typed_items(p.terms) == typed_items(eager_product(a, b))
        assert typed_items(chained.terms) == typed_items(
            eager_product(Element(eager_product(a, b)),
                          Element(eager_product(b, a))))
    assert fractional > 150


LAZY_A = "1/2*U + 1/3*P[1] - 3/5*S[2] U S*[21] + S[12] U^-3 S*[1]"
LAZY_B = "2/7*S[1] U^3 + 1/11*P[2] - S*[12] + 5/6*S[21] U S*[2]"


def test_fractional_product_builds_no_fraction_until_read(monkeypatch):
    a, b = parse_element(LAZY_A), parse_element(LAZY_B)
    ref = eager_product(a, b)
    assert not unread(u() * u(2))  # an integral product's terms are its ints
    built = count_fractions(monkeypatch)
    p = a * b
    assert unread(p) and not built
    terms = p.terms
    assert built and not unread(p)
    built.clear()
    assert p.terms == terms and not built
    monkeypatch.undo()
    assert typed_items(terms) == typed_items(ref)


def test_product_readers_build_no_fraction(monkeypatch):
    # eq, *, element_str and to_json read an unread product's numerators
    a, b = parse_element(LAZY_A), parse_element(LAZY_B)
    deeper = normalize(a, 4)  # the operator a, other terms
    p_ref = Element(eager_product(a, b))
    # a term off p's longest beta: the walk finds the difference
    longest = max(_beta_groups(p_ref, zero())[0], key=len)
    off = p_ref + Element({Monomial((), 0, (3 - longest[0],)): Fraction(1, 3)})
    assert _leaf_cancels(_beta_groups(p_ref, off)[0], longest)

    def read(p, p_again, q, p_deeper, chain, chain_again):
        return [eq(p, p), eq(p, p_again), eq(p, p_deeper), eq(p, q),
                eq(p, zero()), eq(p, off), eq(chain, chain_again),
                element_str(p), to_json(q), element_str(chain),
                to_json(chain), repr(p), element_str(zero() * p)]

    expected = read(p_ref, p_ref, Element(eager_product(b, a)),
                    Element(eager_product(deeper, b)),
                    Element(eager_product(p_ref, b)),
                    Element(eager_product(a, Element(eager_product(b, b)))))
    assert expected[:6] == [True, True, True, False, False, False]
    p, p_deeper = a * b, deeper * b
    # eq(p, p_deeper) walks the trie
    assert (p._num, p._d) != (p_deeper._num, p_deeper._d)
    built = count_fractions(monkeypatch)
    operands = [p, a * b, b * a, p_deeper, p * b, a * (b * b)]
    got = read(*operands)
    assert not built
    assert all(map(unread, operands))
    monkeypatch.undo()
    assert got == expected
    assert typed_items(operands[4].terms) == \
        typed_items(eager_product(p_ref, b))


def test_unread_product_copies_and_pickles_its_numerators():
    a, b = parse_element(LAZY_A), parse_element(LAZY_B)
    p, ref = a * b, eager_product(a, b)
    copies = [copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))]
    assert unread(p) and all(map(unread, copies))
    for c in copies:
        assert typed_items(c.terms) == typed_items(ref)
    assert unread(p)
    # Elements built from maps: fractional, and ints beside Fractions
    mixed = Element({Monomial((1,), 2, ()): 3, Monomial((), 0, (2,)):
                     Fraction(1, 2), Monomial((), 1, ()): Fraction(4, 2)})
    for e in (a, mixed):
        ref = typed_items(e.terms)
        for c in (copy.copy(e), copy.deepcopy(e),
                  pickle.loads(pickle.dumps(e))):
            assert typed_items(c.terms) == ref
            assert c == e and eq(c, e)


def test_fraction_maps_multiply_and_compare_without_fractions(monkeypatch):
    # Elements built from Fraction maps, as the benchmark builds them: their
    # terms equal the maps passed in, and eq and * read their numerators
    rng = random.Random(29)
    maps = [_random_element(rng).terms for _ in range(40)]
    maps = [{m: Fraction(c) for m, c in f.items()} for f in maps]
    assert sum(c.denominator != 1 for f in maps for c in f.values()) > 150
    elements = [Element(f) for f in maps]
    assert all(e.terms == f for e, f in zip(elements, maps))
    refs = [(eager_product(a, b), eager_product(b, a), semantic_eq(a, b))
            for a, b in zip(elements[::2], elements[1::2])]
    built = count_fractions(monkeypatch)
    got = []
    for a, b in zip(elements[::2], elements[1::2]):
        p, q = a * b, b * a
        got.append((p, q, eq(a, b), eq(p, q), eq(a, a), eq(p, p * one())))
    assert not built
    monkeypatch.undo()
    for (p, q, verdict, same, *trivial), (ref_p, ref_q, want) in zip(got, refs):
        assert (verdict, same, trivial) == (want, eq(Element(ref_p),
                                                     Element(ref_q)),
                                            [True, True])
        assert typed_items(p.terms) == typed_items(ref_p)
        assert typed_items(q.terms) == typed_items(ref_q)
    assert all(e.terms == f for e, f in zip(elements, maps))


def test_product_of_orthogonal_fractional_terms_is_the_canonical_zero():
    # d1 * d2 = 6, and every term pair is orthogonal or cancels: the empty
    # map is held over d = 1, as zero() is
    cases = [parse_element("1/2*S*[1]") * parse_element("1/3*S[2]"),
             parse_element("1/2*S*[1] + 1/2*S*[2]") * parse_element(
                 "1/3*S[1] - 1/3*S[2]"),
             parse_element("1/2*S*[12]") * parse_element("1/3*S[11] + S[2]")]
    cases.append(parse_element("1/2*U") * parse_element("S*[1]")
                 - parse_element("1/2*U S*[1]"))
    for p in cases:
        for z in (zero(), Element({})):
            assert eq(p, z) and eq(z, p)
            assert p == z and z == p
        assert not p
        assert element_str(p) == "0" and to_json(p) == "[]"
        assert p.terms == {} and p.depth() == 0
        assert eq(p * parse_element("1/5*U"), zero())


@given(elements, st.integers(1, 3), st.lists(indices, min_size=3, max_size=5))
def test_normalize_preserves_action(e, extra, points):
    out = normalize(e, e.depth() + extra)
    assert out.depth() == e.depth() + extra or not out.terms
    assert same_action(e, out, points)


ROTATION = "3/5*P[1] + 4/5*S[1] S*[2] - 4/5*S[2] S*[1] + 3/5*P[2]"


def test_is_unitary():
    assert is_unitary(F)
    assert is_unitary(u())
    assert is_unitary(f)
    assert not is_unitary(parse_element("S[2]"))
    assert not is_unitary(u().scale(Fraction(1, 2)))
    assert not is_unitary(u() + u())
    # e* e = 1 = e e*, though no refined form is a coefficient-1 tree pair
    for text in ["-1*U", "P[1] - P[2]", ROTATION, "-1",
                 "S[1] S*[2] - S[2] S*[1]"]:
        e = parse_element(text)
        assert is_unitary(e) and not in_w(e), text
        assert eq(e.adjoint() * e, one()) and eq(e * e.adjoint(), one())
    # near misses: a coefficient off by a factor, an isometry that is not
    # onto, a co-isometry, one sign of a rotation block flipped
    for text in ["2*U", "3/5*P[1] - P[2]", "-1*S[2]", "-1*S*[2]", "0",
                 ROTATION.replace("- 4/5", "+ 4/5"), "P[1] - P[2] + P[11]"]:
        assert not is_unitary(parse_element(text)), text
    assert in_w(u()) and in_w(F) and not in_w(zero())
    # 8,192 terms: a tree pair of W answers with no product, anything else
    # needs one of 2^26 term pairs, past the cap
    wide = normalize(u(), 13)
    assert is_unitary(wide)
    with pytest.raises(CapacityError):
        is_unitary(-wide)


def _signed_diagonal(rng):
    """d = sum of +-P_a over the leaves a of a random tree, and its leaves."""
    leaves = [m.alpha for m in to_element(_random_diagram(rng)).terms]
    return Element({Monomial(a, 0, a): rng.choice((1, -1))
                    for a in leaves}), leaves


def test_signed_tree_pairs_are_unitary():
    # d w with d a +-1 diagonal and w in W normalizes the diagonal: the
    # oracle maps each e_n to +-e_m, one to one.  One sign set to 3/5, or
    # the product doubled, is no unitary; a rotation block spliced in
    # over two sibling leaves is one.
    rng = random.Random(31)
    points = range(-40, 40)
    signed = 0
    for _ in range(150):
        d, leaves = _signed_diagonal(rng)
        w = to_element(_random_diagram(rng))
        e = _expand_some(rng, d * w if rng.random() < 0.5 else w * d)
        images = [apply_basis(e, n) for n in points]
        assert all(len(img) == 1 and abs(img[0][0]) == 1 for img in images)
        assert len({img[0][1] for img in images}) == len(points)
        assert is_unitary(e), e
        negative = -1 in d.terms.values()
        assert in_w(e) == (not negative), e
        signed += negative
        a = rng.choice(leaves)
        pa = Monomial(a, 0, a)
        near = Element({**d.terms, pa: Fraction(3, 5)})
        assert not is_unitary(near * w), near
        assert not is_unitary(e.scale(2))
        x1, x2 = a + (1,), a + (2,)
        block = Element({Monomial(x1, 0, x1): Fraction(3, 5),
                         Monomial(x1, 0, x2): Fraction(4, 5),
                         Monomial(x2, 0, x1): Fraction(-4, 5),
                         Monomial(x2, 0, x2): Fraction(3, 5)})
        rotated = d - Element.mono(pa, d.terms[pa]) + block
        assert is_unitary(rotated * w) and not in_w(rotated * w)
    assert signed >= 100


def test_membership():
    mf = membership(F)
    assert (mf.in_O2, mf.in_QT, mf.in_F2, mf.in_D2) == (True, True, True, False)
    mu = membership(u())
    assert (mu.in_O2, mu.in_QT) == (False, True)
    mp = membership(parse_element("P[12]"))
    assert (mp.in_O2, mp.in_QT, mp.in_F2, mp.in_D2) == (True,) * 4
    # the charged terms cancel only once U is split: the flip-flop
    mc = membership(parse_element("U - S[2] U S*[1] + S[2] S*[1]"))
    assert (mc.in_O2, mc.in_QT, mc.in_F2, mc.in_D2) == (True, True, True, False)


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
    v = normalize(partition * e * partition + zero())
    # build a gauge-invariant unitary out of whatever survives; skip junk
    cand = F if not in_w(v) or not membership(v).in_QT else v
    pairs = putnam_form(cand)
    recomposed = zero()
    for p, n in pairs:
        recomposed = recomposed + p * u(n)
    assert eq(recomposed, cand)
    assert eq(sum((p for p, _ in pairs), zero()), one())


def test_bd_v_factor():
    bd, v = bd_v_factor(F)
    assert eq(bd, one()) and eq(v, F)
    bd, v = bd_v_factor(normalize(u(), 1))
    assert element_str(bd) == "P[1] + S[2] U S*[2]"
    assert eq(v, f)
    assert eq(bd * v, u())
    # diagonal case: v = 1
    d = parse_element("S[1] U^2 S*[1] + S[2] U^-3 S*[2]")
    bd, v = bd_v_factor(d)
    assert eq(bd, d) and eq(v, one())
    with pytest.raises(DomainError):
        bd_v_factor(parse_element("S[2]"))


# -- putnam_form's self-check, decided on words ------------------------------

def _is_partition_of_unity(pairs):
    """True iff sum_j p_j = 1 and sum_j U^-n_j p_j U^n_j = 1 for pairs
    (sum of projections p_j, exponent n_j).  U^-n S_a = S_a'' U^q with
    t(a'') = (t(a) - n) mod 2^|a|, so U^-n P_a U^n = P_a'', and a sum of
    projections P_w is 1 iff the words w form a partition: the reference
    for putnam_form's self-check, _translates_terms."""
    words = [(m.alpha, n) for p, n in pairs for m in p.terms]
    return (is_partition(a for a, _n in words)
            and is_partition(decode(len(a), (offset(a) - n) % (1 << len(a)))
                             for a, n in words))


def element_product_check(pairs):
    """sum_j p_j = 1 and sum_j U^-n_j p_j U^n_j = 1, decided by Element
    products and eq: the reference for _is_partition_of_unity."""
    if not eq(Element.from_terms((1, m) for p, _n in pairs for m in p.terms),
              one()):
        return False
    shifted = zero()
    for p, n in pairs:
        shifted = shifted + u(-n) * p * u(n)
    return eq(shifted, one())


def test_translated_projection_is_a_projection():
    # U^-n P_a U^n = P_a'' with t(a'') = (t(a) - n) mod 2^|a|
    rng = random.Random(16)
    cases = [tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 10)))
             for _ in range(150)]
    cases.append(tuple(rng.choice((1, 2)) for _ in range(64)))
    for a in cases:
        for n in (rng.randint(-1 << 12, 1 << 12), 1 << 12, -1 << 12):
            moved = decode(len(a), (offset(a) - n) % (1 << len(a)))
            assert eq(u(-n) * proj(a) * u(n), proj(moved)), (a, n)


@settings(max_examples=150, deadline=None)
@given(diagrams(), st.data())
def test_partition_of_unity_matches_element_products(d, data):
    pairs = putnam_form(bd_v_factor(to_element(d))[0])
    assert _is_partition_of_unity(pairs) and element_product_check(pairs)
    # one exponent shifted by +-1: the translated group is a partition of
    # unity again only when it is the whole of it
    j = data.draw(st.integers(0, len(pairs) - 1))
    step = data.draw(st.sampled_from((1, -1)))
    shifted = list(pairs)
    shifted[j] = (pairs[j][0], pairs[j][1] + step)
    assert (_is_partition_of_unity(shifted) == element_product_check(shifted)
            == (len(pairs) == 1))
    # one projection dropped
    p, n = pairs[j]
    dropped = list(pairs)
    dropped[j] = (Element(dict(sorted(p.terms.items())[1:])), n)
    assert not _is_partition_of_unity(dropped)
    assert not element_product_check(dropped)


def test_partition_of_unity_accepts_exponents_off_by_a_period():
    # U^-n P_a U^n depends on n only mod 2^|a|, so neither check sees it
    pairs = putnam_form(F)  # P[12] at -1, P[11] + P[22] at 0, P[21] at 1
    pairs[0] = (pairs[0][0], pairs[0][1] + 4)
    assert _is_partition_of_unity(pairs) and element_product_check(pairs)


@settings(max_examples=60, deadline=None)
@given(diagrams())
def test_putnam_form_builds_no_product(d):
    bd = bd_v_factor(to_element(d))[0]
    want = putnam_form(bd)

    def refuse(*_args, **_kwargs):
        raise AssertionError("putnam_form went through Element products")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Element, "__mul__", refuse)
        mp.setattr(qu2.element, "eq", refuse)
        mp.setattr(qu2.element, "u", refuse)
        assert putnam_form(bd) == want


@settings(max_examples=150, deadline=None)
@given(diagrams(), st.data())
def test_putnam_self_check_refuses_mutated_answers(d, data):
    bd = bd_v_factor(to_element(d))[0]
    f = _unitary_terms(bd, "test")
    pairs = putnam_form(bd)
    assert _translates_terms(pairs, f)
    j = data.draw(st.integers(0, len(pairs) - 1))
    p, n = pairs[j]
    # an exponent shifted by +-1 moves the translate of every word of its
    # group with a letter; a word of none (P_e = 1) is its own translate
    step = data.draw(st.sampled_from((1, -1)))
    shifted = pairs[:j] + [(p, n + step)] + pairs[j + 1:]
    dropped = pairs[:j] + [(Element(dict(sorted(p.terms.items())[1:])), n)] \
        + pairs[j + 1:]
    again = data.draw(st.sampled_from(sorted(p.terms)))
    duplicated = pairs + [(Element({again: 1}), n)]
    assert _translates_terms(shifted, f) == (not any(m.alpha for m in p.terms))
    assert not _translates_terms(dropped, f)
    assert not _translates_terms(duplicated, f)
    # no weaker than the reference: what passes is a partition of unity
    for mutated in (shifted, dropped, duplicated):
        if _translates_terms(mutated, f):
            assert _is_partition_of_unity(mutated)


def test_putnam_self_check_raises_under_optimization():
    # the self-check is an explicit raise, so python -O keeps it
    code = ("import qu2.element as E\n"
            "E._translates_terms = lambda pairs, f: False\n"
            "try:\n"
            "    E.putnam_form(E.flip_flop())\n"
            "except AssertionError as exc:\n"
            "    print('refused:', exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout
    assert out.startswith("refused: putnam_form")


# -- _unitary_terms: the stored map when it is already refined ---------------

def reference_unitary_terms(e, what):
    """Refine, then check both word families: the rule _unitary_terms
    decides without refining a stored tree pair."""
    f = _refine(e).terms
    if not (f and all(c == 1 for c in f.values())
            and is_partition(m.alpha for m in f)
            and is_partition(m.beta for m in f)):
        raise DomainError(f"{what} requires a coefficient-1 tree-pair "
                          f"unitary of W")
    return f


def _outcome(rule, e):
    try:
        return True, rule(e, "a test").keys()
    except DomainError as exc:
        return False, str(exc)


def _unitary_terms_cases(rng):
    """Tree pairs (reduced and not, some re-expanded), their re-expansions
    written with a stored beta over its children (coefficient 2 on the
    parent, -1 on each child), and near misses: a child added, one
    coefficient 2, an alpha split over one beta, a dropped leaf, a beta
    word moved onto another, a random element, the empty element."""
    d = _random_diagram(rng, max_leaves=8)
    w = to_element(d if rng.random() < 0.5 else reduce(d))
    yield w
    w = _expand_some(rng, w)
    yield w
    items = list(w.terms.items())
    m, _c = rng.choice(items)
    halves = expand_right(m)
    yield w + Element({m: 1, halves[0]: -1, halves[1]: -1})
    yield w + Element.mono(rng.choice(halves))
    yield w + Element.mono(m)
    # m's alpha split in two over m's beta: both alphas and the set of betas
    # are partitions, but one beta is repeated
    a, k, b = m
    yield w - Element.mono(m) + Element({Monomial(a + (1,), k, b): 1,
                                         Monomial(a + (2,), -k, b): 1})
    if len(items) > 1:
        yield Element(dict(items[1:]))
        (a, k, _b), (_a2, _k2, b2) = rng.sample(list(w.terms), 2)
        terms = dict(w.terms)
        del terms[Monomial(a, k, _b)]
        terms[Monomial(a, k, b2)] = 1
        yield Element(terms)
    yield _random_element(rng, max_terms=6)
    yield zero()


def test_unitary_terms_match_refining_first():
    rng = random.Random(22)
    cases = unitary = not_prefix_free = 0
    for _ in range(300):
        for e in _unitary_terms_cases(rng):
            cases += 1
            betas = {m.beta for m in e.terms}
            refined = carets(betas).isdisjoint(betas)
            not_prefix_free += not refined
            got = _outcome(_unitary_terms, e)
            assert got == _outcome(reference_unitary_terms, e), e
            if got[0]:
                unitary += 1
                # a stored map that is already refined is returned, not copied
                assert (_unitary_terms(e, "a test") is e._num) == refined, e
    assert cases >= 2000
    assert unitary >= 850 and cases - unitary >= 1500
    assert not_prefix_free >= 600


def test_readers_leave_the_stored_terms_alone():
    # a stored tree pair, its charge-free factor, and the same operator with
    # a stored beta over its children, which is refined into a new map
    rng = random.Random(23)
    for _ in range(100):
        e = _expand_some(rng, to_element(_random_diagram(rng)))
        m = rng.choice(list(e.terms))
        halves = expand_right(m)
        for x in (e, bd_v_factor(e)[1],
                  e + Element({m: 1, halves[0]: -1, halves[1]: -1})):
            before = dict(x.terms)
            assert is_unitary(x)
            total_charge(x)
            bd, v = bd_v_factor(x)
            bd_before = dict(bd.terms)
            pairs = putnam_form(bd)
            d = from_element(x)
            dp = DecoratedPermutative.from_element(x)
            assert x.terms == before and bd.terms == bd_before
            assert bd._num is not x._num and v._num is not x._num
            assert all(p._num is not bd._num for p, _n in pairs)


def test_total_charge():
    assert total_charge(u()) == 1
    assert total_charge(u(-7)) == -7
    assert total_charge(F) == 0
    # S[1] S*[2] + S[2] U^3 S*[1] once U is split
    assert total_charge(parse_element("U - S[2] U S*[1] + S[2] U^3 S*[1]")) == 3


def test_total_charge_expansion_invariant():
    # expand_right splits k into k' + k'' with k' + k'' = k, so the sum
    # of charges does not depend on the depth of the canonical form
    for e, want in [(u(2), 2), (u(-3), -3), (F * u(), 1)]:
        assert [total_charge(normalize(e, e.depth() + d)) for d in range(4)] \
            == [want] * 4


def test_total_charge_additive():
    assert total_charge(u(3) * u(4)) == 7
    assert total_charge(F * u(5)) == 5


def test_phi():
    assert eq(phi(one()), one())
    assert eq(phi(u()), parse_element("S[1] U S*[1] + S[2] U S*[2]"))
    # F implements phi on the generators: F S_i = phi(S_i)
    assert eq(F * parse_element("S[1]"), phi(parse_element("S[1]")))
    assert eq(F * parse_element("S[2]"), phi(parse_element("S[2]")))


def test_parser():
    assert parse_element("1") == one()
    assert parse_element("U^-4") == u(-4)
    assert eq(parse_element("3/2*P[1] + -1*U"),
              parse_element("P[1]").scale(Fraction(3, 2)) + u().scale(-1))
    assert eq(parse_element("U U"), u(2))
    assert eq(parse_element("S[1]S*[2]+S[2]S*[1]"), f)
    assert eq(parse_element("2"), one().scale(2))
    assert parse_element("U - U") == zero()
    with pytest.raises(ParseError):
        parse_element("3/2 P[1]")  # coefficient needs '*'
    with pytest.raises(ParseError):
        parse_element("S[1")
    with pytest.raises(ParseError):
        parse_element("U +")
    # '-' joins terms and '*' joins factors; 'U*' is one factor, U's adjoint
    assert parse_element("U*U") == one()
    assert parse_element("U * U") == parse_element("U U") == u(2)
    assert parse_element("S[1]*S[2]") == s((1, 2))
    assert parse_element("S[1] - S[1]") == zero()


def test_over_long_numbers_are_parse_errors_at_their_position():
    nines = "9" * 5000
    for text, pos in ((f"U^{nines}", 2), (f"U^-{nines}", 2), (f"{nines}*U", 0),
                      (f"1/{nines}*U", 2), (f"S[1] + U^{nines}", 9)):
        with pytest.raises(ParseError, match="number over") as exc:
            parse_element(text)
        assert exc.value.pos == pos, text[:12]


def test_parsed_coefficients_are_int_unless_a_slash_is_written():
    ints = parse_element("P[1] + 2*P[2] - U").terms
    assert sorted(ints.values()) == [-1, 1, 2]
    assert all(type(c) is int for c in ints.values())
    (half,) = parse_element("1/2*U").terms.values()
    assert type(half) is Fraction and half == Fraction(1, 2)


@given(elements)
def test_str_round_trip(e):
    assert parse_element(element_str(e)) == e


# int or non-integral Fraction coefficients, so each keeps its type through
# the text; distinct monomials, so no two terms merge on the way in
typed_coeffs = st.one_of(st.integers(-3, 3).filter(bool),
                         coeffs.filter(lambda c: c.denominator != 1))
typed_elements = st.dictionaries(monos, typed_coeffs, max_size=4).map(Element)


def spelled(e: Element) -> str:
    """e in the grammar's other spellings: '-' before negative terms, '*'
    between factors, U* for U^-1 and 'e' for every empty word."""
    parts = []
    for (alpha, k, beta), c in e.sorted_terms():
        charge = "U*" if k == -1 else f"U^{k}"
        body = f"S[{word_str(alpha)}]*{charge}*S*[{word_str(beta)}]"
        parts.append(f"{'-' if c < 0 else '+'} {abs(c)}*{body}")
    return " ".join(parts) or "0"


@given(typed_elements)
def test_text_round_trip_keeps_terms_and_coefficient_types(e):
    for text in (element_str(e), spelled(e)):
        back = parse_element(text)
        assert back == e, text
        assert {m: type(c) for m, c in back.terms.items()} == \
            {m: type(c) for m, c in e.terms.items()}, text


@given(elements)
def test_json_round_trip(e):
    assert from_json(to_json(e)) == e


def test_json_round_trip_of_an_unread_product():
    a, b = parse_element(LAZY_A), parse_element(LAZY_B)
    p = a * b
    assert from_json(to_json(p)) == Element(eager_product(a, b))
    assert unread(p)


def test_from_json_reads_ints_and_rational_strings():
    e = from_json('[{"coeff": -2, "alpha": "12", "k": -3, "beta": ""}, '
                  '{"coeff": " 3/4 "}, {"coeff": "0.25", "beta": "2"}, {}]')
    assert element_str(e) == "7/4 + 1/4*S*[2] + -2*S[12] U^-3"
    # an integral coefficient is read as the parser reads it: an int
    for text in ('[{"coeff": 2}]', '[{"coeff": "2"}]', '[{"coeff": " 2.0 "}]',
                 '[{"coeff": "4/2"}]', '[{}, {}]'):
        terms = from_json(text).terms
        assert terms == parse_element("2").terms, text
        assert [type(c) for c in terms.values()] == [int], text


@pytest.mark.parametrize("text, message", [
    ('[{"k": 1.5}]', "k must be a JSON integer, not 1.5"),
    ('[{"k": 2.0}]', "k must be a JSON integer, not 2.0"),
    ('[{"k": true}]', "k must be a JSON integer, not true"),
    ('[{"k": "a"}]', "k must be a JSON integer, not a string"),
    ('[{"k": null}]', "k must be a JSON integer, not null"),
    ('[1]', "each row of element JSON must be an object"),
    ('[[{"k": 1}]]', "each row of element JSON must be an object"),
    ('[{"alpha": 12}]', "alpha and beta must be strings"),
    ('[{"beta": ["1"]}]', "alpha and beta must be strings"),
    ('[{"alpha": "13"}]', "bad letter '3'"),
    ('[{"coeff": "x"}]', "bad coefficient 'x'"),
    ('[{"coeff": "1/0"}]', "bad coefficient '1/0'"),
    ('[{"coeff": "1e999999999"}]', "bad coefficient '1e999999999'"),
    ('[{"coeff": 0.5}]', "not 0.5"),
    ('[{"coeff": false}]', "not false"),
    ('{"coeff": "1"}', "element JSON must be an array"),
    ('[{"k": ' + "9" * 5000 + '}]', "bad JSON"),
])
def test_from_json_refuses_what_is_not_integral_or_rational(text, message):
    # no truncation (1.5 read as 1) and no raw error
    with pytest.raises(ParseError) as exc:
        from_json(text)
    assert message in str(exc.value)


def test_deterministic_output():
    e = parse_element("S[2] U S*[1] + P[1] + 1/2*U^-2")
    assert element_str(e) == element_str(parse_element(element_str(e)))
    assert element_str(zero()) == "0"


def test_package_root_constructors_are_elements():
    import qu2

    prod = qu2.s((1,)) * qu2.u() * qu2.s_star((1,))
    assert eq(prod, parse_element("S[1] U S*[1]"))
    assert eq(qu2.proj((2,)) + qu2.proj((1,)), qu2.one())


# -- an Element is a value --------------------------------------------------

value_coeffs = st.one_of(st.integers(-3, 3), coeffs, st.just(Fraction(0)),
                         st.integers(-3, 3).map(Fraction))
value_maps = st.dictionaries(monos, value_coeffs, max_size=4)


@settings(max_examples=200, deadline=None)
@given(value_maps, st.sampled_from(("independent", "reordered", "deeper")),
       st.data())
def test_an_element_owns_its_coefficients(m1, partner, data):
    # every map passed to Element is changed afterwards, and every terms
    # read back refuses a write; the Elements keep the values they were
    # built with, and eq and the oracle still agree
    if partner == "independent":
        m2 = data.draw(value_maps)
    elif partner == "reordered":
        m2 = dict(reversed(m1.items()))
    else:
        e = Element(m1)
        m2 = dict(normalize(e, e.depth() + 1).terms)
    passed = [m1, m2]
    snapshot = [{m: c for m, c in f.items() if c} for f in passed]
    e1, e2 = Element(m1), Element(m2)
    for f in passed:
        if f:
            f[data.draw(st.sampled_from(sorted(f)))] = Fraction(7, 3)
        f[Monomial((1,), 5, (2,))] = 1
    for e in (e1, e2, e1 * e2, e1 - e2, normalize(e1, e1.depth() + 1)):
        t = e.terms
        m = next(iter(t), u_pow(1))
        with pytest.raises(TypeError):
            t[m] = Fraction(7, 3)
        with pytest.raises(TypeError):
            del t[m]
    assert [e1.terms, e2.terms] == snapshot
    verdict = eq(e1, e2)
    assert verdict == semantic_eq(e1, e2)
    assert verdict == (partner != "independent" or
                       eq(Element(snapshot[0]), Element(snapshot[1])))


def test_zero_coefficients_are_dropped_and_other_types_refused():
    U, U2 = u_pow(1), u_pow(2)
    for z in (Element({U: 0}), Element({U: Fraction(0)}), Element.mono(U, 0),
              u().scale(0)):
        assert not z and z == zero() and eq(z, zero())
        assert element_str(z) == "0" and z.terms == {}
    assert in_w(Element({U: 1, U2: 0}))
    for make in (lambda: Element({U: 0.5}), lambda: u().scale(0.5),
                 lambda: Element({U: 0.0}), lambda: Element({U: "1"}),
                 lambda: Element.mono(U, 0.5)):
        with pytest.raises(DomainError, match="int or a Fraction"):
            make()


def test_an_integral_coefficient_is_an_int():
    P1 = Monomial((1,), 0, (1,))
    half = parse_element("1/2*P[1]")
    for e in (Element({P1: Fraction(4, 2)}), parse_element("4/2*P[1]"),
              from_json('[{"coeff": "4/2", "alpha": "1", "beta": "1"}]'),
              half * parse_element("4*P[1]"), half + half.scale(3),
              -Element({P1: Fraction(-2)})):
        (c,) = e.terms.values()
        assert c == 2 and type(c) is int, e
    # the witness of eq --explain follows the same rule
    a, b = parse_element("3/2*P[1] + 1/2*P[2]"), parse_element("1/2*P[1]")
    m, c = _first_difference(a, b)
    assert (m, c) == (P1, 1) and type(c) is int
    assert type((a - b).terms[m]) is int


def test_no_benchmark_op_reads_terms(monkeypatch):
    # eq and * on criterion 6's pairs, the diagram ops of criteria 7 and 8,
    # and the brute sweep of criterion 3's templates read numerators and
    # leaf maps only
    rng = random.Random(34)
    pairs = [_random_pair(rng) for _ in range(500)]
    triples = [[_random_diagram(rng) for _ in range(3)] for _ in range(300)]
    templates = [u(4), u(-4)] + [mixed_template(3, h, variant)
                                 for h in (0, 1) for variant in (1, 2)]

    def refuse(_e):
        raise AssertionError("Element.terms was read")

    monkeypatch.setattr(Element, "terms", property(refuse))
    for a, b in pairs:
        eq(a, b), a * b
    for d1, d2, d3 in triples:
        group_mul(group_mul(d1, d2), d3)
        group_mul(d1, group_inv(d1))
        bd, _v = bd_v_factor(to_element(d1))
        putnam_form(bd)
    found = [len(enumerate_extendible(3, t, mode="brute")) for t in templates]
    assert found == [24, 24, 4, 4, 4, 4]


# -- refined forms against the uniform-depth canonical form -------------------
#
# eq, in_w, membership and total_charge read the common refinement of
# the beta words.  The reference is the uniform-depth form: every term
# rewritten with its beta at the longest depth present.

def uniform_eq(e1, e2):
    depth = max(e1.depth(), e2.depth())
    return normalize(e1, depth).terms == normalize(e2, depth).terms


def uniform_is_unitary(e):
    f = normalize(e).terms
    return bool(f) and all(c == 1 for c in f.values()) \
        and is_partition([m.alpha for m in f]) \
        and is_partition([m.beta for m in f])


def uniform_membership(e):
    f = list(normalize(e).terms)
    in_o2 = all(m.k == 0 for m in f)
    in_qt = all(len(m.alpha) == len(m.beta) for m in f)
    in_d2 = in_o2 and in_qt and all(m.alpha == m.beta for m in f)
    return (in_o2, in_qt, in_o2 and in_qt, in_d2)


def flags(e):
    mf = membership(e)
    return (mf.in_O2, mf.in_QT, mf.in_F2, mf.in_D2)


def _random_element(rng, max_len=6, max_terms=16, max_charge=32):
    """Criterion 6's elements: up to 16 terms, words of up to 6 letters,
    charges in [-32, 32], small rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, max_len)))
        beta = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, max_len)))
        m = Monomial(alpha, rng.randint(-max_charge, max_charge), beta)
        c = terms.get(m, 0) + Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4)))
        if c:
            terms[m] = c
        else:
            terms.pop(m, None)
    return Element(terms)


def _expand_some(rng, e, max_steps=3):
    """The same operator with some terms split a random number of times
    along random branches, so its betas have uneven depths."""
    out = []
    for m, c in e.terms.items():
        stack = [(m, rng.randint(0, max_steps))]
        while stack:
            cur, steps = stack.pop()
            if steps and rng.random() < 0.7:
                stack.extend((half, steps - 1) for half in expand_right(cur))
            else:
                out.append((c, cur))
    return Element.from_terms(out)


def _perturbed(rng, e):
    items = dict(e.terms)
    m = rng.choice(list(items))
    items[m] += Fraction(1, 5)
    return Element.from_terms((c, m) for m, c in items.items())


def _random_pair(rng):
    a = _random_element(rng)
    roll = rng.random()
    if roll < 0.2:
        return a, normalize(a, min(a.depth() + rng.randint(0, 2), 6))
    if roll < 0.35:
        return a, _expand_some(rng, a)
    if roll < 0.45:
        items = list(a.terms.items())
        rng.shuffle(items)
        return a, Element(dict(items))
    if roll < 0.6 and a.terms:
        return a, _perturbed(rng, _expand_some(rng, a))
    return a, _random_element(rng)


def test_eq_matches_uniform_depth_on_random_pairs():
    rng = random.Random(4)
    verdicts = []
    for _ in range(1500):
        a, b = _random_pair(rng)
        verdict = eq(a, b)
        assert verdict == uniform_eq(a, b), (a, b)
        assert eq(b, a) == verdict
        verdicts.append(verdict)
    assert 400 < sum(verdicts) < 1100


@given(elements, elements, st.randoms(use_true_random=False))
def test_eq_matches_uniform_depth(e1, e2, rnd):
    assert eq(e1, e2) == uniform_eq(e1, e2)
    e3 = _expand_some(rnd, e1)
    assert eq(e1, e3) and uniform_eq(e1, e3)
    assert eq(e1 + e2, e3) == uniform_eq(e1 + e2, e3)


def _random_diagram(rng, max_leaves=6, max_charge=8):
    def tree(n):
        if n == 1:
            return 0
        cut = rng.randint(1, n - 1)
        return (tree(cut), tree(n - cut))
    n = rng.randint(1, max_leaves)
    return Diagram(tree(n), tree(n), tuple(rng.sample(range(n), n)),
                   tuple(rng.randint(-max_charge, max_charge) for _ in range(n)))


def _unitary_candidates(rng):
    """Unitaries (diagram elements and their products with powers of U,
    re-expanded unevenly) and near misses (one term dropped, doubled,
    perturbed, or a random element)."""
    w = to_element(_random_diagram(rng))
    if rng.random() < 0.5:
        w = u(rng.randint(-4, 4)) * w * to_element(_random_diagram(rng))
    w = _expand_some(rng, w)
    yield w
    items = list(w.terms.items())
    if len(items) > 1:
        yield Element(dict(items[1:]))
    yield w + Element.mono(items[0][0])
    yield _perturbed(rng, w)
    yield _random_element(rng, max_terms=6)


def test_unitary_membership_charge_match_uniform_depth():
    rng = random.Random(5)
    unitaries = 0
    for _ in range(400):
        for e in _unitary_candidates(rng):
            tree_pair = in_w(e)
            assert tree_pair == uniform_is_unitary(e), e
            assert flags(e) == uniform_membership(e), e
            if tree_pair:
                unitaries += 1
                assert total_charge(e) == sum(m.k for m in normalize(e).terms)
    assert unitaries >= 400


def test_structural_readers_match_uniform_depth():
    # putnam_form, bd_v_factor and from_element read the refined form; fed
    # normalize(e), which refining leaves as it is, they give the
    # uniform-depth answer
    rng = random.Random(7)
    unitaries = 0
    for _ in range(400):
        for e in _unitary_candidates(rng):
            if not in_w(e):
                continue
            unitaries += 1
            uniform = normalize(e)
            assert reduce(from_element(e)) == reduce(from_element(uniform)), e
            bd, v = bd_v_factor(e)
            assert eq(bd * v, e), e
            assert all(m.alpha == m.beta for m in bd.terms), e
            assert is_unitary(v) and membership(v).in_O2, e
            # refined and uniform bd differ as operators when a charge is
            # odd, so each is checked against the uniform form of itself
            refined_groups = putnam_form(bd)
            uniform_groups = putnam_form(normalize(bd))
            assert [n for _p, n in refined_groups] == \
                [n for _p, n in uniform_groups], e
            for (p, _n), (q, _n2) in zip(refined_groups, uniform_groups):
                assert eq(p, q), e
    assert unitaries >= 400


def test_diagram_elements_match_uniform_depth():
    rng = random.Random(6)
    for _ in range(300):
        e = to_element(_random_diagram(rng))
        assert is_unitary(e) and uniform_is_unitary(e)
        assert flags(e) == uniform_membership(e)
        assert total_charge(e) == sum(e.terms[m] * m.k for m in e.terms)


# -- deep beta words: the refinement stays linear in the depth ----------------

def _deep_word(d):
    return tuple(random.Random(d).choice((1, 2)) for _ in range(d))


def _refined_u_along(w):
    """U expanded only along the path of w: the terms off the path, plus
    the one term whose beta is w."""
    out, cur = [], Monomial((), 1, ())
    while len(cur.beta) < len(w):
        for half in expand_right(cur):
            if half.beta == w[:len(half.beta)]:
                cur = half
            else:
                out.append((1, half))
    return Element.from_terms(out + [(1, cur)])


def _deep_cases(w):
    """(a, b, equal by construction) at the depth of w."""
    pw = s(w) * s_star(w)
    shift = s(w) * u() * s_star(w) + one() - pw   # U on the range of S_w
    return [
        (pw + u(), _refined_u_along(w) + pw, True),
        (pw + u(), _refined_u_along(w) + pw.scale(2), False),
        (shift * shift.adjoint(), one(), True),
        (shift * shift, s(w) * u(2) * s_star(w) + one() - pw, True),
        (shift * shift, s(w) * u(2) * s_star(w) + one(), False),
        (s(w) * u(3) * s_star(w) * s(w), s(w) * u(3), True),
    ]


@pytest.mark.parametrize("d", [16, 32, 64])
def test_deep_beta_eq(d):
    for a, b, equal in _deep_cases(_deep_word(d)):
        assert eq(a, b) == equal
        assert eq(b, a) == equal
        assert semantic_eq(a, b) == equal


@pytest.mark.parametrize("d", [16, 32, 64])
def test_deep_beta_unitary_membership(d):
    w = _deep_word(d)
    pw = s(w) * s_star(w)
    shift = s(w) * u() * s_star(w) + one() - pw
    assert is_unitary(shift)
    assert total_charge(shift) == 1
    assert flags(shift) == (False, True, False, False)
    assert flags(pw + one() - pw) == (True,) * 4
    assert flags(pw + u()) == (False, True, False, False)
    assert flags(s(w) * s_star(w[1:]) + pw) == (True, False, False, False)
    assert not is_unitary(pw + u())
    assert not is_unitary(shift + pw)
    with pytest.raises(CapacityError):
        normalize(shift)


def test_normalize_term_budget():
    assert len(normalize(u(), 16).terms) == 1 << 16
    with pytest.raises(CapacityError):
        normalize(u(), 17)
    with pytest.raises(CapacityError):
        normalize(parse_element("P[1] + S[2] U^3 S*[2]"), 18)


# -- eq walks the beta trie of e1 - e2 and stops at its first nonzero leaf ---
#
# The reference is the comparison eq made before: both elements refined on
# the common refinement of their beta words, and the term maps compared.

def refined_maps(e1, e2):
    inner = carets({m.beta for e in (e1, e2) for m in e.terms}).__contains__
    return _expand(e1, inner).terms, _expand(e2, inner).terms


def check_eq(a, b):
    """eq against the refined-map reference both ways round; a false
    answer's witness is a refined term where the two maps differ by its
    coefficient.  Returns the verdict."""
    f1, f2 = refined_maps(a, b)
    verdict = f1 == f2
    assert eq(a, b) == eq(b, a) == verdict, (a, b)
    diff = _first_difference(a, b)
    assert (diff is None) == verdict, (a, b)
    if diff is not None:
        m, c = diff
        assert c == f1.get(m, 0) - f2.get(m, 0) != 0, (a, b, diff)
        assert _first_difference(b, a) == (m, -c)
        # the refined betas are prefix-free, so the walk (letter 1 first)
        # meets their leaves in lex order; the witness is the least term of
        # the first leaf that does not cancel
        differ = [t for t in f1.keys() | f2.keys() if f1.get(t) != f2.get(t)]
        assert m == min(differ, key=lambda t: (t.beta, t.alpha, t.k)), \
            (a, b, diff)
    return verdict


def _int_coefficients(rng, e):
    """e with each integral coefficient an int or a Fraction at random."""
    return Element({m: int(c) if c.denominator == 1 and rng.random() < 0.7
                    else c for m, c in e.terms.items()})


def _last_leaf_near_miss(rng, a):
    """A copy of a, unevenly re-expanded, plus one term whose beta is the
    all-2 word one letter deeper than any beta of a: the last leaf the walk
    visits, and the only place the two differ."""
    b = _expand_some(rng, a)
    beta = (2,) * (max(a.depth(), b.depth()) + 1)
    m = Monomial(tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 3))),
                 rng.randint(-4, 4), beta)
    return b + Element.mono(m, rng.choice((1, -2, Fraction(1, 3))))


def _random_eq_pair(rng):
    a = _int_coefficients(rng, _random_element(rng, max_terms=8))
    roll = rng.random()
    if roll < 0.1:
        return a, zero()
    if roll < 0.2:
        # cancellations that only show on the refined form
        return a - _expand_some(rng, a), zero()
    if roll < 0.35:
        return a, _last_leaf_near_miss(rng, a)
    if roll < 0.5:
        # a deep beta: a term along a 32- or 64-letter word, and a near miss
        w = _deep_word(rng.choice((32, 64)))
        deep = Element.mono(Monomial(w[:rng.randint(0, 3)], rng.randint(-8, 8),
                                     w), rng.choice((1, Fraction(-1, 2))))
        a = a + deep
        b = _expand_some(rng, a)
        return a, b if rng.random() < 0.5 else b + deep.scale(Fraction(1, 7))
    b = _int_coefficients(rng, _random_pair(rng)[1] if roll < 0.6 else
                          _expand_some(rng, a))
    return a, b


def test_eq_matches_refined_maps_on_random_pairs():
    rng = random.Random(14)
    verdicts = []
    for i in range(1500):
        a, b = _random_eq_pair(rng)
        verdict = check_eq(a, b)
        if i % 5 == 0:
            assert semantic_eq(a, b) == verdict, (a, b)
        verdicts.append(verdict)
    assert 400 < sum(verdicts) < 1100


def test_eq_edge_cases():
    assert check_eq(zero(), zero())
    assert not check_eq(zero(), one())
    assert check_eq(parse_element("P[1] - P[11] - P[12]"), zero())
    assert not check_eq(parse_element("P[1] - P[11] - 1/2*P[12]"), zero())
    # int against Fraction coefficients of the same value
    assert check_eq(Element({Monomial((1,), 0, (1,)): 2}),
                    Element({Monomial((1,), 0, (1,)): Fraction(2)}))
    assert _first_difference(parse_element("U"), parse_element("1")) == \
        (Monomial((), 0, ()), -1)


def test_eq_stops_at_the_first_nonzero_leaf():
    # S_2 U^3 S_2* and its 2^12 refined terms are the same operator; next
    # to P_1 they need the walk down all of the 2 subtree only when P_1
    # cancels
    shared = parse_element("S[2] U^3 S*[2]")
    refined = normalize(shared, 13)
    assert len(refined.terms) == 1 << 12
    p1 = parse_element("P[1]")
    with time_limit(1, "eq of elements that differ at P[1]"):
        assert not eq(p1 + shared, p1.scale(2) + refined)
    assert _first_difference(p1 + shared, p1.scale(2) + refined) == \
        (Monomial((1,), 0, (1,)), -1)
    # the same pair, differing only at the last leaf of the 2 subtree
    last = max(refined.terms, key=lambda m: m.beta)
    assert last.beta == (2,) * 13
    near = dict(refined.terms)
    near[last] += Fraction(1, 3)
    with time_limit(1, "eq of elements that differ at their last leaf"):
        assert not eq(p1 + shared, p1 + Element(near))
        assert eq(p1 + shared, p1 + refined)
    assert _first_difference(p1 + shared, p1 + Element(near)) == \
        (last, Fraction(-1, 3))


# -- eq sums the refined terms at a longest beta before it walks ------------

def _off_longest_paths(rng, e1, e2):
    """A term whose beta is no prefix of any longest beta of e1 and e2 (at
    most that long), or None when every beta is empty."""
    betas = {m.beta for e in (e1, e2) for m in e.terms}
    size = max(map(len, betas))
    longest = [b for b in betas if len(b) == size]
    for _ in range(100):
        n = rng.randint(1, size) if size else 0
        beta = tuple(rng.choice((1, 2)) for _ in range(n))
        if n and not any(b[:n] == beta for b in longest):
            alpha = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 3)))
            return Element.mono(Monomial(alpha, rng.randint(-8, 8), beta),
                                rng.choice((1, -2, Fraction(1, 3))))
    return None


def _walk_decides_pair(rng, kind):
    """(a, b): a and an unevenly re-expanded copy of it that differ only by
    one term off the path of every longest beta, so the refined terms at a
    longest beta cancel and the walk has to find the leaf that does not.
    kind "tied" adds a shared term beside a longest beta, "deep" a term
    along a 64-letter beta, and "empty" moves everything to one side."""
    for _ in range(100):
        a = _int_coefficients(rng, _random_element(rng, max_terms=8))
        if kind == "deep":
            w = _deep_word(64)
            a = a + Element.mono(Monomial(w[:rng.randint(0, 3)],
                                          rng.randint(-8, 8), w),
                                 rng.choice((1, Fraction(-1, 2))))
        b = _int_coefficients(rng, _expand_some(rng, a))
        if kind == "tied" and b.terms:
            size = max(a.depth(), b.depth())
            shared = Element.mono(Monomial(
                (), rng.randint(-8, 8),
                tuple(rng.choice((1, 2)) for _ in range(size))),
                rng.choice((1, 3, Fraction(-2, 5))))
            a, b = a + shared, b + shared
        extra = _off_longest_paths(rng, a, b) if a.terms or b.terms else None
        if extra is None:
            continue
        b = b + extra
        if kind == "empty":
            a, b = (a - b, zero()) if rng.random() < 0.5 else (zero(), b - a)
        by_beta, _d = _beta_groups(a, b)
        if by_beta and _leaf_cancels(by_beta, max(by_beta, key=len)):
            return a, b
    raise AssertionError(f"no {kind} pair whose longest leaf cancels")


def test_eq_walks_when_the_longest_leaf_cancels():
    rng = random.Random(25)
    seen = {"tied": 0, "empty": 0, "deep": 0, "int": 0, "Fraction": 0}
    for i in range(400):
        kind = ("tied", "empty", "deep", "plain")[i % 4]
        a, b = _walk_decides_pair(rng, kind)
        assert not check_eq(a, b), (a, b)
        assert _first_difference(a, b) is not None
        assert not semantic_eq(a, b), (a, b)
        betas = [m.beta for e in (a, b) for m in e.terms]
        size = max(map(len, betas))
        seen["tied"] += len({w for w in betas if len(w) == size}) > 1
        seen["empty"] += not (a.terms and b.terms)
        seen["deep"] += size >= 64
        coefficients = [type(c) for e in (a, b) for c in e.terms.values()]
        seen["int"] += int in coefficients
        seen["Fraction"] += Fraction in coefficients
    assert min(seen.values()) >= 90, seen


def test_eq_answers_at_the_longest_leaf_without_carets(monkeypatch):
    rng = random.Random(26)
    pairs = [(parse_element("P[1] + 2*P[22]"), parse_element("P[22]"))]
    for _ in range(400):
        a, b = _random_pair(rng)
        by_beta, _d = _beta_groups(a, b)
        if by_beta and not _leaf_cancels(by_beta, max(by_beta, key=len)):
            pairs.append((a, b))
    assert len(pairs) > 150

    def refused(ws):
        raise AssertionError("carets called")

    monkeypatch.setattr(qu2.element, "carets", refused)
    for a, b in pairs:
        assert not eq(a, b), (a, b)
    with pytest.raises(AssertionError, match="carets called"):
        _first_difference(*pairs[0])


class _Frac(Fraction):
    """A coefficient that is a Fraction without being exactly one."""


def test_eq_reads_fraction_subclass_coefficients():
    half = Element({Monomial((), 1, ()): _Frac(1, 2)})
    p1, p11, p12 = (Monomial(w, 0, w) for w in ((1,), (1, 1), (1, 2)))
    cases = [
        (half, zero(), False),
        (half, u().scale(Fraction(1, 2)), True),
        (Element({p1: _Frac(1, 3), Monomial((2,), 0, (2,)): _Frac(1, 3)}),
         one().scale(Fraction(1, 3)), True),
        (Element({p1: _Frac(2, 3)}),
         Element({p11: _Frac(2, 3), p12: Fraction(1, 3)}), False),
    ]
    for a, b, verdict in cases:
        assert check_eq(a, b) == semantic_eq(a, b) == verdict, (a, b)
    assert _first_difference(half, zero()) == (Monomial((), 1, ()),
                                                Fraction(1, 2))
    assert _first_difference(*cases[3][:2]) == (p12, Fraction(1, 3))
