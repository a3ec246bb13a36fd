import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qu2.canrep import apply_basis, semantic_eq
from qu2.errors import CapacityError, DomainError, ParseError
from qu2.element import (
    Element,
    _expand,
    _first_difference,
    bd_v_factor,
    element_str,
    eq,
    flip_flop,
    from_json,
    is_unitary,
    membership,
    normalize,
    one,
    parse_element,
    phi,
    putnam_form,
    s,
    s_star,
    to_json,
    total_charge,
    u,
    zero,
)
from qu2.monomial import Monomial, expand_right, mono_mul
from qu2.wgroup import Diagram, from_element, reduce, to_element
from qu2.words import carets, is_partition

from test_cli import time_limit

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
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    for e1, e2, budget in cases:
        built.clear()
        e1 * e2
        assert len(built) <= budget


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
    assert not is_unitary(u().scale(Fraction(1, 2)))
    assert not is_unitary(u() + u())


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
    cand = F if not is_unitary(v) or not membership(v).in_QT else v
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


def test_parsed_coefficients_are_int_unless_a_slash_is_written():
    ints = parse_element("P[1] + 2*P[2] - U").terms
    assert sorted(ints.values()) == [-1, 1, 2]
    assert all(type(c) is int for c in ints.values())
    (half,) = parse_element("1/2*U").terms.values()
    assert type(half) is Fraction and half == Fraction(1, 2)


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


# -- refined forms against the uniform-depth canonical form -------------------
#
# eq, is_unitary, membership and total_charge read the common refinement of
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
            unitary = is_unitary(e)
            assert unitary == uniform_is_unitary(e), e
            assert flags(e) == uniform_membership(e), e
            if unitary:
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
            if not is_unitary(e):
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
    return _expand(e1, inner), _expand(e2, inner)


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
