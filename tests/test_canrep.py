import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qu2.canrep
from qu2.canrep import (
    BasisVector,
    DecoratedPermutative,
    Zero,
    apply_basis,
    dp_split,
    mono_image,
    phase_apply,
    semantic_eq,
)
from qu2.errors import DomainError
from qu2.element import (
    Element,
    eq,
    flip_flop,
    normalize,
    one,
    parse_element,
    s,
    s_star,
    u,
    zero,
)
from qu2.monomial import Monomial, parse_mono
from qu2.words import offset

words = st.lists(st.sampled_from((1, 2)), max_size=3).map(tuple)
monos = st.builds(Monomial, words, st.integers(-8, 8), words)
coeffs = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
).filter(lambda c: c != 0)
elements = st.lists(st.tuples(coeffs, monos), max_size=4).map(Element.from_terms)

F = parse_element("P[11] + S[12] S*[21] + S[21] S*[12] + P[22]")


def test_mono_image_examples():
    assert mono_image(parse_mono("U"), 5) == 6
    # S_1* e_3 = e_1, U e_1 = e_2, S_2 e_2 = e_4
    assert mono_image(parse_mono("S[2] U S*[1]"), 3) == 4
    assert mono_image(parse_mono("S*[1]"), 2) is None
    assert mono_image(parse_mono("S[2]"), -3) == -6
    assert mono_image(parse_mono("S[1]"), -3) == -5


def test_apply_basis():
    assert apply_basis(u(), 5) == [(1, 6)]
    assert apply_basis(parse_element("S[2] U S*[1]"), 3) == [(1, 4)]
    assert apply_basis(parse_element("S*[1]"), 2) == []
    # canonical-form terms hit disjoint residue classes
    assert apply_basis(normalize(u(), 1), 4) == [(1, 5)]
    assert apply_basis(parse_element("1/2*U + 1/2*U"), 0) == [(1, 1)]


def test_semantic_eq_examples():
    assert semantic_eq(u(2), parse_element("S[1] U S*[1] + S[2] U S*[2]"))
    assert not semantic_eq(u(), u().adjoint())
    assert semantic_eq(F * F, one())
    # they differ on the class of 2, where no beta word leads
    assert not semantic_eq(one(), parse_element("P[1]"))


def test_semantic_eq_sees_past_colliding_images():
    # a nonzero element whose terms' images cancel at the points
    # r - 8, r and r + 8 of every residue class r mod 8
    d = parse_element(
        "-1*U^-3 + -1*U^-2 + -1*U^-1 + -2 + -1*U + -1*U^2 + -1*U^3"
        " + S[1] U^-2 + 2*S[1] U^-1 + 2*S[1] + S[1] U + -1*S[11] U^-1"
        " + -1*S[12] + S[2] U^-2 + 2*S[2] U^-1 + 2*S[2] + 2*S[2] U"
        " + S[2] U^2 + -1*S[21] U^-1 + -1*S[21] + -1*S[22] U^-1"
        " + -1*S[22] + -1*S[22] U + S[222]")
    assert apply_basis(d, 5) != []
    assert not eq(d, zero())
    assert not semantic_eq(d, zero())
    assert not semantic_eq(zero(), d)
    assert semantic_eq(d + u(), u() + d)
    # maps q -> s*q + c with distinct s meet at |q| <= |c - c'|:
    # n -> n and n -> 2n - 2 meet at n = 2 = max|c|,
    # n -> n + 2 and n -> 2n - 2 at n = 4 = 2 * max|c|
    assert not semantic_eq(one(), parse_element("S[2] U^-1"))
    assert not semantic_eq(u(2), parse_element("S[2] U^-1"))


@settings(deadline=None, max_examples=60)
@given(elements, elements)
def test_semantic_eq_matches_symbolic_eq(e1, e2):
    # the master cross-check: syntax agrees with the l2(Z) action
    assert eq(e1, e2) == semantic_eq(e1, e2)


@settings(deadline=None, max_examples=60)
@given(elements, st.integers(0, 2))
def test_semantic_eq_across_depths(e, d):
    assert semantic_eq(e, normalize(e, e.depth() + d))


def _reference_semantic_eq(e1, e2):
    """The oracle on every residue class r mod 2^L, L the longest beta: each
    monomial acting there maps q |-> s*q + c with s >= 1, so one probe at
    q = 2 * max|c| + 1 decides the class."""
    span = 1 << max(e1.depth(), e2.depth())
    monos = [*e1.terms, *e2.terms]
    for r in range(span):
        reach = max((abs(c) for c in (mono_image(m, r) for m in monos)
                     if c is not None), default=0)
        n = r + (2 * reach + 1) * span
        if apply_basis(e1, n) != apply_basis(e2, n):
            return False
    return True


deep_words = st.lists(st.sampled_from((1, 2)), max_size=8).map(tuple)
deep_elements = st.lists(
    st.tuples(coeffs, st.builds(Monomial, deep_words, st.integers(-8, 8),
                                deep_words)),
    max_size=4).map(Element.from_terms)


@st.composite
def oracle_pairs(draw):
    """An element with betas of up to 8 letters, and a partner that is
    independent, the same with one term expanded, the same with one term
    expanded and one of its parts dropped, or one coefficient off."""
    e1 = draw(deep_elements)
    how = draw(st.sampled_from(("independent", "expanded", "truncated",
                                "perturbed")))
    if how == "independent" or not e1.terms:
        return e1, draw(deep_elements)
    rest = dict(e1.terms)
    m = draw(st.sampled_from(sorted(rest)))
    c = rest.pop(m)
    if how == "perturbed":
        return e1, Element(rest) + Element.mono(m, c + draw(coeffs))
    parts = normalize(Element.mono(m, c), len(m.beta) + draw(st.integers(1, 3)))
    if how == "truncated":
        # nonzero only on the class of the dropped part, which the
        # partner's betas may not reach
        parts.terms.pop(draw(st.sampled_from(sorted(parts.terms))))
    return e1, Element(rest) + parts


@settings(deadline=None, max_examples=200)
@given(oracle_pairs())
def test_semantic_eq_matches_every_class_reference(pair):
    e1, e2 = pair
    assert semantic_eq(e1, e2) == _reference_semantic_eq(e1, e2) == eq(e1, e2)


def test_semantic_eq_probes_only_acting_terms(monkeypatch):
    # each leaf of the beta trie evaluates only the terms whose beta is a
    # prefix of it, twice (its reach, then the probe), and the leaves number
    # at most one more than the beta letters
    seen = []

    def counted(m, n):
        seen.append(mono_image(m, n))
        return seen[-1]

    monkeypatch.setattr(qu2.canrep, "mono_image", counted)
    d = parse_element("S[1] U S*[122] + 2*P[21] + U^3 + S[2] S*[1112]")
    for e1, e2 in [(d, d), (d, zero()), (d, normalize(d, 5)), (u(), F)]:
        seen.clear()
        semantic_eq(e1, e2)
        assert None not in seen
        terms = [*e1.terms, *e2.terms]
        letters = sum(len(m.beta) for m in terms)
        assert len(seen) <= 2 * (letters + 1) * len(terms)


def _named(node):
    """The names a function or class body reads, annotations left out."""
    body = node.body + getattr(getattr(node, "args", None), "defaults", [])
    return {sub.id for stmt in body for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name)}


def test_oracle_names_no_arithmetic():
    # canrep stays an independent oracle: semantic_eq and mono_image, and
    # every canrep function they reach, name nothing of qu2.element or
    # qu2.monomial but the Monomial type
    tree = ast.parse(Path(qu2.canrep.__file__).read_text())
    top = {node.name: node for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    arithmetic = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names:
            module = node.module or alias.name
            if module.rsplit(".", 1)[-1] in ("element", "monomial"):
                arithmetic.add(alias.asname or alias.name)
    arithmetic.discard("Monomial")
    assert arithmetic  # the parse found canrep's element imports
    todo, reached = ["semantic_eq", "mono_image"], set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        assert not any(isinstance(sub, (ast.Import, ast.ImportFrom))
                       for sub in ast.walk(top[name])), name
        named = _named(top[name])
        assert not named & arithmetic, (name, named & arithmetic)
        todo.extend(named & top.keys())


def test_phase_apply_examples():
    # z = -1: z^3 = -1, a half turn
    assert phase_apply(Fraction(1, 2), ["Uz"], 3) == \
        BasisVector(3, Fraction(1, 2))
    # empty word
    assert phase_apply(Fraction(1, 4), [], 7) == BasisVector(7, Fraction(0))
    # Ad(U_z)(U) = zU on a few indices
    for k in (-3, 0, 5):
        got = phase_apply(Fraction(1, 4), ["Uz", "U", "Uz*"], k)
        assert got == BasisVector(k + 1, Fraction(1, 4))
    # annihilation propagates
    assert phase_apply(Fraction(1, 2), ["Uz", "S1*"], 2) is Zero
    # rightmost letter acts first
    assert phase_apply(0, ["S2", "U", "S1*"], 3) == BasisVector(4, Fraction(0))


def test_phase_apply_rejects_non_dyadic():
    with pytest.raises(DomainError):
        phase_apply(Fraction(1, 3), ["Uz"], 1)
    with pytest.raises(DomainError):
        phase_apply(Fraction(1, 2), ["Q"], 1)


def test_phase_normalized_mod_one():
    out = phase_apply(Fraction(3, 4), ["Uz"], 3)  # 9/4 -> 1/4
    assert out == BasisVector(3, Fraction(1, 4))
    out = phase_apply(Fraction(1, 4), ["Uz*"], 1)  # -1/4 -> 3/4
    assert out == BasisVector(1, Fraction(3, 4))


def test_decorated_permutative_zero_phases():
    v = DecoratedPermutative.from_element(F)
    for n in (-5, 0, 3, 8):
        (c, i), = apply_basis(F, n)
        assert c == 1
        assert v.apply(n) == BasisVector(i, Fraction(0))


def test_decorated_permutative_constant_half_phase():
    # phase 1/2 on both depth-1 branches of U: acts as -U everywhere
    base = normalize(u(), 1)
    phases = {m.alpha: Fraction(1, 2) for m in base.terms}
    v = DecoratedPermutative.from_element(base, phases)
    for n in (-2, 0, 1, 7):
        assert v.apply(n) == BasisVector(n + 1, Fraction(1, 2))


def test_decorated_permutative_mixed_phases():
    phases = {(1, 1): Fraction(1, 4), (2, 1): Fraction(1, 2)}
    v = DecoratedPermutative.from_element(F, phases)
    d, p = dp_split(v)
    assert p == normalize(F)
    assert d[(1, 1)] == Fraction(1, 4)
    assert d[(1, 2)] == Fraction(0)
    # recomposition: phase of the image leaf, then the permutative move
    for n in (-9, 2, 5, 6):
        out = v.apply(n)
        (c, i), = apply_basis(p, n)
        assert out.index == i
        leaf = next(m.alpha for m in p.terms if mono_image(m, n) is not None)
        assert out.phase == d[leaf]


def test_decorated_permutative_deep_shift():
    # the shift along a 64-letter word: 65 refined terms, where the uniform
    # form would have 2^64; phases are keyed by the refined alpha words
    w = (1, 2, 2) * 21 + (1,)
    pw = s(w) * s_star(w)
    shift = s(w) * u() * s_star(w) + one() - pw
    v = DecoratedPermutative.from_element(shift, {w: Fraction(1, 2)})
    assert len(v.terms) == 65
    t = offset(w)
    for q in (-3, 0, 5):
        n = t + (q << 64)
        assert v.apply(n) == BasisVector(n + (1 << 64), Fraction(1, 2))
    for n in (t - 1, t + 1, t + (1 << 63), 0):
        assert v.apply(n) == BasisVector(n, Fraction(0))


def test_decorated_permutative_validation():
    with pytest.raises(DomainError):
        DecoratedPermutative.from_element(parse_element("S[2]"))
    with pytest.raises(DomainError):
        DecoratedPermutative.from_element(F, {(1, 1): Fraction(1, 3)})
    with pytest.raises(DomainError):
        # alpha words overlap
        DecoratedPermutative([(0, parse_mono("P[1]")), (0, parse_mono("P[1]"))])


def test_dp_split_unique():
    # two decorations with equal action have equal split data
    phases = {(1, 1): Fraction(3, 4)}
    v1 = DecoratedPermutative.from_element(F, phases)
    v2 = DecoratedPermutative.from_element(normalize(F), dict(phases))
    assert dp_split(v1)[0] == dp_split(v2)[0]
    assert dp_split(v1)[1] == dp_split(v2)[1]
