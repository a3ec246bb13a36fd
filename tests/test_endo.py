import random
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from qu2 import element as element_module, endo as endo_module
from qu2.errors import CapacityError, DomainError, ParseError
from qu2.element import (
    Element,
    element_str,
    eq,
    flip_flop,
    normalize,
    one,
    parse_element,
    phi,
    proj,
    u,
)
from qu2.endo import (
    PermUnitary,
    ProbeResult,
    _inner_image,
    automorphism_probe,
    check_extension,
    check_extension_parts,
    construct,
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
    template_element,
    template_labels,
    template_members,
    u_templates_labeled,
)
from qu2.monomial import Monomial, expand_right
from qu2.words import all_words, lex_index

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
    # not one coefficient-1 term S_a S_b* with |a| = level per beta b, even
    # where the good terms alone would make a permutation
    for text in ("U", "S[1] U S*[1] + S[2] S*[1] + S[1] S*[2]",
                 "S[2] S*[1] + S[1] U S*[1] + S[1] S*[2]", "P[1]",
                 "2*P[1] + P[2]", "S[11] S*[1] + S[2] S*[2]",
                 "P[1] + S[1] S*[2] + P[2]"):
        with pytest.raises(DomainError, match="not a permutation unitary"):
            perm_unitary_from_element(parse_element(text))


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
    # unitary, but not a tree pair: the check reads the image as one
    with pytest.raises(DomainError, match="tree-pair unitary of W"):
        check_extension(pu2("id"), parse_element("-1*U^2"))


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


def deepen(e, steps):
    """e with its lex-least term expanded, then the lex-least of the two
    new terms, and so on: one word grows by a letter per step."""
    terms = dict(e.terms)
    m = min(terms)
    for _ in range(steps):
        c = terms.pop(m)
        first, second = expand_right(m)
        terms[first] = terms[second] = c
        m = min(first, second)
    return Element(terms)


def test_constructive_family_of_a_re_expanded_inner_template():
    # past depth k-1 the template's kind is read off its reduced leaf map;
    # a 600-letter word used to be refused (and so no family was found)
    for label in ("AD:(1 3 2)", "AD*:(1 4)"):
        template = parse_template(3, label)[1]
        family = constructive_family(3, template)
        assert len(family) == 1
        for deep in (normalize(template, 5), deepen(template, 600)):
            assert constructive_family(3, deep) == family, label


def test_constructive_family_of_a_deep_comb_template():
    # a charge +-1 tree pair whose reduced form keeps a 600-letter word is
    # no inner template at level 3: its words of length 2 are proper
    # prefixes of leaves, so _inner_perm reads no permutation
    comb = [(1,) * i + (2,) for i in range(600)] + [(1,) * 600]
    betas = comb[:-2] + [comb[-1], comb[-2]]  # the last two leaves swapped
    for charge in (1, -1):
        charges = [charge] + [0] * 600
        template = Element({Monomial(a, c, b): 1
                            for a, c, b in zip(comb, charges, betas)})
        assert endo_module._inner_perm(3, template, charge) is None
        with pytest.raises(DomainError, match="no constructive family"):
            constructive_family(3, template)


def test_construct_verifies_every_kind():
    for label, options in (("U+", {}), ("U-", {"perm": "(1 3 4)"}),
                           ("M1:0", {"sigma1": "(1 2)"}),
                           ("M2:1", {"sigma2": "(1 2)"}), ("AD:(1 2)", {}),
                           ("AD*:(1 4)(2 3)", {})):
        endo = construct(3, label, **options)
        assert endo.verified, label
        assert endo.u_tilde == parse_template(3, label)[1], label
    # each option picks its member: the default is the identity
    assert construct(3, "U-", perm="(1 3 4)").u == \
        make_u_p(parse_cycles(4, "(1 3 4)"), -1)
    assert construct(3, "U+").u == make_u_p((0, 1, 2, 3), 1)
    assert construct(3, "M2:1", sigma2="(1 2)").u == \
        make_u_sigma(3, 1, 2, None, (1, 0))
    assert construct(3, "AD*:(1 2)") == \
        make_inner_phi(PermUnitary(2, (1, 0, 2, 3)), True)


def test_construct_refuses_foreign_options_and_non_labels():
    for label, name in (("U+", "sigma1"), ("U-", "sigma2"), ("M1:0", "perm"),
                        ("AD:id", "perm"), ("AD*:(1 2)", "sigma2")):
        with pytest.raises(ParseError) as info:
            construct(3, label, **{name: "(1 2)"})
        assert str(info.value) == f"--{name} does not apply to template {label!r}"
    with pytest.raises(DomainError, match="construct needs a template name"):
        construct(3, "U^4")


def test_inner_construct_writes_its_template_once(monkeypatch):
    calls = []
    real = endo_module._inner_image

    def counted(p, with_flip):
        calls.append(p)
        return real(p, with_flip)

    monkeypatch.setattr(endo_module, "_inner_image", counted)
    assert construct(3, "AD:(1 3 2)").verified
    assert len(calls) == 1


def test_template_members_of_a_label_and_of_element_text():
    inner = element_str(pu2("(1 2)").element * u() * pu2("(1 2)").element.adjoint())
    assert template_element(3, "AD:(1 2)") == _inner_image(pu2("(1 2)"), False)
    assert eq(template_element(3, inner), template_element(3, "AD:(1 2)"))
    for mode in ("brute", "constructive"):
        for text in ("AD:(1 2)", inner):
            assert template_members(3, text, mode) == \
                [make_inner_phi(pu2("(1 2)"), False).u], (text, mode)
        assert template_members(3, "M1:1", mode) == \
            enumerate_extendible(3, mixed_template(3, 1, 1), mode)
        assert template_members(3, "U^4", mode) == \
            enumerate_extendible(3, u(4), mode)


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


# ------------------------------------------------- index tuples against Elements
#
# The old Element paths, kept as references: the probe multiplied tower
# Elements, make_inner_phi went through phi, flip_flop and
# perm_unitary_from_element, the inner template was the product p U p*,
# and make_u_p built a word map.

_ELEMENT_PROBE_LEVEL = 10


def element_probe(pu, depth=6):
    if depth < 2:
        raise DomainError("probe needs depth >= 2")
    u_el = pu.element
    u_star = u_el.adjoint()
    u_k = prev_w = None
    phi_u = u_el  # phi^(k-1)(u)
    for k in range(1, depth + 1):
        if pu.level + k - 1 > _ELEMENT_PROBE_LEVEL:
            raise CapacityError(f"probe step {k} needs level-{pu.level + k - 1} "
                                f"tower elements; at most {_ELEMENT_PROBE_LEVEL}")
        if k == 1:
            u_k = u_el
        else:
            phi_u = phi(phi_u)
            u_k = u_k * phi_u
        w_k = u_k.adjoint() * u_star * u_k
        if prev_w is not None and eq(prev_w, w_k):
            return ProbeResult(k - 1, prev_w)
        prev_w = w_k
    return ProbeResult(None, None)


def product_inner_image(p, with_flip):
    p_el = p.element
    return p_el * u(-1 if with_flip else 1) * p_el.adjoint()


def element_inner_phi(p, with_flip):
    p_el = p.element
    u_el = p_el * phi(p_el.adjoint())
    if with_flip:
        u_el = u_el * flip_flop()
    pu = perm_unitary_from_element(u_el, p.level + 1)
    return extend(pu, product_inner_image(p, with_flip))


def perm_from_word_map(k, mapping):
    words = all_words(k)
    assert sorted(mapping) == words and sorted(mapping.values()) == words
    return tuple(lex_index(mapping[w]) for w in words)


def word_map_u_p(p, sign):
    p = tuple(p)
    km1 = len(p).bit_length() - 1
    words = all_words(km1)
    mapping = {}
    for idx, mu in enumerate(words):
        pmu = words[p[idx]]
        if sign > 0:
            mapping[(1,) + pmu] = mu + (1,)
            mapping[(2,) + pmu] = mu + (2,)
        else:
            mapping[(2,) + pmu] = mu + (1,)
            mapping[(1,) + pmu] = mu + (2,)
    return PermUnitary(km1 + 1, perm_from_word_map(km1 + 1, mapping))


def all_perm_unitaries(level):
    return [PermUnitary(level, p) for p in permutations(range(1 << level))]


def seeded_perm_unitaries(level, n, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        p = list(range(1 << level))
        rng.shuffle(p)
        out.append(PermUnitary(level, tuple(p)))
    return out


@st.composite
def perm_unitaries(draw, level=None):
    if level is None:
        level = draw(st.integers(0, 3))
    return PermUnitary(level, tuple(draw(st.permutations(range(1 << level)))))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 3).flatmap(lambda k: st.tuples(perm_unitaries(k),
                                                     perm_unitaries(k))))
def test_tuple_product_and_inverse_match_elements(pair):
    a, b = pair
    assert eq((a @ b).element, a.element * b.element)
    assert eq(a.inverse().element, a.element.adjoint())


@settings(deadline=None, max_examples=60)
@given(perm_unitaries())
def test_tuple_phi_and_promote_match_elements(a):
    assert eq(a.phi().element, phi(a.element))
    promoted = a.promote()
    assert promoted.level == a.level + 1
    assert eq(promoted.element, a.element)
    # and the promoted tuple is the element's uniform form one level down
    assert promoted == perm_unitary_from_element(
        normalize(a.element, a.level + 1), a.level + 1)


@settings(deadline=None, max_examples=40)
@given(perm_unitaries(), perm_unitaries())
def test_tuple_product_across_levels(a, b):
    # the lower operand is promoted, so the product is the operator product
    assert eq((a @ b).element, a.element * b.element)


def _probe_pair(pu, depth):
    new, ref = automorphism_probe(pu, depth), element_probe(pu, depth)
    assert new.stabilized_at == ref.stabilized_at, pu
    if ref.witness is None:
        assert new.witness is None
    else:
        assert element_str(new.witness) == element_str(ref.witness), pu
    return new


def test_probe_matches_the_element_probe_levels_1_and_2():
    for pu in all_perm_unitaries(1):
        _probe_pair(pu, 8)
    stabilized = [pu for pu in all_perm_unitaries(2)
                  if _probe_pair(pu, 7).stabilized]
    assert 0 < len(stabilized) < 24


def test_probe_matches_the_element_probe_level_3():
    # the 48 inner classification results all stabilize
    inner = [make_inner_phi(p, flip).u
             for p in all_perm_unitaries(2) for flip in (False, True)]
    assert len({pu.perm for pu in inner}) == 48
    assert all(_probe_pair(pu, 6).stabilized for pu in inner)
    for pu in seeded_perm_unitaries(3, 24, seed=17):
        _probe_pair(pu, 6)


def test_make_inner_phi_matches_the_element_path():
    ps = [pu for level in (0, 1, 2) for pu in all_perm_unitaries(level)]
    ps += seeded_perm_unitaries(3, 12, seed=5)
    for p in ps:
        for flip in (False, True):
            assert make_inner_phi(p, flip) == element_inner_phi(p, flip), p


def test_inner_image_matches_the_product():
    ps = [pu for level in (0, 1, 2) for pu in all_perm_unitaries(level)]
    ps += seeded_perm_unitaries(3, 12, seed=7)
    ps += seeded_perm_unitaries(4, 6, seed=8)
    for p in ps:
        for flip in (False, True):
            # the same stored terms, so the same printed element
            assert _inner_image(p, flip) == product_inner_image(p, flip), p


def test_make_u_p_matches_the_word_map():
    ps = [p for size in (1, 2, 4) for p in permutations(range(size))]
    ps += [pu.perm for pu in seeded_perm_unitaries(3, 200, seed=11)]
    for p in ps:
        for sign in (1, -1):
            assert make_u_p(p, sign) == word_map_u_p(p, sign), (p, sign)


def word_map_u_sigma(k, h, variant, side1, side2):
    """make_u_sigma's member built as a map of words: with c the side's
    letter at position h+1, side 1 maps 2 a' c b' to a c b 2 and
    1 a' c b' to a c b 1, and side 2 swaps those endings."""
    words = all_words(k - 2)

    def at(w, c):
        return w[:h] + (c,) + w[h:]

    c1, c2 = (1, 2) if variant == 1 else (2, 1)
    mapping = {}
    for x, y1, y2 in zip(words, side1, side2):
        src1, src2 = at(words[y1], c1), at(words[y2], c2)
        mapping[(2,) + src1] = at(x, c1) + (2,)
        mapping[(1,) + src1] = at(x, c1) + (1,)
        mapping[(2,) + src2] = at(x, c2) + (1,)
        mapping[(1,) + src2] = at(x, c2) + (2,)
    return PermUnitary(k, perm_from_word_map(k, mapping))


def test_make_u_sigma_matches_the_word_map():
    rng = random.Random(12)
    cases = 0
    for k in (2, 3, 4, 5, 6):
        size = 1 << (k - 2)
        for h in range(k - 1):
            for variant in (1, 2):
                for _ in range(12):
                    sides = [rng.sample(range(size), size) for _side in (1, 2)]
                    assert make_u_sigma(k, h, variant, *sides) == \
                        word_map_u_sigma(k, h, variant, *sides), (k, h, sides)
                    cases += 1
    assert cases == 360


def test_mixed_template_matches_the_product():
    # phi^h(P_i) U^n + phi^h(P_j) U^-n, with n = 2^(k-1), by Element products
    for k in (2, 3, 4, 5, 6):
        n = 1 << (k - 1)
        for h in range(k - 1):
            for variant in (1, 2):
                i, j = (1, 2) if variant == 1 else (2, 1)
                proj_i, proj_j = (sum((proj(a + (c,)) for a in all_words(h)),
                                      Element()) for c in (i, j))
                product = proj_i * u(n) + proj_j * u(-n)
                # the same stored terms, so the same printed element
                assert mixed_template(k, h, variant) == product, (k, h)


def test_tuple_paths_build_no_element_products(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("an Element path ran")

    # the brute search and the extension checker multiply nothing and
    # compare no elements: both read the template's leaf map
    mixed, inner = mixed_template(3, 1, 2), parse_template(3, "AD:(1 3 2)")[1]
    with monkeypatch.context() as patch:
        patch.setattr(Element, "__mul__", refuse)
        for module in (element_module, endo_module):
            patch.setattr(module, "eq", refuse)
        for template in (mixed, inner):
            survivors = enumerate_extendible(3, template)
            assert survivors
            assert all(check_extension_parts(pu, template) == (True, True)
                       for pu in survivors)
        assert check_extension_parts(PermUnitary(3, tuple(range(8))), mixed) \
            == (False, False)
        assert check_extension_parts(PermUnitary(0, (0,)), u()) == (True, True)
    # nor do the menu's builders and the inner permutation's reader
    with monkeypatch.context() as patch:
        patch.setattr(Element, "__mul__", refuse)
        for name in ("eq", "normalize", "perm_unitary_from_element"):
            patch.setattr(endo_module, name, refuse)
        assert mixed_template(5, 2, 1) is not None
        assert make_u_sigma(5, 2, 1, range(8), range(7, -1, -1)).level == 5
        assert endo_module._inner_perm(3, inner, 1) == \
            parse_cycles(4, "(1 3 2)")

    for name in ("__mul__", "adjoint"):
        monkeypatch.setattr(Element, name, refuse)
    for module in (element_module, endo_module):
        for name in ("eq", "normalize", "phi", "flip_flop",
                     "perm_unitary_from_element"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    # extend and the template are the caller's Element work, not the u's
    monkeypatch.setattr(endo_module, "extend", lambda pu, ut: pu)
    monkeypatch.setattr(endo_module, "_inner_image", lambda p, flip: None)
    p = PermUnitary(2, (2, 0, 3, 1))
    assert make_inner_phi(p, True).level == 3
    assert make_u_p(p.perm, -1).level == 3
    assert automorphism_probe(make_inner_phi(p, False), 4) is not None
    assert not hasattr(endo_module, "phi")
    assert not hasattr(endo_module, "flip_flop")
