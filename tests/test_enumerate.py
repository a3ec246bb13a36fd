"""enumerate_extendible's brute mode against a plain sweep.

The brute mode searches only the permutations that ext1 allows, prunes
those that break ext2 as it places them, and then verifies each survivor
with the extension checker.  The search and the checker read both
equations off the template's leaf map (endo._image), which these tests
hold to Element products and eq on every short word, and the checker's
verdicts to the equations' Element products (the reference in helpers).
They hold the search to the full sweep over all (2^k)! permutations (a
reference loop kept here), to the search pruned by ext1 alone with its
forced map found by eq and each candidate checked by Element products
(another), to the level-3 output of every menu template recorded from the
sweep in tests/golden/, and at level 4 to the constructive families.
"""

import contextlib
import io
import pathlib
import random
from itertools import permutations

import pytest

from qu2 import endo
from qu2.canrep import apply_basis
from qu2.cli import main
from qu2.element import (Element, eq, flip_flop, is_unitary, normalize, one,
                         parse_element, proj, s, u, zero)
from qu2.monomial import Monomial
from qu2.endo import (
    PermUnitary,
    check_extension,
    check_extension_parts,
    constructive_family,
    enumerate_extendible,
    mixed_template,
    parse_template,
    perm_unitary,
    perm_unitary_from_cycles,
    template_labels,
    u_templates_labeled,
)
from qu2.errors import DomainError
from qu2.wgroup import Diagram, to_element
from qu2.words import all_words, decode

from helpers import extension_parts_by_products, time_limit

GOLDEN = pathlib.Path(__file__).parent / "golden"


def sweep(k, template):
    """Every level-k permutation that check_extension accepts, lex order."""
    return [perm for perm in permutations(range(1 << k))
            if check_extension(PermUnitary(k, perm), template)]


def found(k, template):
    return [pu.perm for pu in enumerate_extendible(k, template, mode="brute")]


def _random_tree(rng, n):
    if n == 1:
        return 0
    left = rng.randint(1, n - 1)
    return (_random_tree(rng, left), _random_tree(rng, n - left))


def _random_perm_element(rng, level):
    size = 1 << level
    return perm_unitary(level, rng.sample(range(size), size)).element


def random_templates(k, count, seed):
    """Unitary element expressions: p U^j q for random permutation
    unitaries p, q of level <= k, alternating with the elements of random
    tree-pair diagrams with up to 2^k leaves."""
    rng = random.Random(seed)
    powers = (1, -1, 2, -2, 1 << (k - 1), -(1 << (k - 1)))
    out = []
    for i in range(count):
        if i % 2 == 0:
            out.append(_random_perm_element(rng, rng.randint(0, k))
                       * u(rng.choice(powers))
                       * _random_perm_element(rng, rng.randint(0, k)))
        else:
            n = rng.randint(1, 1 << k)
            out.append(to_element(Diagram(
                _random_tree(rng, n), _random_tree(rng, n),
                tuple(rng.sample(range(n), n)),
                tuple(rng.randint(-2, 2) for _ in range(n)))))
    return out


LEVEL2_MENU = u_templates_labeled(2)


@pytest.mark.parametrize("label, template", LEVEL2_MENU,
                         ids=[label for label, _ in LEVEL2_MENU])
def test_level2_menu_matches_sweep(label, template):
    expected = sweep(2, template)
    assert found(2, template) == expected
    # the same operator written with longer words
    assert found(2, normalize(template, 5)) == expected


def test_level3_results_do_not_depend_on_the_written_form():
    for label, template in u_templates_labeled(3)[:6]:  # U+, U-, M1:0 .. M2:1
        assert found(3, normalize(template, 6)) == found(3, template), label


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("power", [1, -1])
def test_low_levels_match_sweep(k, power):
    assert found(k, u(power)) == sweep(k, u(power))


def test_random_level2_templates_match_sweep():
    hits = 0
    for template in random_templates(2, 40, seed=1):
        assert is_unitary(template)
        expected = sweep(2, template)
        assert found(2, template) == expected
        hits += bool(expected)
    assert hits >= 5  # not only templates that nothing extends


def test_random_level3_templates_match_sweep():
    hits = 0
    for template in random_templates(3, 4, seed=5):
        assert is_unitary(template)
        expected = sweep(3, template)
        assert found(3, template) == expected
        hits += bool(expected)
    assert hits >= 1


def test_template_with_a_zero_that_cancels_only_when_split():
    # 1 - (the sum of P[v] over the 4-letter v) is zero once 1 is split,
    # yet it stays in the stored terms: Utilde S_w then starts with the
    # stored term S_w, which must not stand in for the image
    hidden_zero = one() - sum((proj(v) for v in all_words(4)), zero())
    for power in (2, -2):
        expected = found(3, u(power))
        assert expected and found(3, hidden_zero + u(power)) == expected


def test_results_come_in_lex_order():
    # the sweep's order; the search meets some of these results in another
    for template in random_templates(3, 60, seed=2):
        perms = found(3, template)
        assert perms == sorted(set(perms))


def test_non_unitary_template_is_refused():
    # no permutation satisfies ext1 here, so the refusal must come first
    with pytest.raises(DomainError, match="unitary"):
        enumerate_extendible(3, parse_element("U^4 + U"))


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("extra, name", [([], "enumerate_level3.txt"),
                                         (["--json"], "enumerate_level3.json")])
def test_level3_menu_matches_recorded_sweep(extra, name):
    # recorded from the full sweep over all 40,320 permutations per template
    argv = ["enumerate", "--level", "3", "--all-templates"] + extra
    assert _stdout(argv) == (GOLDEN / name).read_text()


def test_constructive_menu_builds_no_template(monkeypatch):
    # each family is read off the label's kind, so no template element is
    # built
    want = list(endo.enumerate_menu(3, "constructive"))

    def refuse(*_args):
        raise AssertionError("a template element was built")

    monkeypatch.setattr(endo, "_kind_template", refuse)
    assert list(endo.enumerate_menu(3, "constructive")) == want
    assert len(want) == 112


# the search pruned by ext2 ------------------------------------------------------

def forced_by_eq(k, template):
    """{a: b} over lex indices with eq(Utilde S_a, S_b), every length-k
    word b tried: the forced map by Element products, with no shortcut."""
    words = all_words(k)
    return {a: b for a, w in enumerate(words)
            for b, v in enumerate(words) if eq(template * s(w), s(v))}


def ext1_candidates(k, template):
    """The level-k permutations that satisfy ext1, as the search finds them
    before it checks ext2: rho(2y) over the forced images, rho(1y) forced,
    collisions pruned; at level 0 the only permutation there is."""
    if k == 0:
        yield (0,)
        return
    half = 1 << (k - 1)
    forced = forced_by_eq(k, template)
    perm = [0] * (2 * half)
    used = [False] * (2 * half)

    def place(j):
        if j == half:
            yield tuple(perm)
            return
        for a, b in forced.items():
            if used[a] or used[b] or a == b:
                continue
            used[a] = used[b] = True
            perm[half + j], perm[j] = a, b
            yield from place(j + 1)
            used[a] = used[b] = False

    yield from place(0)


def ext1_search(k, template):
    return sorted(perm for perm in ext1_candidates(k, template)
                  if all(extension_parts_by_products(PermUnitary(k, perm),
                                                     template)))


def image_by_action(x):
    """(v, q) with x = S_v U^q, or None when x is no such monomial, for an
    isometry x that maps each e_n to one e_g(n).  S_v U^q sends e_n to
    e_(2^|v| (n + q) + t(v)), so g(0) and g(1) name the one candidate, and
    eq decides it."""
    ((_c, g0),), ((_c, g1),) = apply_basis(x, 0), apply_basis(x, 1)
    slope = g1 - g0
    if slope < 1 or slope & (slope - 1):
        return None
    length = slope.bit_length() - 1
    q, t = divmod(g0, slope)
    v = decode(length, t)
    return (v, q) if eq(x, Element({Monomial(v, q, ()): 1})) else None


def image_cases():
    """(k, template) pairs in W: the level-2 and level-3 menus, seeded
    random templates (products p U^j q, which are stored unreduced, and
    random diagrams with |alpha| != |beta|), menu entries re-expanded, and
    a template with a zero that cancels only when split."""
    hidden_zero = one() - sum((proj(v) for v in all_words(4)), zero())
    cases = [(k, t) for k in (2, 3) for _label, t in u_templates_labeled(k)]
    assert len(cases) == 62
    cases += [(k, t) for k in (2, 3) for t in random_templates(k, 40, seed=9)]
    cases += [(3, normalize(t, 5)) for _label, t in u_templates_labeled(3)[:14]]
    cases += [(3, hidden_zero + u(4)), (3, hidden_zero + u(-4))]
    return cases


def test_image_matches_the_element_product_on_every_short_word():
    shapes = {"none": 0, "charged": 0, "longer": 0, "shorter": 0}
    for k, template in image_cases():
        image = endo._image(template)
        for n in range(k + 3):
            for w in all_words(n):
                hit = image(w)
                assert hit == image_by_action(template * s(w)), (template, w)
                if hit is None:
                    shapes["none"] += 1
                else:
                    shapes["charged"] += hit[1] != 0
                    shapes["longer" if len(hit[0]) > n else "shorter"] += \
                        len(hit[0]) != n
    # each shape of answer is met
    assert min(shapes.values()) > 0, shapes


def test_image_refuses_a_template_outside_w():
    for template in (u(4).scale(2), -u(-4), parse_element("U^4 + U")):
        with pytest.raises(DomainError, match="W"):
            endo._image(template)


def test_ext2_pruning_keeps_the_ext1_search_results():
    cases = [(k, t) for k in (2, 3) for _label, t in u_templates_labeled(k)]
    assert len(cases) == 62
    cases += [(2, t) for t in random_templates(2, 40, seed=1)]
    cases += [(3, t) for t in random_templates(3, 60, seed=2)]
    cases += [(0, u(1)), (1, u(-1))]
    hits = 0
    for k, template in cases:
        expected = ext1_search(k, template)
        assert found(k, template) == expected
        hits += bool(expected)
    assert hits >= 70


def test_forced_images_match_eq_on_every_word():
    # ext1 reads Utilde S_a = S_b off the lookup, as (b, 0); here against
    # eq on every pair of length-k words
    hidden_zero = one() - sum((proj(v) for v in all_words(4)), zero())
    cases = [(k, t) for k in (2, 3) for _label, t in u_templates_labeled(k)]
    cases += [(3, t) for t in random_templates(3, 60, seed=2)]
    # a zero that cancels only when split
    cases += [(3, hidden_zero + u(4)), (3, hidden_zero + u(-4))]
    sizes = set()
    for k, template in cases:
        image = endo._image(template)
        words = all_words(k)
        looked_up = {a: b for a, w in enumerate(words)
                     for b, v in enumerate(words) if image(w) == (v, 0)}
        forced = forced_by_eq(k, template)
        assert looked_up == forced, template
        sizes.add(len(forced))
    # empty, partial and full forced maps are all met
    assert {0, 8} <= sizes and len(sizes) > 2, sizes


def test_only_ext2_survivors_reach_the_extension_checker(monkeypatch):
    template = mixed_template(3, 1, 1)
    assert len(list(ext1_candidates(3, template))) == 24
    calls = []

    def counted(pu, u_tilde):
        calls.append(pu.perm)
        return all(extension_parts_by_products(pu, u_tilde))

    monkeypatch.setattr(endo, "check_extension", counted)
    assert len(found(3, template)) == 4
    assert len(calls) == 4


def random_perms(rng, k, count):
    return [PermUnitary(k, tuple(rng.sample(range(1 << k), 1 << k)))
            for _ in range(count)]


def test_the_checker_matches_the_element_products():
    # check_extension_parts decides both equations on the leaf map; the
    # Element products are the reference, on every u at levels 0 and 1,
    # the menus' results and random u at levels 2 and 3, and 40 level-4
    # templates with family members and random u
    rng = random.Random(33)
    cases = [(PermUnitary(k, perm), t) for k in (0, 1)
             for perm in permutations(range(1 << k))
             for t in [u(1), u(-1), u(2), flip_flop()]
             + random_templates(1, 8, seed=4)]
    for k in (2, 3):
        templates = [t for _label, t in u_templates_labeled(k)]
        templates += random_templates(k, 40, seed=k)
        for t in templates:
            members = enumerate_extendible(k, t) + random_perms(rng, k, 30)
            cases += [(pu, t) for pu in members]
    labels = list(template_labels(4))
    level4 = [parse_template(4, label)[1]
              for label in labels[:8] + rng.sample(labels[8:], 24)]
    for t in level4:
        members = constructive_family(4, t)
        cases += [(pu, t) for pu in rng.sample(members, min(5, len(members)))
                  + random_perms(rng, 4, 5)]
    for t in random_templates(4, 8, seed=6):
        cases += [(pu, t) for pu in random_perms(rng, 4, 5)]
    verdicts = {}
    for pu, t in cases:
        parts = check_extension_parts(pu, t)
        assert parts == extension_parts_by_products(pu, t), (pu, t)
        verdicts.setdefault((pu.level == 4, parts), []).append(pu)
    assert len(cases) > 4000 and len(level4) == 32
    # each pair of truth values is met, and level 4 has both verdicts
    assert {parts for _deep, parts in verdicts} == \
        {(True, True), (True, False), (False, True), (False, False)}, verdicts.keys()
    assert len(verdicts[True, (True, True)]) > 50
    assert len(verdicts[True, (False, False)]) > 100


def test_level4_brute_force_matches_the_families():
    # construction equals classification for all 8 pure and mixed level-4
    # templates (U+ and U- take a few seconds each) and for a sample of
    # inner ones
    rng = random.Random(13)
    labels = list(template_labels(4))
    with time_limit(60, "level-4 brute force on 14 templates"):
        for label in labels[:8] + rng.sample(labels[8:], 6):
            _kind, template = parse_template(4, label)
            family = {pu.perm for pu in constructive_family(4, template)}
            assert set(found(4, template)) == family, label
            if label.startswith("M"):
                assert len(family) == 576, label


# reading a template's kind -------------------------------------------------------

def menu_scan(k, template):
    """The kind of the first menu entry equal to the template, by eq down
    the whole menu."""
    for label in template_labels(k):
        kind, element = parse_template(k, label)
        if eq(template, element):
            return kind
    return None


def test_template_kind_agrees_with_the_menu_scan():
    for k in (2, 3):
        for label in template_labels(k):
            kind, template = parse_template(k, label)
            assert endo._template_kind(k, template) == kind, label
            assert menu_scan(k, template) == kind, label
            # the same operator written deeper
            deep = normalize(template, k + 2)
            assert endo._template_kind(k, deep) == kind, label
        others = random_templates(k, 60, seed=3) + [-u(1), u(3), one()]
        for template in others:
            assert endo._template_kind(k, template) == menu_scan(k, template)
    rng = random.Random(4)
    labels = list(template_labels(4))
    with time_limit(10, "the kind of 200 level-4 menu entries"):
        for label in labels[:8] + rng.sample(labels[8:], 200):
            kind, template = parse_template(4, label)
            assert endo._template_kind(4, template) == kind, label


def test_template_kind_of_an_off_menu_element_is_found_quickly():
    # each of these takes seconds of eq down the 80,648-entry level-4 menu
    # and matches no entry there; the charge leaves at most six candidates
    p = perm_unitary_from_cycles(3, "(1 2)").element
    off_menu = [one(), flip_flop(), flip_flop() * u(8), p * u(1),
                u(-1) * p, u(3), -u(1)]
    with time_limit(5, "the kind of off-menu level-4 elements"):
        for template in off_menu:
            assert endo._template_kind(4, template) is None


def test_template_kind_past_the_menu_level():
    # at level 5 the menu cannot be listed (its inner section has 2 * 16!
    # entries), but the charge still names the candidate, so an element
    # template finds its kind there and an off-menu one gets None
    p = perm_unitary_from_cycles(4, "(1 5 3)(2 16)")
    q = perm_unitary_from_cycles(4, "(1 2)").element
    with time_limit(5, "the kind of level-5 elements"):
        for with_flip in (False, True):
            template = endo._inner_image(p, with_flip)
            assert endo._template_kind(5, template) == \
                ("inner", p.perm, with_flip)
        assert endo._template_kind(5, mixed_template(5, 2, 1)) == \
            ("mixed", 2, 1)
        assert endo._template_kind(5, u(-16)) == ("pure", -1)
        for template in (q * u(1), u(-1) * q, flip_flop(), u(3)):
            assert endo._template_kind(5, template) is None
