"""enumerate_extendible's brute mode against a plain sweep.

The brute mode searches only the permutations that ext1 allows and then
verifies each with check_extension.  These tests hold it to the full sweep
over all (2^k)! permutations: a reference loop kept here, and the level-3
output of every menu template recorded from the sweep in tests/golden/.
"""

import contextlib
import io
import pathlib
import random
from itertools import permutations

import pytest

from qu2.cli import main
from qu2.element import is_unitary, normalize, one, parse_element, proj, u, zero
from qu2.endo import (
    PermUnitary,
    check_extension,
    enumerate_extendible,
    perm_unitary,
    u_templates_labeled,
)
from qu2.errors import DomainError
from qu2.wgroup import Diagram, to_element
from qu2.words import all_words

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
