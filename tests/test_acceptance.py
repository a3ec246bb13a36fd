"""Acceptance suite: one test per headline claim, with runtime bounds.

Each test reproduces one published result or structural guarantee end to
end (classification tables, counting formulas, the phi-tower, oracle
agreement, group laws, the normalizer factorization, and the phase
gadget).  Run with -v to get one pass/fail line per criterion.
"""

import random
import time
from fractions import Fraction

from qu2.canrep import BasisVector, phase_apply, semantic_eq
from qu2.cli import _table_path
from qu2.element import (
    Element,
    eq,
    flip_flop,
    membership,
    normalize,
    one,
    parse_element,
    phi,
    putnam_form,
    bd_v_factor,
    u as u_element,
)
from qu2.endo import (
    check_extension_parts,
    enumerate_extendible,
    identity_perm,
    make_u_p,
    mixed_template,
    perm_to_cycles,
    perm_unitary_from_cycles,
    perm_unitary_from_element,
    run_verify_counts,
    run_verify_table,
    u_templates_labeled,
)
from qu2.monomial import Monomial
from qu2.wgroup import (
    Diagram,
    charge,
    group_inv,
    group_mul,
    identity_diagram,
    reduce as diagram_reduce,
    to_element,
)

# the ten extendible (template, unitary) pairs at level 2
LEVEL2_PAIRS = [
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


def test_criterion_1_level2_classification():
    t0 = time.monotonic()
    found = []
    for label, template in u_templates_labeled(2):
        for pu in enumerate_extendible(2, template, mode="brute"):
            found.append((label, perm_to_cycles(pu.perm)))
    assert sorted(found) == sorted(LEVEL2_PAIRS)

    # near misses: first extension equation holds, second fails
    m1, m2 = mixed_template(2, 0, 1), mixed_template(2, 0, 2)
    u134 = perm_unitary_from_cycles(2, "(1 3 4)")
    u142 = perm_unitary_from_cycles(2, "(1 4 2)")
    u123 = perm_unitary_from_cycles(2, "(1 2 3)")
    u243 = perm_unitary_from_cycles(2, "(2 4 3)")
    assert check_extension_parts(u134, m2) == (True, False)
    assert check_extension_parts(u142, m1) == (True, False)
    assert check_extension_parts(u123, m2) == (True, True)
    assert check_extension_parts(u243, m1) == (True, True)
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_appendix_table():
    t0 = time.monotonic()
    total, failures = run_verify_table(_table_path(None))
    assert (total, failures) == (40, [])
    assert time.monotonic() - t0 < 10.0


def test_criterion_3_level3_brute_force():
    t0 = time.monotonic()
    menu = [
        (u_element(4), 24),
        (u_element(-4), 24),
        (mixed_template(3, 0, 1), 4),
        (mixed_template(3, 0, 2), 4),
        (mixed_template(3, 1, 1), 4),
        (mixed_template(3, 1, 2), 4),
    ]
    brute_u4 = None
    for template, expected in menu:
        brute = {pu.perm for pu in
                 enumerate_extendible(3, template, mode="brute")}
        cons = {pu.perm for pu in
                enumerate_extendible(3, template, mode="constructive")}
        assert len(cons) == expected
        assert cons <= brute
        if brute_u4 is None:
            brute_u4 = brute

    # every table row with trivial block structure reappears in the U^4 set
    rows_u4 = []
    with open(_table_path(None)) as f:
        for line in f:
            cycles, elem, tilde = line.rstrip("\n").split("\t")
            if tilde == "U^4":
                rows_u4.append(perm_unitary_from_element(parse_element(elem)))
    assert len(rows_u4) == 24
    assert {pu.perm for pu in rows_u4} <= brute_u4
    assert time.monotonic() - t0 < 600.0


def test_criterion_4_count_formulas():
    t0 = time.monotonic()
    for level in (2, 3, 4):
        report, _ = run_verify_counts(level, sample=1000)
        assert all(ok for *_, ok in report), report
        assert all(count == expected for _, count, expected, _ in report)
    assert time.monotonic() - t0 < 300.0


def test_criterion_5_phi_tower():
    f = flip_flop()
    big_f = parse_element(
        "S[11] S*[11] + S[12] S*[21] + S[21] S*[12] + S[22] S*[22]"
    )
    tower = big_f  # the unitary implementing phi^(k-1), grown iteratively
    for k in range(2, 6):
        plus = make_u_p(identity_perm(1 << (k - 1)), +1)
        minus = make_u_p(identity_perm(1 << (k - 1)), -1)
        assert eq(plus.element, tower)
        assert eq(minus.element * f, plus.element)
        tower = phi(tower) * big_f


def _random_element(rng, max_len=6, max_terms=16, max_charge=32):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = tuple(rng.choice((1, 2))
                      for _ in range(rng.randint(0, max_len)))
        beta = tuple(rng.choice((1, 2))
                     for _ in range(rng.randint(0, max_len)))
        m = Monomial(alpha, rng.randint(-max_charge, max_charge), beta)
        c = terms.get(m, 0) + Fraction(rng.randint(-3, 3),
                                       rng.choice((1, 2, 3, 4)))
        if c:
            terms[m] = c
        else:
            terms.pop(m, None)
    return Element(terms)


def test_criterion_6_oracle_equivalence():
    rng = random.Random(2026)
    for _ in range(10_000):
        a = _random_element(rng)
        roll = rng.random()
        if roll < 0.25:
            # same element written at a deeper level
            b = normalize(a, min(a.depth() + rng.randint(0, 2), 6))
        elif roll < 0.40:
            # same terms in a different insertion order
            items = list(a.terms.items())
            rng.shuffle(items)
            b = Element(dict(items))
        elif roll < 0.55 and a.terms:
            # single-coefficient perturbation
            items = dict(a.terms)
            m = rng.choice(list(items))
            items[m] += Fraction(1, 5)
            b = Element(items)
        else:
            b = _random_element(rng)
        assert eq(a, b) == semantic_eq(a, b)


def _random_tree(rng, n):
    if n == 1:
        return 0
    cut = rng.randint(1, n - 1)
    return (_random_tree(rng, cut), _random_tree(rng, n - cut))


def _random_diagram(rng, max_leaves=6, max_charge=8):
    n = rng.randint(1, max_leaves)
    tau = list(range(n))
    rng.shuffle(tau)
    v = tuple(rng.randint(-max_charge, max_charge) for _ in range(n))
    return Diagram(_random_tree(rng, n), _random_tree(rng, n), tuple(tau), v)


def test_criterion_7_group_laws():
    rng = random.Random(516)
    e_d = identity_diagram()
    for _ in range(1000):
        d1 = _random_diagram(rng)
        d2 = _random_diagram(rng)
        d3 = _random_diagram(rng)
        left = to_element(group_mul(group_mul(d1, d2), d3))
        right = to_element(group_mul(d1, group_mul(d2, d3)))
        assert eq(left, right)
        assert eq(to_element(group_mul(d1, e_d)), to_element(d1))
        assert eq(to_element(group_mul(e_d, d1)), to_element(d1))
        assert eq(to_element(group_mul(d1, group_inv(d1))), one())
        assert eq(to_element(group_mul(group_inv(d1), d1)), one())
        assert charge(group_mul(d1, d2)) == charge(d1) + charge(d2)
        assert charge(diagram_reduce(d1)) == charge(d1)


def test_criterion_8_normalizer_structure():
    rng = random.Random(3055)
    for _ in range(1000):
        w = to_element(_random_diagram(rng))
        bd, v = bd_v_factor(w)
        assert membership(bd)["in_QT"]
        assert membership(v)["in_O2"]
        assert eq(bd * v, w)
        # both partition-of-unity conditions for the translation form
        domain = None
        range_ = None
        for p, n in putnam_form(bd):
            shifted = u_element(-n) * p * u_element(n)
            domain = p if domain is None else domain + p
            range_ = shifted if range_ is None else range_ + shifted
        assert eq(domain, one())
        assert eq(range_, one())


def test_criterion_9_phase_gadget():
    word = ["Uz", "U", "Uz*"]
    seen = set()
    for n in range(9):
        for a in range(1 << n):
            z = Fraction(a, 1 << n)
            if z in seen:
                continue
            seen.add(z)
            for k in range(-256, 257):
                assert phase_apply(z, word, k) == BasisVector(k + 1, z)
    assert len(seen) == 256
