"""The three benchmark workloads: seeded inputs, the timed op, the reference.

Each workload is a closed loop with one client.  `inputs(seed)` yields an
endless, seed-determined stream of inputs built by this file alone, so the
library only ever receives finished Elements, Diagrams and templates.
`op` is the timed call into the library.  `check` runs outside the timed
region and returns None when the op's output agrees with a reference that
does not come from the timed code path, or a short description of the
mismatch.

Library functions are always reached through their module attribute
(`element.eq`, `wgroup.group_mul`, ...) so that the traced run, which
patches those attributes, sees every call.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from qu2 import canrep, element, endo, wgroup
from qu2.element import Element
from qu2.monomial import Monomial
from qu2.wgroup import Diagram

from coldstart import template_menu

Word = Tuple[int, ...]


# -- helpers that stay independent of the library's own arithmetic ----------

def _word(rng: random.Random, length: int) -> Word:
    return tuple(rng.choice((1, 2)) for _ in range(length))


def _offset(w: Word) -> int:
    """t(w): the word read as a dyadic number, leftmost letter least significant."""
    return sum(1 << j for j, letter in enumerate(w) if letter == 1)


def _split(m: Monomial) -> Tuple[Monomial, Monomial]:
    """The relation S_a U^k S_b* = sum over one more letter (charge parity rule)."""
    a, k, b = m
    half, odd = divmod(k, 2)
    if odd:
        return (Monomial(a + (1,), half, b + (2,)),
                Monomial(a + (2,), half + 1, b + (1,)))
    return (Monomial(a + (1,), half, b + (1,)),
            Monomial(a + (2,), half, b + (2,)))


def _collect(pairs) -> Dict[Monomial, Fraction]:
    acc: Dict[Monomial, Fraction] = {}
    for m, c in pairs:
        new = acc.get(m, 0) + c
        if new:
            acc[m] = new
        else:
            acc.pop(m, None)
    return acc


def _expand_to(e: Element, depth: int) -> Element:
    """Rewrite every term until its beta word has `depth` letters."""
    out = []
    for m, c in e.terms.items():
        stack = [m]
        while stack:
            cur = stack.pop()
            if len(cur.beta) < depth:
                stack.extend(_split(cur))
            else:
                out.append((cur, c))
    return Element(_collect(out))


def _random_term(rng, beta_len: Optional[int] = None, nonzero=False,
                 max_len=6, max_charge=32):
    alpha = _word(rng, rng.randint(0, max_len))
    beta = _word(rng, rng.randint(0, max_len) if beta_len is None else beta_len)
    num = rng.choice((-3, -2, -1, 1, 2, 3)) if nonzero else rng.randint(-3, 3)
    coeff = Fraction(num, rng.choice((1, 2, 3, 4)))
    return Monomial(alpha, rng.randint(-max_charge, max_charge), beta), coeff


def _random_element(rng: random.Random, n_terms: Optional[int] = None) -> Element:
    """Criterion 6's distribution: 1-16 terms drawn, words <= 6 letters,
    charges in [-32, 32], small rational coefficients."""
    n_terms = n_terms or rng.randint(1, 16)
    return Element(_collect(_random_term(rng) for _ in range(n_terms)))


def _strata(rng: random.Random, *levels) -> Iterator[tuple]:
    """Stratified draws: each block of len(levels[0]) draws uses every entry
    of every list exactly once (the lists have equal length), each list
    shuffled on its own.  The mix of sizes and kinds is then the same in
    every stretch of a run, and the seed only picks the content."""
    while True:
        columns = [list(level) for level in levels]
        for column in columns:
            rng.shuffle(column)
        yield from zip(*columns)


def _image(e: Element, n: int) -> Dict[int, Fraction]:
    return {i: c for c, i in canrep.apply_basis(e, n)}


def _compose(outer: Element, inner: Element, n: int) -> Dict[int, Fraction]:
    """(outer * inner) e_n computed pointwise on l^2(Z)."""
    pairs = []
    for i, c in _image(inner, n).items():
        pairs.extend((j, c * c2) for j, c2 in _image(outer, i).items())
    return _collect(pairs)


# -- algebra --------------------------------------------------------------------

class Pair(NamedTuple):
    a: Element
    b: Element
    kind: str
    expected: Optional[bool]  # verdict known by construction, else None
    probes: Tuple[int, ...]   # basis indices where the product is checked


class Algebra:
    """Seeded element pairs; one op is eq(a, b) followed by a * b.

    Most pairs follow criterion 6 (re-expanded deeper, reordered, one
    coefficient perturbed, or independent, in the proportions of KINDS),
    with the kind and the term count of `a` drawn in strata of 80 pairs.
    Every DEEP_EVERY-th pair is
    deep: three shallow terms with beta words of SHALLOW_BETAS letters plus
    one term whose beta word has d letters, d cycling through DEEP_DEPTHS.
    Fixing the shallow beta lengths fixes how many terms a deep pair
    expands into at each d, and with one deep pair in 40 the 99th
    percentile falls inside the d = 12 group rather than on the edge
    between two groups, which keeps latency_p99_ms steadier across seeds.
    """

    name = "algebra"
    cap_s = 5.0            # per op; a deep eq at d = 13 takes ~0.1 s
    round = 1
    trace_ops = 2000
    DEEP_EVERY = 40
    DEEP_DEPTHS = (10, 11, 12, 13)
    SHALLOW_BETAS = (1, 2, 3)
    KINDS = ("deeper",) * 20 + ("reordered",) * 12 + ("perturbed",) * 12 \
        + ("independent",) * 36

    def setup(self):
        return None

    def inputs(self, seed: int) -> Iterator[Pair]:
        rng = random.Random(seed)
        shallow = _strata(rng, self.KINDS, list(range(1, 17)) * 5)
        for i in itertools.count():
            if i % self.DEEP_EVERY == self.DEEP_EVERY - 1:
                depth = self.DEEP_DEPTHS[(i // self.DEEP_EVERY) % len(self.DEEP_DEPTHS)]
                yield self._deep_pair(rng, depth)
            else:
                yield self._shallow_pair(rng, *next(shallow))

    def _probes(self, rng, b: Element) -> Tuple[int, ...]:
        picks = [rng.randint(-64, 64), rng.randint(-64, 64)]
        betas = [m.beta for m in b.terms] or [()]
        for _ in range(2):
            beta = rng.choice(betas)
            picks.append(_offset(beta) + (rng.randint(-4, 4) << len(beta)))
        return tuple(picks)

    def _shallow_pair(self, rng, kind: str, n_terms: int) -> Pair:
        a = _random_element(rng, n_terms)
        if kind == "perturbed" and not a.terms:
            kind = "independent"
        if kind == "deeper":
            expected = True
            b = _expand_to(a, min(a.depth() + rng.randint(0, 2), 6))
        elif kind == "reordered":
            expected = True
            items = list(a.terms.items())
            rng.shuffle(items)
            b = Element(dict(items))
        elif kind == "perturbed":
            expected = False
            items = dict(a.terms)
            items[rng.choice(list(items))] += Fraction(1, 5)
            b = Element(_collect(items.items()))
        else:
            expected = None
            b = _random_element(rng)
        return Pair(a, b, kind, expected, self._probes(rng, b))

    def _deep_pair(self, rng, depth: int) -> Pair:
        terms = [_random_term(rng, n, nonzero=True)
                 for n in self.SHALLOW_BETAS + (depth,)]
        a = Element(_collect(terms))
        deep = terms[-1][0]
        roll = rng.random()
        if roll < 1 / 3:
            kind, expected = "deep-reordered", True
            items = list(a.terms.items())
            rng.shuffle(items)
            b = Element(dict(items))
        elif roll < 2 / 3:
            # re-expand one shallow term, so the common depth stays d
            kind, expected = "deep-deeper", True
            shallow = rng.choice([m for m in a.terms if m != deep])
            b = Element(_collect(
                [(m, c) for m, c in a.terms.items() if m != shallow]
                + [(half, a.terms[shallow]) for half in _split(shallow)]))
        else:
            kind, expected = "deep-perturbed", False
            items = dict(a.terms)
            items[rng.choice(list(items))] += Fraction(1, 5)
            b = Element(_collect(items.items()))
        return Pair(a, b, kind, expected, self._probes(rng, b))

    def op(self, state, pair: Pair):
        return element.eq(pair.a, pair.b), pair.a * pair.b

    def expected_verdict(self, pair: Pair) -> bool:
        """The verdict a pair was built to have (re-expanded and reordered
        pairs are equal, a perturbed coefficient makes them unequal);
        independent pairs ask the l^2(Z) oracle."""
        if pair.expected is not None:
            return pair.expected
        return canrep.semantic_eq(pair.a, pair.b)

    def check(self, pair: Pair, out) -> Optional[str]:
        verdict, product = out
        if verdict != self.expected_verdict(pair):
            return f"eq gave {verdict} on a {pair.kind} pair"
        for n in pair.probes:
            if _image(product, n) != _compose(pair.a, pair.b, n):
                return f"a * b differs from the oracle at e_{n} ({pair.kind} pair)"
        return None


# -- diagrams -------------------------------------------------------------------

def _random_tree(rng, n: int):
    """Criteria 7 and 8's trees: split the n leaves at a uniform cut."""
    if n == 1:
        return 0
    cut = rng.randint(1, n - 1)
    return (_random_tree(rng, cut), _random_tree(rng, n - cut))


def _tree_depth(tree) -> int:
    return 0 if tree == 0 else 1 + max(_tree_depth(tree[0]), _tree_depth(tree[1]))


@functools.lru_cache(maxsize=None)
def _depth_law(n: int) -> Dict[int, Fraction]:
    """The exact distribution of _random_tree(rng, n)'s depth."""
    if n == 1:
        return {0: Fraction(1)}
    law: Dict[int, Fraction] = {}
    for cut in range(1, n):
        for d1, p1 in _depth_law(cut).items():
            for d2, p2 in _depth_law(n - cut).items():
                d = max(d1, d2) + 1
                law[d] = law.get(d, 0) + p1 * p2 / (n - 1)
    return law


class _TreePairs:
    """Pairs (T+, T-) of _random_tree's trees with their depths stratified
    jointly: per leaf count, each block holds every pair of depths in
    exactly its probability (a block is 15 x 15 pairs for 6 leaves), and
    each tree of the block's next pair is drawn from _random_tree by
    rejection.  An op's cost grows about as 2 to the power of its first
    diagram's depth sum, so this is what steadies the tail."""

    def __init__(self, rng):
        self.rng = rng
        self.streams = {}

    def pair(self, n: int):
        if n not in self.streams:
            law = _depth_law(n)
            block = math.lcm(*(p.denominator for p in law.values()))
            depths = [d for d, p in law.items() for _ in range(int(p * block))]
            self.streams[n] = _strata(self.rng, list(itertools.product(depths, depths)))
        (depths,) = next(self.streams[n])
        return tuple(self._tree(n, depth) for depth in depths)

    def _tree(self, n: int, depth: int):
        while True:
            tree = _random_tree(self.rng, n)
            if _tree_depth(tree) == depth:
                return tree


def _random_diagram(rng, trees: _TreePairs, n: int, max_charge=8) -> Diagram:
    tau = list(range(n))
    rng.shuffle(tau)
    v = tuple(rng.randint(-max_charge, max_charge) for _ in range(n))
    return Diagram(*trees.pair(n), tuple(tau), v)


def _leaf_words(tree, path: Word = ()) -> List[Word]:
    if tree == 0:
        return [path]
    return _leaf_words(tree[0], path + (1,)) + _leaf_words(tree[1], path + (2,))


def _diagram_operator(d: Diagram) -> Element:
    """The unitary sum_p S_{leaf p of T+} U^{v_p} S_{leaf tau(p) of T-}*,
    built here rather than by wgroup.to_element."""
    plus, minus = _leaf_words(d.t_plus), _leaf_words(d.t_minus)
    return Element({Monomial(plus[p], d.v[p], minus[d.tau[p]]): 1
                    for p in range(len(plus))})


class Triple(NamedTuple):
    d1: Diagram
    d2: Diagram
    d3: Diagram
    probes: Tuple[int, ...]


class Diagrams:
    """Seeded triples of random tree-pair diagrams (criteria 7 and 8: 1-6
    leaves, charges in [-8, 8]), with each diagram's leaf count drawn in
    strata of 6 triples and its trees' depths stratified by _Trees.  One op computes (d1 d2) d3 and d1 d1^-1 with
    group_mul / group_inv, then bd_v_factor of d1's unitary and putnam_form
    of its diagonal factor."""

    name = "diagrams"
    cap_s = 2.0            # per op; an op takes ~1 ms
    round = 1
    trace_ops = 2000

    def setup(self):
        return None

    def inputs(self, seed: int) -> Iterator[Triple]:
        rng = random.Random(seed)
        # one tree source per diagram of the triple, so each is stratified
        sources = [_TreePairs(rng) for _ in range(3)]
        leaves = range(1, 7)
        for counts in _strata(rng, leaves, leaves, leaves):
            ds = [_random_diagram(rng, trees, n) for trees, n in zip(sources, counts)]
            yield Triple(*ds, tuple(rng.randint(-64, 64) for _ in range(4)))

    def op(self, state, t: Triple):
        prod = wgroup.group_mul(wgroup.group_mul(t.d1, t.d2), t.d3)
        unit = wgroup.group_mul(t.d1, wgroup.group_inv(t.d1))
        w = wgroup.to_element(t.d1)
        bd, v = element.bd_v_factor(w)
        return prod, unit, bd, v, element.putnam_form(bd)

    def check(self, t: Triple, out) -> Optional[str]:
        prod, unit, bd, v, putnam = out
        if unit != wgroup.identity_diagram():
            return "d1 d1^-1 does not reduce to the identity diagram"
        if wgroup.group_mul(t.d1, wgroup.group_mul(t.d2, t.d3)) != prod:
            return "(d1 d2) d3 differs from d1 (d2 d3)"
        if sum(prod.v) != sum(t.d1.v) + sum(t.d2.v) + sum(t.d3.v):
            return "charge is not additive"
        w = _diagram_operator(t.d1)
        if not element.eq(bd * v, w):
            return "bd * v differs from d1's unitary"
        p_op = _diagram_operator(prod)
        factors = [_diagram_operator(d) for d in (t.d3, t.d2, t.d1)]
        for n in t.probes:
            # (d1 d2 d3) e_n, one factor at a time on l^2(Z)
            chain = {n: 1}
            for f in factors:
                chain = _collect((j, c * c2) for i, c in chain.items()
                                 for j, c2 in _image(f, i).items())
            if _image(p_op, n) != chain:
                return f"(d1 d2) d3 acts wrongly on e_{n}"
            # bd = sum_j p_j U^{n_j}, evaluated at e_n
            want = _collect((j, c) for p, shift in putnam
                            for j, c in _image(p, n + shift).items())
            if _image(bd, n) != want:
                return f"putnam form of bd differs from bd at e_{n}"
        return None


# -- sweep ----------------------------------------------------------------------

class Sweep:
    """Brute-force classification: one op is enumerate_extendible(level, T,
    mode="brute") for one template T of criterion 3's menu, serially.
    Each run sweeps whole rounds of the menu in a seeded order, so every run
    measures the same mix of templates."""

    name = "sweep"
    cap_s = 30.0           # per op; a level-3 template takes ~4-7 s
    trace_ops = 2

    def __init__(self, level: int = 3):
        self.level = level
        self.round = 2 * (level - 1) + 2

    def setup(self) -> Dict[str, Element]:
        return template_menu(self.level)

    def expected_count(self, label: str) -> int:
        """Closed-form family sizes: (2^(k-1))! per pure sign and
        (2^(k-h-2))!^2 4^h per mixed variant."""
        k = self.level
        if label in ("U+", "U-"):
            return math.factorial(1 << (k - 1))
        h = int(label.split(":")[1])
        return math.factorial(1 << (k - h - 2)) ** 2 * 4 ** h

    def inputs(self, seed: int) -> Iterator[str]:
        rng = random.Random(seed)
        labels = [f"M{v}:{h}" for h in range(self.level - 1) for v in (1, 2)]
        labels = ["U+", "U-"] + labels
        while True:
            rng.shuffle(labels)
            yield from list(labels)

    def op(self, menu, label: str):
        found = endo.enumerate_extendible(self.level, menu[label], mode="brute", jobs=1)
        return label, frozenset(pu.perm for pu in found)

    def check(self, label: str, out) -> Optional[str]:
        _label, found = out
        template = self.setup()[label]
        family = {pu.perm for pu in endo.constructive_family(self.level, template)}
        if len(family) != self.expected_count(label):
            return f"{label}: constructive family has {len(family)} members"
        if found != family:
            return f"{label}: brute force found {len(found)}, family has {len(family)}"
        return None


WORKLOADS = {"algebra": Algebra, "diagrams": Diagrams, "sweep": Sweep}
