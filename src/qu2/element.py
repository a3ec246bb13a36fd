"""Finite rational combinations of monomials, with exact normal forms.

An Element is a collected map Monomial -> nonzero coefficient, held as int
numerators over one denominator d (1 for an integral element and for the
empty map); all arithmetic is exact.  `terms` is the coefficient map.  An
Element built from a map keeps that map as `terms`; one made from
numerators (a product, -e, adjoint, phi, normalize) builds it on its first
read when d is not 1, each distinct numerator n becoming the Fraction n/d
once.  Products, eq, element_str and to_json read the numerators and build
no Fraction.  An integral coefficient may come back as an int or as a
Fraction; the two compare and hash equal.

Structural code reads the refined form: a term is expanded (expand_right)
only while its beta is a proper prefix of some beta present in the elements
at hand.  The betas left are prefix-free, and over a prefix-free set of
betas distinct triples (alpha, k, beta) are distinct affine maps on the
residue classes of their betas in l^2(Z), hence linearly independent; so
an element is zero iff its refined form has no term.  eq first sums the
refined terms of e1 - e2 at a longest beta, a leaf, and answers false if
they do not cancel; otherwise it reads the refined form one leaf of the
beta trie at a time, depth first, and stops at the first leaf whose terms
do not cancel (the witness of eq --explain).  Expanding a refined form
further never merges two terms, so unitarity, membership, total charge,
the Putnam form, the bd * v factorization and diagrams read it too, and a
64-letter beta costs its length, not 2^64 terms.  The uniform-depth form
(normalize) is only for a caller that asks for a depth.

`Element.__eq__` is structural: it compares the stored terms.  Operator
equality is `eq`, which holds across depths (`eq(u(), normalize(u(), 3))`
while `u() != normalize(u(), 3)`).
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import CapacityError, DomainError, ParseError
from .monomial import (Monomial, ONE, adjoint_mono, expand_right, mono_str,
                       new_monomial, u_pow)
from .words import (_TABLE, _TABLE_LEN, Word, carets, decode, is_partition,
                    offset, parse_word, word_str)

Coeff = object  # int | Fraction, kept exact throughout

# true iff every type of the iterable is exactly int
_ints = {int}.issuperset

# normalize refuses to write more terms than this (2^16: every beta of an
# element brought 16 letters deeper)
_MAX_TERMS = 1 << 16

# a product of more term pairs is refused before its loop.  On a 2-core VM
# 2^24 pairs take about 0.8 s when nearly all are orthogonal (two 4,096-term
# partitions of depth 12) and 12-17 s when all meet (two 4,096-term sums of
# powers of U)
_MAX_TERM_PAIRS = 1 << 24

# numerators over d != 1 become Fractions, when `terms` is first read,
# through this cache of the last 1,024 (numerator, denominator) pairs asked
# for: building a Fraction costs about 0.8 us, and small rationals recur
# from product to product
_fraction = lru_cache(maxsize=1 << 10)(Fraction)


def _add_terms(acc: Dict[Monomial, Coeff],
               pairs: Iterable[Tuple[Monomial, Coeff]]) -> Dict[Monomial, Coeff]:
    """Add (monomial, coefficient) pairs into acc, dropping monomials whose
    coefficients cancel."""
    for m, c in pairs:
        new = acc.get(m, 0) + c
        if new:
            acc[m] = new
        else:
            acc.pop(m, None)
    return acc


def _coeff_str(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def _term_order(item: Tuple[Monomial, Coeff]) -> Tuple[Word, Word, int]:
    (a, k, b), _c = item
    return a, b, k


class Element:
    """A finite sum  sum_i c_i * S_{alpha_i} U^{k_i} S_{beta_i}*, held as
    int numerators _num over one denominator _d.  _terms caches the
    coefficient map `terms`, None until its first read."""

    __slots__ = ("_num", "_d", "_terms")

    def __init__(self, terms: Optional[Dict[Monomial, Coeff]] = None):
        terms = {} if terms is None else terms
        num, d = terms, 1
        if not _ints(map(type, terms.values())):
            # over the lcm of the denominators the numerators have gcd 1
            d = lcm(*(c.denominator for c in terms.values()))
            num = {m: c.numerator * (d // c.denominator)
                   for m, c in terms.items()}
        self._num, self._d, self._terms = num, d, terms

    @property
    def terms(self) -> Dict[Monomial, Coeff]:
        if self._terms is None:
            d = self._d
            fracs = {n: _fraction(n, d) for n in set(self._num.values())}
            self._terms = {m: fracs[n] for m, n in self._num.items()}
        return self._terms

    @classmethod
    def from_terms(cls, pairs: Iterable[Tuple[Coeff, Monomial]]) -> "Element":
        return cls(_add_terms({}, ((m, c) for c, m in pairs)))

    @classmethod
    def mono(cls, m: Monomial, c: Coeff = 1) -> "Element":
        return cls({m: c}) if c else cls()

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        # structural: same stored terms at the same depth (use eq() for
        # operator equality across depths); numerators over d in lowest
        # terms are equal iff the coefficients are
        if not isinstance(other, Element):
            return NotImplemented
        return _over(self) == _over(other)

    __hash__ = None

    def depth(self) -> int:
        """Canonical depth: the longest beta word among stored terms."""
        return max((len(m.beta) for m in self._num), default=0)

    def sorted_terms(self) -> List[Tuple[Monomial, Coeff]]:
        return sorted(self.terms.items(), key=_term_order)

    # arithmetic ----------------------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        return Element(_add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "Element":
        return _element({m: -n for m, n in self._num.items()}, self._d)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __mul__(self, other: "Element") -> "Element":
        f1, d1 = _over(self)
        f2, d2 = _over(other)
        if len(f1) * len(f2) > _MAX_TERM_PAIRS:
            raise CapacityError(
                f"a product of {len(f1)} by {len(f2)} terms "
                f"has over 2^24 term pairs")
        # words as (|w|, t(w)): b1 is a prefix of a2 iff |b1| <= |a2| and
        # the low |b1| bits of t(a2) are t(b1), and the suffix past it has
        # offset t(a2) >> |b1|.  Each word is encoded once, and an
        # orthogonal pair costs one compare and no call.  A meeting pair
        # runs the odometer on one int v (carry v >> n, offset v & mask,
        # which is divmod for negative v too), reads its suffix word
        # straight from the word table (its offset is in range by
        # construction; past the table, decode) and builds its term in C
        # (new_monomial).  A pair's numerator is an int product, over
        # d1 * d2.
        right = [(len(a2), offset(a2), k2, b2, c2)
                 for (a2, k2, b2), c2 in f2.items()]
        acc: Dict[Monomial, int] = {}
        for (a1, k1, b1), c1 in f1.items():
            n1, t1 = len(b1), offset(b1)
            low1 = (1 << n1) - 1
            for n2, t2, k2, b2, c2 in right:
                if n1 <= n2:
                    if t2 & low1 != t1:
                        continue
                    # S_b1* S_a2 = S_g, then U^k1 S_g = S_g2 U^q
                    n = n2 - n1
                    v = (t2 >> n1) + k1
                    t = v & ((1 << n) - 1)
                    w = _TABLE[n][t] if n <= _TABLE_LEN else decode(n, t)
                    m = new_monomial((a1 + w, (v >> n) + k2, b2))
                else:
                    if t1 & ((1 << n2) - 1) != t2:
                        continue
                    # S_b1* S_a2 = S_d*, then S_d* U^k2 = U^-q S_d2*
                    n = n1 - n2
                    v = (t1 >> n2) - k2
                    t = v & ((1 << n) - 1)
                    w = _TABLE[n][t] if n <= _TABLE_LEN else decode(n, t)
                    m = new_monomial((a1, k1 - (v >> n), b2 + w))
                new = acc.get(m, 0) + c1 * c2
                if new:
                    acc[m] = new
                else:
                    acc.pop(m, None)
        return _element(acc, d1 * d2)

    def scale(self, c: Coeff) -> "Element":
        if not c:
            return Element()
        return Element({m: c0 * c for m, c0 in self.terms.items()})

    def adjoint(self) -> "Element":
        return _element({adjoint_mono(m): n for m, n in self._num.items()},
                        self._d)

    def __repr__(self) -> str:
        return f"Element({element_str(self)!r})"


def _element(num: Dict[Monomial, int], d: int) -> Element:
    """The Element of the int numerators num over d; `terms` is num itself
    when d is 1, and is built on its first read otherwise."""
    e = Element.__new__(Element)
    if not num:
        d = 1
    e._num, e._d, e._terms = num, d, num if d == 1 else None
    return e


def _over(e: Element) -> Tuple[Dict[Monomial, int], int]:
    """e's int numerators and denominator, divided by their gcd once (e
    keeps them so): a product's, made over d1 * d2, may share a factor."""
    num, d = e._num, e._d
    if d != 1:
        g = gcd(d, *num.values())
        if g != 1:
            num, d = e._num, e._d = {m: n // g for m, n in num.items()}, d // g
    return num, d


# named constructors ------------------------------------------------------

def zero() -> Element:
    return Element()

def one() -> Element:
    return Element({ONE: 1})

def u(k: int = 1) -> Element:
    return Element({u_pow(k): 1})

def s(w: Word) -> Element:
    return Element({Monomial(w, 0, ()): 1})

def s_star(w: Word) -> Element:
    return Element({Monomial((), 0, w): 1})

def proj(w: Word) -> Element:
    return Element({Monomial(w, 0, w): 1})

def flip_flop() -> Element:
    """f = S_1 S_2* + S_2 S_1*, the self-adjoint unitary swapping parities."""
    return Element({Monomial((1,), 0, (2,)): 1, Monomial((2,), 0, (1,)): 1})


# structural operations ---------------------------------------------------

def normalize(e: Element, depth: Optional[int] = None) -> Element:
    """Canonical form: every beta word brought to the same length.

    With depth=None the minimal common depth (longest stored beta) is used;
    an explicit depth below that is a DomainError since expansion only
    lengthens beta words.  A form of more than _MAX_TERMS terms is a
    CapacityError: a term with beta b becomes 2^(depth - |b|) terms.
    """
    min_depth = e.depth()
    if depth is None:
        depth = min_depth
    elif depth < min_depth:
        raise DomainError(f"depth {depth} below canonical depth {min_depth}")
    # one term 17 letters short is over the limit alone: cap the shift
    # there, so a huge depth does not build a huge integer
    if sum(1 << min(depth - len(m.beta), 17) for m in e._num) > _MAX_TERMS:
        raise CapacityError(f"the form at depth {depth} has over "
                            f"{_MAX_TERMS} terms")
    return _expand(e, lambda beta: len(beta) < depth)


def _expand(e: Element, inner: Callable[[Word], bool]) -> Element:
    """e with each term expanded while inner holds of its beta, its int
    numerators summed per leaf over e's denominator."""
    acc: Dict[Monomial, int] = {}
    for m, n in e._num.items():
        stack = [m]
        while stack:
            cur = stack.pop()
            if inner(cur[2]):
                stack.extend(expand_right(cur))
                continue
            new = acc.get(cur, 0) + n
            if new:
                acc[cur] = new
            else:
                acc.pop(cur, None)
    return _element(acc, e._d)


def _refine(e: Element) -> Element:
    """e on the refinement of its beta words: each term is expanded while
    its beta is a proper prefix of some beta present, so the betas left
    are prefix-free."""
    return _expand(e, carets({m.beta for m in e._num}).__contains__)


def _beta_groups(e1: Element, e2: Element) -> Tuple[Dict[Word, list], int]:
    """The terms of e1 - e2 grouped by beta, as rows (alpha, k, n) of int
    numerators n over one denominator d; returns (groups, d)."""
    f1, d1 = _over(e1)
    f2, d2 = _over(e2)
    d = d1 if d1 == d2 else lcm(d1, d2)
    by_beta: Dict[Word, list] = {}
    get = by_beta.get
    for terms, scale in ((f1, d // d1), (f2, -(d // d2))):
        for (a, k, b), n in terms.items():
            n *= scale
            row = get(b)
            if row is None:
                by_beta[b] = [(a, k, n)]
            else:
                row.append((a, k, n))
    return by_beta, d


def _leaf_cancels(by_beta: Dict[Word, list], leaf: Word) -> bool:
    """True iff the refined terms of the groups at leaf cancel, for a leaf
    that no beta of the groups extends (a longest one, say).

    A term S_a U^k S_p* whose p is a prefix of leaf = p c reaches the leaf
    as one monomial, S_a U^k S_c S_leaf* = S_{a c'} U^q S_leaf* with
    t(c) + k = 2^|c| q + t(c'): the child that expand_right's parity rule
    picks letter by letter, found as the product finds it, by one carry and
    one mask.  So the check costs |leaf| + 1 lookups and one sum per term
    above the leaf.
    """
    sums: Dict[Tuple[Word, int], int] = {}
    size, t_leaf = len(leaf), offset(leaf)
    get = by_beta.get
    for i in range(size + 1):
        rows = get(leaf[:i])
        if rows is None:
            continue
        n, t_c = size - i, t_leaf >> i
        mask = (1 << n) - 1
        for a, k, c in rows:
            v = t_c + k
            t = v & mask
            key = (a + (_TABLE[n][t] if n <= _TABLE_LEN else decode(n, t)),
                   v >> n)
            sums[key] = sums.get(key, 0) + c
    return not any(sums.values())


def _first_leaf(
        by_beta: Dict[Word, list]) -> Optional[Tuple[Word, int, Word, int]]:
    """The first nonzero refined term of the groups (_beta_groups) in
    depth-first order, as (alpha, k, beta, numerator), or None.

    The groups sit at the nodes of the trie of their beta words.  The walk
    goes down the carets depth first, letter 1 before letter 2, and at each
    caret splits every pending term into its two children (expand_right's
    parity rule), appending them to the groups below it.  A node that is no
    caret is a leaf of the refinement: its pending terms all have its beta,
    so they are the refined terms there.  The first leaf whose sums by
    (alpha, k) are not all zero answers with its least such (alpha, k);
    nothing after that leaf is expanded.
    """
    get = by_beta.get
    inner = carets(by_beta)
    stack = [((), get((), ()), () in inner)]
    pop, push = stack.pop, stack.append
    while stack:
        w, pending, caret = pop()
        if caret:
            w1, w2 = w + (1,), w + (2,)
            p1, p2 = get(w1), get(w2)
            if pending:
                p1, p2 = p1 or [], p2 or []
                add1, add2 = p1.append, p2.append
                for a, k, n in pending:
                    if k & 1:
                        add2((a + (1,), k >> 1, n))
                        add1((a + (2,), (k >> 1) + 1, n))
                    else:
                        add1((a + (1,), k >> 1, n))
                        add2((a + (2,), k >> 1, n))
            # letter 1 on top of the stack; an empty leaf needs no visit
            caret = w2 in inner
            if caret or p2:
                push((w2, p2 or (), caret))
            caret = w1 in inner
            if caret or p1:
                push((w1, p1 or (), caret))
            continue
        # a leaf: its pending terms are the refined terms with beta w, and
        # none is zero (an Element stores no zero coefficient)
        if len(pending) == 2:
            (a, k, n), (a2, k2, n2) = pending
            if k == k2 and a == a2:
                n += n2
            else:
                a, k, n = min(pending)
        elif len(pending) == 1:
            (a, k, n), = pending
        else:
            sums: Dict[Tuple[Word, int], int] = {}
            for a, k, n in pending:
                key = (a, k)
                sums[key] = sums.get(key, 0) + n
            nonzero = [key for key, n in sums.items() if n]
            if not nonzero:
                continue
            a, k = min(nonzero)
            n = sums[a, k]
        if n:
            return a, k, w, n
    return None


def _first_difference(e1: Element,
                      e2: Element) -> Optional[Tuple[Monomial, Coeff]]:
    """The first nonzero term of the refined form of e1 - e2 in depth-first
    order, or None when e1 and e2 are the same operator."""
    by_beta, d = _beta_groups(e1, e2)
    first = _first_leaf(by_beta)
    if first is None:
        return None
    a, k, w, n = first
    return new_monomial((a, k, w)), n if d == 1 else Fraction(n, d)


def eq(e1: Element, e2: Element) -> bool:
    """Operator equality: the refined form of e1 - e2 has no term.  Equal
    stored terms answer at once.  Otherwise the terms of the difference
    are grouped once; a longest beta is a leaf of the refinement, and if
    its terms do not cancel the answer is false, with no carets built.
    Only when they cancel does the depth-first walk (_first_leaf) decide."""
    if e1._d == e2._d and e1._num == e2._num:
        return True
    by_beta, _d = _beta_groups(e1, e2)
    if not _leaf_cancels(by_beta, max(by_beta, key=len)):
        return False
    return _first_leaf(by_beta) is None


def phi(e: Element) -> Element:
    """The shift endomorphism phi(x) = S_1 x S_1* + S_2 x S_2*."""
    return _element({Monomial((letter,) + a, k, (letter,) + b): n
                     for (a, k, b), n in e._num.items() for letter in (1, 2)},
                    e._d)


def _unitary_terms(e: Element, what: str) -> Dict[Monomial, Coeff]:
    """The refined term map of e; DomainError naming `what` unless e is a
    tree-pair unitary of W: a coefficient-1 sum over a pair of complete
    prefix-free families (alphas and betas each a partition).  When no
    stored beta is a caret of the stored betas, the stored map is the
    refined form and is returned as it is (callers only read it): its betas
    are a partition iff they are distinct and one more than their carets
    (words.is_partition)."""
    f = e._num
    betas = {m.beta for m in f}
    inner = carets(betas)
    if inner.isdisjoint(betas):
        betas_ok = len(f) == len(betas) == len(inner) + 1
    else:
        e = _expand(e, inner.__contains__)
        f = e._num
        betas_ok = is_partition(m.beta for m in f)
    # every coefficient n/d is 1
    if not (betas_ok and set(f.values()) == {e._d}
            and is_partition(m.alpha for m in f)):
        raise DomainError(f"{what} requires a coefficient-1 tree-pair "
                          f"unitary of W")
    return e.terms


def in_w(e: Element) -> bool:
    """True iff e is a tree-pair unitary of W: its refined form is a
    coefficient-1 sum over a pair of partitions."""
    try:
        _unitary_terms(e, "in_w")
    except DomainError:
        return False
    return True


def is_unitary(e: Element) -> bool:
    """True iff e* e = 1 = e e*.  A tree-pair unitary of W (in_w) answers
    at once; otherwise both products are formed and compared with 1 by eq,
    so an element of n terms costs two products of n^2 term pairs, and
    over 2^24 pairs is a CapacityError."""
    if in_w(e):
        return True
    unit = one()
    return eq(e.adjoint() * e, unit) and eq(e * e.adjoint(), unit)


class Membership(dict):
    """Gauge/diagonal subalgebra membership flags for a canonical form."""

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name)


def membership(e: Element) -> Membership:
    """Flags read off the refined form; expansion keeps k == 0 (a nonzero
    charge always leaves a nonzero child), |alpha| - |beta| and alpha ==
    beta, so they are those of every canonical form."""
    f = _refine(e)._num
    in_o2 = all(m.k == 0 for m in f)
    in_qt = all(len(m.alpha) == len(m.beta) for m in f)
    in_f2 = in_o2 and in_qt
    in_d2 = in_f2 and all(m.alpha == m.beta for m in f)
    return Membership(in_O2=in_o2, in_QT=in_qt, in_F2=in_f2, in_D2=in_d2)


def total_charge(e: Element) -> int:
    """Sum of the charges of a unitary's refined form; the abelianized
    class of the element (invariant under re-expansion, additive under
    multiplication)."""
    return sum(m.k for m in _unitary_terms(e, "total_charge"))


def putnam_form(e: Element) -> List[Tuple[Element, int]]:
    """Rewrite a gauge-invariant unitary as sum_j p_j U^{n_j}.

    Each refined term S_a U^k S_b* (|a| = |b| for a gauge-invariant
    element) contributes the projection P_a with exponent
    t(a) - t(b) + 2^|a| * k; both splits of expand_right keep |a| - |b| and
    this exponent, so it is that of every expansion of the term.  Terms
    sharing an exponent pool their projections.  Returns (projection,
    exponent) pairs sorted by exponent, after checking them against the
    refined terms (_translates_terms); a failed check is an AssertionError.
    """
    f = _unitary_terms(e, "putnam_form")
    groups: Dict[int, List[Word]] = {}
    for (a, k, b) in f:
        if len(a) != len(b):
            raise DomainError("putnam_form requires equal-length word pairs")
        groups.setdefault(offset(a) - offset(b) + (k << len(a)), []).append(a)
    out = [(_element({new_monomial((a, 0, a)): 1 for a in groups[n]}, 1), n)
           for n in sorted(groups)]
    if not _translates_terms(out, f):
        raise AssertionError("putnam_form's projections do not match the "
                             "refined terms")
    return out


def _translates_terms(pairs: List[Tuple[Element, int]],
                      f: Dict[Monomial, Coeff]) -> bool:
    """True iff the projections of pairs (p_j, exponent n_j) are P_a, once
    each, for exactly the alphas a of f's terms (a, k, b), and each
    translate U^-n_j P_a U^n_j is that term's P_b (U^-n S_a = S_a'' U^q
    with t(a'') = (t(a) - n) mod 2^|a|, so the translate is P_a'').  The
    alphas and the betas of f are partitions, so then sum_j p_j = 1 and
    sum_j U^-n_j p_j U^n_j = 1."""
    beta_of = {a: b for a, _k, b in f}
    for p, n in pairs:
        for (a, k, a2), c in p.terms.items():
            b = beta_of.pop(a, None)
            moved = decode(len(a), (offset(a) - n) & ((1 << len(a)) - 1))
            if c != 1 or k or a2 != a or b != moved:
                return False
    return not beta_of


def bd_v_factor(e: Element) -> Tuple[Element, Element]:
    """Factor a unitary as (sum_i S_ai U^ki S_ai*) * (sum_i S_ai S_bi*)
    over its refined terms S_ai U^ki S_bi*.

    The left factor is gauge-invariant and diagonal-compatible; the right
    factor has charge zero.  Their product recovers the input exactly.
    """
    f = _unitary_terms(e, "bd_v_factor")
    bd = _element({new_monomial((a, k, a)): 1 for (a, k, _b) in f}, 1)
    v = _element({new_monomial((a, 0, b)): 1 for (a, _k, b) in f}, 1)
    return bd, v


# text format --------------------------------------------------------------

def _sorted_rows(e: Element) -> List[Tuple[Monomial, int, int]]:
    """e's terms in sorted_terms order as (monomial, n, d), the coefficient
    n/d in lowest terms, read from its numerators."""
    d = e._d
    return [(m, n // g, d // g)
            for m, n in sorted(e._num.items(), key=_term_order)
            for g in (gcd(n, d),)]


def element_str(e: Element) -> str:
    parts = []
    for m, n, d in _sorted_rows(e):
        body = mono_str(m)
        if d == 1 and n == 1:
            parts.append(body)
        elif body == "1":
            parts.append(_coeff_str(n, d))
        else:
            parts.append(f"{_coeff_str(n, d)}*{body}")
    return " + ".join(parts) or "0"


_TOKEN = re.compile(r"(?P<factor>(?:S\*?|P)\[(?:[12]*|e)\]|U(?:\^-?\d+|\*)?)"
                    r"|(?P<num>\d+)|(?P<op>[+\-*/])|(?P<ws>\s+)")


def _int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # over the interpreter's int-conversion limit
        raise ParseError(f"number over {sys.get_int_max_str_digits()} digits", pos) from None


def _factor(tok: str, pos: int) -> Element:
    """The element a factor token names: 1, U, U*, U^k, S[w], S*[w] or P[w]."""
    if tok == "1":
        return one()
    if tok[0] == "U":
        return u(1 if tok == "U" else -1 if tok == "U*" else _int(tok[2:], pos + 2))
    w = parse_word(tok[tok.index("[") + 1:-1])
    return s_star(w) if tok[1] == "*" else s(w) if tok[0] == "S" else proj(w)


def parse_element(text: str) -> Element:
    """Parse element text: terms joined by '+' or '-', each an optional
    sign and rational prefix 'p/q*' (an int unless a '/' is written), then
    factors juxtaposed or joined by '*'.  A rational alone is a scalar term.

    Factors: S[w], S*[w], P[w] (= S[w] S*[w]), U, U*, U^k, 1, with the
    empty word written 'e'.  'U*' is one factor, so 'U*U' is 1.
    """
    toks, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    if not toks:
        raise ParseError("empty element text", 0)
    # read back to front: pop() takes the next token, toks[-1] peeks past it
    toks = [("end", "", len(text))] + toks[::-1]
    total, sign = {}, 1
    kind, tok, pos = toks.pop()
    while True:
        if tok in ("+", "-"):
            sign = sign if tok == "+" else -sign
            kind, tok, pos = toks.pop()
        acc, coeff = None, sign
        if kind == "num":
            val = _int(tok, pos)
            kind, tok, pos = toks.pop()
            if tok == "/" and toks[-1][0] == "num":
                _, tok, pos = toks.pop()
                den = _int(tok, pos)
                if not den:
                    raise ParseError("zero denominator", pos)
                val = Fraction(val, den)
                kind, tok, pos = toks.pop()
            coeff = sign * val
            if tok == "*":
                kind, tok, pos = toks.pop()
            elif kind in ("factor", "num"):
                raise ParseError("missing '*' after coefficient", pos)
            else:  # a scalar term; '1' alone parses here as the identity
                acc = one()
        while kind in ("factor", "num"):
            if kind == "num" and tok != "1":
                raise ParseError("numeric factor must be the identity '1'", pos)
            fac = _factor(tok, pos)
            acc = fac if acc is None else acc * fac
            kind, tok, pos = toks.pop()
            if tok == "*" and toks[-1][0] in ("factor", "num"):
                kind, tok, pos = toks.pop()
        if acc is None:
            raise ParseError("expected a factor", pos)
        _add_terms(total, acc.scale(coeff).terms.items())
        if kind == "end":
            return Element(total)
        if tok not in ("+", "-"):
            raise ParseError("expected '+' or '-'", pos)
        sign = 1 if tok == "+" else -1
        kind, tok, pos = toks.pop()


# JSON format ---------------------------------------------------------------

def to_json(e: Element) -> str:
    rows = [{"coeff": _coeff_str(n, d), "alpha": word_str(m.alpha) if m.alpha else "",
             "k": m.k, "beta": word_str(m.beta) if m.beta else ""}
            for m, n, d in _sorted_rows(e)]
    return json.dumps(rows, separators=(", ", ": "))


# a rational in text: an integer, p/q or a decimal, with no exponent, whose
# power Fraction would build
_RATIONAL = re.compile(r"\s*[+-]?(?:\d+(?:/\d+)?|\d*\.\d+)\s*")


# how an error message names a JSON value that is not a number: by its
# kind, since its text may be long or deeply nested
_JSON_KINDS = {str: "a string", list: "an array", tuple: "an array",
               dict: "an object", type(None): "null"}


def _json_name(x) -> str:
    if type(x) in (int, float, bool):
        return json.dumps(x)
    return _JSON_KINDS.get(type(x), type(x).__name__)


def _json_int(x, what: str) -> int:
    """x when it is a JSON integer; true, false, 1.5 and 1.0 are not, and
    are a ParseError naming `what`."""
    if type(x) is not int:
        raise ParseError(f"{what} must be a JSON integer, not {_json_name(x)}")
    return x


def _json_coeff(x) -> Coeff:
    """A row's coefficient: a JSON integer, or a string holding an integer,
    p/q or a decimal; an int when it is integral, as parse_element reads it."""
    if type(x) is int:
        return x
    if type(x) is not str:
        raise ParseError("a coefficient must be a JSON integer or a string "
                         f"p/q, not {_json_name(x)}")
    try:
        c = Fraction(_RATIONAL.fullmatch(x)[0])
    except (TypeError, ValueError, ZeroDivisionError):  # no match, q = 0,
        # or digits over the int-conversion limit
        raise ParseError(f"bad coefficient {x[:32]!r}" + (
            f" ({len(x)} characters)" if len(x) > 32 else "")) from None
    return c.numerator if c.denominator == 1 else c


def _json_word(x) -> Word:
    if type(x) is not str:
        raise ParseError("alpha and beta must be strings of letters 1 and 2")
    return parse_word(x)


def from_json(text: str) -> Element:
    """The element of to_json's rows {"coeff", "alpha", "k", "beta"}; a
    missing coefficient is 1, a missing word empty and a missing k 0."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", exc.pos)
    except (ValueError, RecursionError) as exc:  # a huge int, deep nesting
        raise ParseError(f"bad JSON: {exc}")
    if not isinstance(rows, list):
        raise ParseError("element JSON must be an array")
    pairs = []
    for row in rows:
        if not isinstance(row, dict):
            raise ParseError("each row of element JSON must be an object")
        m = Monomial(_json_word(row.get("alpha", "")),
                     _json_int(row.get("k", 0), "k"),
                     _json_word(row.get("beta", "")))
        pairs.append((_json_coeff(row.get("coeff", "1")), m))
    return Element.from_terms(pairs)
