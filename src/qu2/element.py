"""Finite rational combinations of monomials, with exact normal forms.

An Element is a collected map Monomial -> nonzero coefficient (int or
Fraction).  All arithmetic is exact.  A product scales each operand's
coefficients to int numerators over the lcm of its denominators, sums int
products per output term, and divides each distinct sum by the product of
the two denominators once, at the end.  So an integral coefficient may come
back as an int or as a Fraction; the two compare and hash equal, and every
printer goes through Fraction.

Structural code reads the refined form: a term is expanded (expand_right)
only while its beta is a proper prefix of some beta present in the elements
at hand.  The betas left are prefix-free, and over a prefix-free set of
betas distinct triples (alpha, k, beta) are distinct affine maps on the
residue classes of their betas in l^2(Z), hence linearly independent; so
an element is zero iff its refined form has no term.  eq reads the refined
form of e1 - e2 one leaf of the beta trie at a time and stops at the first
leaf whose terms do not cancel.  Expanding a refined form further never
merges two terms, so unitarity, membership, total charge, the Putnam form,
the bd * v factorization and diagrams read it too, and a 64-letter beta
costs its length, not 2^64 terms.  The uniform-depth form (normalize) is
only for a caller that asks for a depth.

`Element.__eq__` is structural: it compares the stored terms.  Operator
equality is `eq`, which holds across depths (`eq(u(), normalize(u(), 3))`
while `u() != normalize(u(), 3)`).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import CapacityError, DomainError, ParseError
from .monomial import (Monomial, ONE, adjoint_mono, expand_right, mono_str,
                       new_monomial, u_pow)
from .words import (Word, carets, decode, is_partition, offset, parse_word,
                    word_str)

Coeff = object  # int | Fraction, kept exact throughout

_denominator = attrgetter("denominator")

# normalize refuses to write more terms than this (2^16: every beta of an
# element brought 16 letters deeper)
_MAX_TERMS = 1 << 16


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


def _coeff_str(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


class Element:
    """A finite sum  sum_i c_i * S_{alpha_i} U^{k_i} S_{beta_i}*."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, Coeff]] = None):
        self.terms: Dict[Monomial, Coeff] = terms if terms is not None else {}

    @classmethod
    def from_terms(cls, pairs: Iterable[Tuple[Coeff, Monomial]]) -> "Element":
        return cls(_add_terms({}, ((m, c) for c, m in pairs)))

    @classmethod
    def mono(cls, m: Monomial, c: Coeff = 1) -> "Element":
        return cls({m: c}) if c else cls()

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        # structural: same stored terms at the same depth (use eq() for
        # operator equality across depths)
        if not isinstance(other, Element):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def depth(self) -> int:
        """Canonical depth: the longest beta word among stored terms."""
        return max((len(m.beta) for m in self.terms), default=0)

    def sorted_terms(self) -> List[Tuple[Monomial, Coeff]]:
        return sorted(self.terms.items(), key=lambda it: (it[0].alpha, it[0].beta, it[0].k))

    # arithmetic ----------------------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        return Element(_add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "Element":
        return Element({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __mul__(self, other: "Element") -> "Element":
        # words as (|w|, t(w)): b1 is a prefix of a2 iff |b1| <= |a2| and
        # the low |b1| bits of t(a2) are t(b1), and the suffix past it has
        # offset t(a2) >> |b1|.  Each word is encoded once, and an
        # orthogonal pair costs one compare and no call.  A meeting pair
        # reads its suffix word from the word table (decode) and builds its
        # term in C (new_monomial).  Coefficients as int numerators over
        # one denominator per operand: a pair costs an int product, and
        # each distinct sum becomes a Fraction once.
        d1 = lcm(*map(_denominator, self.terms.values()))
        d2 = lcm(*map(_denominator, other.terms.values()))
        right = [(len(a2), offset(a2), k2, b2,
                  c2.numerator * (d2 // c2.denominator))
                 for (a2, k2, b2), c2 in other.terms.items()]
        acc: Dict[Monomial, int] = {}
        for (a1, k1, b1), c1 in self.terms.items():
            c1 = c1.numerator * (d1 // c1.denominator)
            n1, t1 = len(b1), offset(b1)
            low1 = (1 << n1) - 1
            for n2, t2, k2, b2, c2 in right:
                if n1 <= n2:
                    if t2 & low1 != t1:
                        continue
                    # S_b1* S_a2 = S_g, then U^k1 S_g = S_g2 U^q
                    n = n2 - n1
                    q, t = divmod((t2 >> n1) + k1, 1 << n)
                    m = new_monomial((a1 + decode(n, t), q + k2, b2))
                else:
                    if t1 & ((1 << n2) - 1) != t2:
                        continue
                    # S_b1* S_a2 = S_d*, then S_d* U^k2 = U^-q S_d2*
                    n = n1 - n2
                    q, t = divmod((t1 >> n2) - k2, 1 << n)
                    m = new_monomial((a1, k1 - q, b2 + decode(n, t)))
                c = c1 * c2
                old = acc.get(m)
                new = c if old is None else old + c
                if new:
                    acc[m] = new
                else:
                    acc.pop(m, None)
        d = d1 * d2
        if d != 1:
            fracs = {n: Fraction(n, d) for n in set(acc.values())}
            acc = {m: fracs[n] for m, n in acc.items()}
        return Element(acc)

    def scale(self, c: Coeff) -> "Element":
        if not c:
            return Element()
        return Element({m: c0 * c for m, c0 in self.terms.items()})

    def adjoint(self) -> "Element":
        return Element({adjoint_mono(m): c for m, c in self.terms.items()})

    def __repr__(self) -> str:
        return f"Element({element_str(self)!r})"


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
    if sum(1 << min(depth - len(m.beta), 17) for m in e.terms) > _MAX_TERMS:
        raise CapacityError(f"the form at depth {depth} has over "
                            f"{_MAX_TERMS} terms")
    return Element(_expand(e, lambda beta: len(beta) < depth))


def _expand(e: Element, inner: Callable[[Word], bool],
            side: int = 2) -> Dict[Monomial, Coeff]:
    """The collected term map of e with each term expanded while inner
    holds of its beta (side 2, the default) or of its alpha (side 0)."""
    acc: Dict[Monomial, Coeff] = {}
    for m, c in e.terms.items():
        stack = [m]
        while stack:
            cur = stack.pop()
            if inner(cur[side]):
                stack.extend(expand_right(cur))
                continue
            # most leaves are new: skip the int + Fraction addition
            old = acc.get(cur)
            new = c if old is None else old + c
            if new:
                acc[cur] = new
            else:
                acc.pop(cur, None)
    return acc


def _refine(e: Element) -> Dict[Monomial, Coeff]:
    """The collected term map of e on the refinement of its beta words:
    each term is expanded while its beta is a proper prefix of some beta
    present, so the betas left are prefix-free."""
    return _expand(e, carets({m.beta for m in e.terms}).__contains__)


def _first_difference(e1: Element,
                      e2: Element) -> Optional[Tuple[Monomial, Coeff]]:
    """The first nonzero term of the refined form of e1 - e2, as (monomial,
    coefficient), or None when e1 and e2 are the same operator.

    The terms of the difference, as int numerators over one denominator,
    sit at the nodes of the trie of their beta words.  The walk goes down
    the carets depth first, letter 1 before letter 2, and at each caret
    splits every pending term into its two children (expand_right's parity
    rule).  A node that is no caret is a leaf of the refinement: its
    pending terms all have its beta, so they are the refined terms there.
    The first leaf whose sums by (alpha, k) are not all zero answers with
    its least such (alpha, k); nothing after that leaf is expanded.
    """
    t1, t2 = e1.terms, e2.terms
    # int coefficients are their own numerators over 1
    d = 1
    if Fraction in map(type, chain(t1.values(), t2.values())):
        d = lcm(*map(_denominator, t1.values()),
                *map(_denominator, t2.values()))
    by_beta: Dict[Word, list] = {}
    get = by_beta.get
    for terms, scale in ((t1, d), (t2, -d)):
        for (a, k, b), c in terms.items():
            n = c.numerator * (scale // c.denominator)
            row = get(b)
            if row is None:
                by_beta[b] = [(a, k, n)]
            else:
                row.append((a, k, n))
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
            return new_monomial((a, k, w)), n if d == 1 else Fraction(n, d)
    return None


def eq(e1: Element, e2: Element) -> bool:
    """Operator equality: the refined form of e1 - e2 has no term.  Equal
    stored terms answer at once; otherwise _first_difference walks the
    beta trie of the difference and stops at its first nonzero leaf."""
    if e1.terms == e2.terms:
        return True
    return _first_difference(e1, e2) is None


def phi(e: Element) -> Element:
    """The shift endomorphism phi(x) = S_1 x S_1* + S_2 x S_2*."""
    return Element(_add_terms({}, ((Monomial((letter,) + a, k, (letter,) + b), c)
                                   for (a, k, b), c in e.terms.items()
                                   for letter in (1, 2))))


def _unitary_terms(e: Element, what: str) -> Dict[Monomial, Coeff]:
    """The refined term map of e; DomainError naming `what` unless it is a
    coefficient-1 sum over a pair of complete prefix-free families (alphas
    and betas each a partition)."""
    f = _refine(e)
    if not (f and all(c == 1 for c in f.values())
            and is_partition(m.alpha for m in f)
            and is_partition(m.beta for m in f)):
        raise DomainError(f"{what} requires a unitary element")
    return f


def is_unitary(e: Element) -> bool:
    """True iff the refined form is a coefficient-1 sum over a pair of
    partitions."""
    try:
        _unitary_terms(e, "is_unitary")
    except DomainError:
        return False
    return True


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
    f = _refine(e)
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
    exponent) pairs sorted by exponent.
    """
    f = _unitary_terms(e, "putnam_form")
    groups: Dict[int, List[Word]] = {}
    for (a, k, b) in f:
        if len(a) != len(b):
            raise DomainError("putnam_form requires equal-length word pairs")
        groups.setdefault(offset(a) - offset(b) + (k << len(a)), []).append(a)
    out = [(Element({Monomial(a, 0, a): 1 for a in groups[n]}), n)
           for n in sorted(groups)]
    # both partition-of-unity conditions hold for any gauge-invariant unitary
    ident = Element({ONE: 1})
    assert eq(Element.from_terms((1, m) for p, _n in out for m in p.terms), ident)
    shifted = zero()
    for p, n in out:
        shifted = shifted + u(-n) * p * u(n)
    assert eq(shifted, ident)
    return out


def bd_v_factor(e: Element) -> Tuple[Element, Element]:
    """Factor a unitary as (sum_i S_ai U^ki S_ai*) * (sum_i S_ai S_bi*)
    over its refined terms S_ai U^ki S_bi*.

    The left factor is gauge-invariant and diagonal-compatible; the right
    factor has charge zero.  Their product recovers the input exactly.
    """
    f = _unitary_terms(e, "bd_v_factor")
    bd = Element({Monomial(a, k, a): 1 for (a, k, _b) in f})
    v = Element({Monomial(a, 0, b): 1 for (a, _k, b) in f})
    return bd, v


# text format --------------------------------------------------------------

def element_str(e: Element) -> str:
    if not e.terms:
        return "0"
    parts = []
    for m, c in e.sorted_terms():
        body = mono_str(m)
        if c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-1*{body}" if body != "1" else "-1")
        elif body == "1":
            parts.append(_coeff_str(c))
        else:
            parts.append(f"{_coeff_str(c)}*{body}")
    return " + ".join(parts)


_TOKEN = re.compile(r"""
    (?P<sstar>S\*\[(?P<sstarw>[12]*|e)\])
  | (?P<sword>S\[(?P<sw>[12]*|e)\])
  | (?P<pword>P\[(?P<pw>[12]*|e)\])
  | (?P<upow>U\^(?P<uexp>-?\d+))
  | (?P<ustar>U\*)
  | (?P<u>U)
  | (?P<num>\d+)
  | (?P<op>[+\-*/])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m, pos))
        pos = m.end()
    return out


def parse_element(text: str) -> Element:
    """Parse element text: terms joined by '+' or '-', each an optional
    rational prefix 'p/q*' followed by juxtaposed factors.

    Factors: S[w], S*[w], P[w] (= S[w] S*[w]), U, U*, U^k, 1.  The empty
    word is written 'e'.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty element text", 0)
    i = 0
    n = len(tokens)

    def peek():
        return tokens[i][0] if i < n else None

    def factor_element(kind, m) -> Element:
        if kind == "sword":
            return s(parse_word(m.group("sw")))
        if kind == "sstar":
            return s_star(parse_word(m.group("sstarw")))
        if kind == "pword":
            return proj(parse_word(m.group("pw")))
        if kind == "upow":
            return u(int(m.group("uexp")))
        if kind == "ustar":
            return u(-1)
        if kind == "u":
            return u(1)
        raise AssertionError(kind)

    def parse_rational() -> Coeff:
        """An int, or a Fraction when a '/' is written."""
        nonlocal i
        kind, m, pos = tokens[i]
        assert kind == "num"
        num = int(m.group("num"))
        i += 1
        if i + 1 < n and tokens[i][0] == "op" and tokens[i][1].group("op") == "/" \
                and tokens[i + 1][0] == "num":
            den = int(tokens[i + 1][1].group("num"))
            if den == 0:
                raise ParseError("zero denominator", tokens[i + 1][2])
            i += 2
            return Fraction(num, den)
        return num

    FACTORS = ("sword", "sstar", "pword", "upow", "ustar", "u", "num")

    def parse_term() -> Element:
        nonlocal i
        sign = 1
        if peek() == "op" and tokens[i][1].group("op") in "+-":
            if tokens[i][1].group("op") == "-":
                sign = -1
            i += 1
        coeff = sign
        if peek() == "num":
            val = parse_rational()
            if peek() == "op" and tokens[i][1].group("op") == "*":
                i += 1
                coeff = sign * val
            elif peek() in FACTORS:
                raise ParseError("missing '*' after coefficient", tokens[i][2])
            else:
                # bare scalar term; '1' alone parses here as the identity
                return one().scale(sign * val)
        acc = None
        while peek() in FACTORS:
            kind, m, pos = tokens[i]
            if kind == "num":
                if m.group("num") != "1":
                    raise ParseError("numeric factor must be the identity '1'", pos)
                fac = one()
            else:
                fac = factor_element(kind, m)
            acc = fac if acc is None else acc * fac
            i += 1
            # optional '*' between factors
            if peek() == "op" and tokens[i][1].group("op") == "*" \
                    and i + 1 < n and tokens[i + 1][0] in FACTORS:
                i += 1
        if acc is None:
            raise ParseError("expected a factor",
                             tokens[i][2] if i < n else len(text))
        return acc.scale(coeff)

    total = parse_term()
    while i < n:
        kind, m, pos = tokens[i]
        if kind != "op" or m.group("op") not in "+-":
            raise ParseError("expected '+' or '-'", pos)
        sign = 1 if m.group("op") == "+" else -1
        i += 1
        total = total + parse_term().scale(sign)
    return total


# JSON format ---------------------------------------------------------------

def to_json(e: Element) -> str:
    rows = [{"coeff": _coeff_str(c), "alpha": word_str(m.alpha) if m.alpha else "",
             "k": m.k, "beta": word_str(m.beta) if m.beta else ""}
            for m, c in e.sorted_terms()]
    return json.dumps(rows, separators=(", ", ": "))


def from_json(text: str) -> Element:
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", exc.pos)
    if not isinstance(rows, list):
        raise ParseError("element JSON must be an array")
    pairs = []
    for row in rows:
        coeff = Fraction(row.get("coeff", "1"))
        m = Monomial(parse_word(row.get("alpha", "")), int(row.get("k", 0)),
                     parse_word(row.get("beta", "")))
        pairs.append((coeff, m))
    return Element.from_terms(pairs)
