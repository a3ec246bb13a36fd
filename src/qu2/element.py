"""Finite rational combinations of monomials, with exact normal forms.

An Element is a collected map Monomial -> nonzero coefficient (int or
Fraction).  All arithmetic is exact.

Structural code reads the refined form: a term is expanded (expand_right)
only while its beta is a proper prefix of some beta present in the elements
at hand.  The betas left are prefix-free, and over a prefix-free set of
betas distinct triples (alpha, k, beta) are distinct affine maps on the
residue classes of their betas in l^2(Z), hence linearly independent; so
two elements are equal iff their refined term maps coincide.  Expanding a
refined form further never merges two terms, so unitarity, membership,
total charge, the Putnam form, the bd * v factorization and diagrams read
it too, and a 64-letter beta costs its length, not 2^64 terms.  The
uniform-depth form (normalize) is only for a caller that asks for a depth.

`Element.__eq__` is structural: it compares the stored terms.  Operator
equality is `eq`, which holds across depths (`eq(u(), normalize(u(), 3))`
while `u() != normalize(u(), 3)`).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import CapacityError, DomainError, ParseError
from .monomial import (Monomial, ONE, adjoint_mono, expand_right, mono_str,
                       u_pow)
from .words import (Word, carets, decode, is_partition, offset, parse_word,
                    word_str)

Coeff = object  # int | Fraction, kept exact throughout

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
        # orthogonal pair costs one compare and no call.
        right = [(len(a2), offset(a2), k2, b2, c2)
                 for (a2, k2, b2), c2 in other.terms.items()]
        acc: Dict[Monomial, Coeff] = {}
        for (a1, k1, b1), c1 in self.terms.items():
            n1, t1 = len(b1), offset(b1)
            mask1 = (1 << n1) - 1
            for n2, t2, k2, b2, c2 in right:
                if n1 <= n2:
                    if t2 & mask1 != t1:
                        continue
                    # S_b1* S_a2 = S_g, then U^k1 S_g = S_g2 U^q
                    n = n2 - n1
                    q, t = divmod((t2 >> n1) + k1, 1 << n)
                    m = Monomial(a1 + decode(n, t), q + k2, b2)
                else:
                    if t1 & ((1 << n2) - 1) != t2:
                        continue
                    # S_b1* S_a2 = S_d*, then S_d* U^k2 = U^-q S_d2*
                    n = n1 - n2
                    q, t = divmod((t1 >> n2) - k2, 1 << n)
                    m = Monomial(a1, k1 - q, b2 + decode(n, t))
                # most products are new: skip the int + Fraction addition
                c = c1 * c2
                old = acc.get(m)
                new = c if old is None else old + c
                if new:
                    acc[m] = new
                else:
                    acc.pop(m, None)
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

def add(e1: Element, e2: Element) -> Element:
    return e1 + e2

def scale(c: Coeff, e: Element) -> Element:
    return e.scale(c)

def mul(e1: Element, e2: Element) -> Element:
    return e1 * e2

def adjoint_el(e: Element) -> Element:
    return e.adjoint()


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
    # inline like Element.__mul__: a generator into _add_terms makes
    # normalize about a quarter slower on terms already at depth
    acc: Dict[Monomial, Coeff] = {}
    for m, c in e.terms.items():
        stack = [m]
        while stack:
            cur = stack.pop()
            if len(cur.beta) < depth:
                stack.extend(expand_right(cur))
                continue
            new = acc.get(cur, 0) + c
            if new:
                acc[cur] = new
            else:
                acc.pop(cur, None)
    return Element(acc)


def _refine(*es: Element) -> List[Dict[Monomial, Coeff]]:
    """The collected term maps of the elements on the common refinement of
    all their beta words: each term is expanded while its beta is a proper
    prefix of some beta present, so the betas left are prefix-free."""
    inner = carets({m.beta for e in es for m in e.terms})
    out = []
    for e in es:
        acc: Dict[Monomial, Coeff] = {}
        for m, c in e.terms.items():
            stack = [m]
            while stack:
                cur = stack.pop()
                if cur.beta in inner:
                    stack.extend(expand_right(cur))
                    continue
                # most leaves are new: skip the int + Fraction addition
                old = acc.get(cur)
                new = c if old is None else old + c
                if new:
                    acc[cur] = new
                else:
                    acc.pop(cur, None)
        out.append(acc)
    return out


def eq(e1: Element, e2: Element) -> bool:
    """Operator equality: the refined term maps on the common refinement
    of both elements' beta words coincide."""
    f1, f2 = _refine(e1, e2)
    return f1 == f2


def phi(e: Element) -> Element:
    """The shift endomorphism phi(x) = S_1 x S_1* + S_2 x S_2*."""
    return Element(_add_terms({}, ((Monomial((letter,) + a, k, (letter,) + b), c)
                                   for (a, k, b), c in e.terms.items()
                                   for letter in (1, 2))))


def _unitary_terms(e: Element, what: str) -> Dict[Monomial, Coeff]:
    """The refined term map of e; DomainError naming `what` unless it is a
    coefficient-1 sum over a pair of complete prefix-free families (alphas
    and betas each a partition)."""
    (f,) = _refine(e)
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
    (f,) = _refine(e)
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
        cf = Fraction(c)
        body = mono_str(m)
        if cf == 1:
            parts.append(body)
        elif cf == -1:
            parts.append(f"-1*{body}" if body != "1" else "-1")
        elif body == "1":
            parts.append(_coeff_str(cf))
        else:
            parts.append(f"{_coeff_str(cf)}*{body}")
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

    def parse_rational() -> Fraction:
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
        return Fraction(num)

    FACTORS = ("sword", "sstar", "pword", "upow", "ustar", "u", "num")

    def parse_term() -> Element:
        nonlocal i
        sign = 1
        if peek() == "op" and tokens[i][1].group("op") in "+-":
            if tokens[i][1].group("op") == "-":
                sign = -1
            i += 1
        coeff = Fraction(sign)
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
