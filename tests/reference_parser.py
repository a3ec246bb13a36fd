"""The element-text parser as it stood before the single-pass rewrite in
qu2.element, kept verbatim as the reference that test_parser_equivalence
checks the current parser against."""

import re
from fractions import Fraction

from qu2.element import Coeff, Element, one, proj, s, s_star, u
from qu2.errors import ParseError
from qu2.words import parse_word


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
