"""The element-text parser agrees with its previous implementation, kept
in reference_parser, on seeded random strings: the same terms with the same
coefficient types, or the same ParseError message and position."""

import random

import pytest

from qu2.element import parse_element
from qu2.errors import ParseError

import reference_parser

PIECES = ("S[1]", "S[12]", "S*[2]", "S*[e]", "P[e]", "S[]", "U", "U*", "U^3",
          "U^-2", "U^0", "1", "2", "0", "3/4", "1/0", "/", "*", "+", "-", " ",
          "  ", "S[3]", "x", "U^", "(")


def outcome(parse, text):
    try:
        e = parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.pos
    return "element", [(m, c, type(c)) for m, c in e.terms.items()]


def random_texts(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 7)))


@pytest.mark.parametrize("seed", range(4))
def test_parser_matches_reference(seed):
    seen = set()
    for text in random_texts(seed, 5000):
        want = outcome(reference_parser.parse_element, text)
        assert outcome(parse_element, text) == want, text
        seen.add(want[1] if want[0] == "error" else "element")
    # the strings reach elements and every message the parser has
    for start in ("element", "empty element text", "unexpected character",
                  "missing '*'", "numeric factor", "zero denominator",
                  "expected a factor", "expected '+' or '-'"):
        assert any(s.startswith(start) for s in seen), start


@pytest.mark.parametrize("text", [
    "U*U", "U * U", "U U", "S[1]*S[2]", "-S[1] - -2/4*U^-2 S*[e]", "+1",
    "2*1*S[1]", "S[1]*", "1/0", "3/4/5", "2 3", "S[1] 2", "U^", "  ", "",
    "+ + U", "U + + U", "U + + + U", "0*U", "0/5*U", "3/", "S*[e]P[e]S[]",
])
def test_parser_matches_reference_on_edge_cases(text):
    assert outcome(parse_element, text) == outcome(reference_parser.parse_element, text)
