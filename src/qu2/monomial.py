"""Monomials S_alpha U^k S_beta* in canonical triple form.

Every nonzero product of the generators U, S_1 = U S_2, S_2 and their
adjoints collapses to a unique triple (alpha, k, beta): alpha and beta are
words over {1, 2} and k is an integer charge.  On the integer basis the
monomial acts only on indices n congruent to t(beta) mod 2^|beta|, sending

    n |-> 2^|alpha| * ((n - t(beta)) / 2^|beta| + k) + t(alpha).

The product of two monomials is a prefix comparison plus the commutation
rule U^k S_a = S_a' U^q (push_u_through); mono_mul is that rule for one
pair, kept as the reference.  Element.__mul__ and wgroup._product inline
it on words read as (|w|, t(w)), one carry and offset per meeting pair.
Expansion into deeper monomials uses the charge-parity splitting rules
(expand_right).  The zero product is represented by None.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple, Optional, Tuple

from .errors import ParseError
from .words import Word, decode, is_prefix, offset, word_str


class Monomial(NamedTuple):
    alpha: Word
    k: int
    beta: Word


# A Monomial from one (alpha, k, beta) tuple, built by tuple.__new__ in C:
# the NamedTuple's own __new__ is a Python-level function, and the product
# and expand_right build a triple per output term
new_monomial = partial(tuple.__new__, Monomial)

ONE = Monomial((), 0, ())


def u_pow(k: int) -> Monomial:
    return Monomial((), k, ())


def push_u_through(k: int, a: Word) -> Tuple[Word, int]:
    """Solve U^k S_a = S_a2 U^q with |a2| = |a| and 0 <= t(a2) < 2^|a|.

    The defining identity is t(a) + k = 2^|a| * q + t(a2); it is the dyadic
    odometer advanced k steps, with q the carry out of the top bit.
    """
    q, t2 = divmod(offset(a) + k, 1 << len(a))
    return decode(len(a), t2), q


def mono_mul(m1: Monomial, m2: Monomial) -> Optional[Monomial]:
    """Product of two monomials; None when the inner word pair is orthogonal."""
    a1, k1, b1 = m1
    a2, k2, b2 = m2
    if is_prefix(b1, a2):
        # S_b1* S_a2 = S_g, then U^k1 S_g = S_g2 U^q
        g2, q = push_u_through(k1, a2[len(b1):])
        return Monomial(a1 + g2, q + k2, b2)
    if is_prefix(a2, b1):
        # S_b1* S_a2 = S_d*, then S_d* U^k2 = U^-q S_d2* via the adjoint rule
        d2, q = push_u_through(-k2, b1[len(a2):])
        return Monomial(a1, k1 - q, b2 + d2)
    return None


def adjoint_mono(m: Monomial) -> Monomial:
    return Monomial(m.beta, -m.k, m.alpha)


def expand_right(m: Monomial) -> Tuple[Monomial, Monomial]:
    """Split a monomial into the two depth+1 monomials it equals.

    Even charge:  S_a U^2k S_b*   = S_a1 U^k S_b1* + S_a2 U^k S_b2*
    Odd charge:   S_a U^2k+1 S_b* = S_a1 U^k S_b2* + S_a2 U^k+1 S_b1*
    """
    a, k, b = m
    half, odd = divmod(k, 2)
    if odd:
        return (new_monomial((a + (1,), half, b + (2,))),
                new_monomial((a + (2,), half + 1, b + (1,))))
    return (new_monomial((a + (1,), half, b + (1,))),
            new_monomial((a + (2,), half, b + (2,))))


def mono_str(m: Monomial) -> str:
    if m.alpha and m.alpha == m.beta and m.k == 0:
        return f"P[{word_str(m.alpha)}]"
    parts = []
    if m.alpha:
        parts.append(f"S[{word_str(m.alpha)}]")
    if m.k == 1:
        parts.append("U")
    elif m.k:
        parts.append(f"U^{m.k}")
    if m.beta:
        parts.append(f"S*[{word_str(m.beta)}]")
    return " ".join(parts) if parts else "1"


def parse_mono(text: str) -> Monomial:
    """Parse a single monomial like 'S[112] U^3 S*[21]', 'U^-4', or '1'."""
    from .element import parse_element  # local import: parser lives with Element

    e = parse_element(text)
    items = list(e.terms.items())
    if len(items) != 1 or items[0][1] != 1:
        raise ParseError(f"not a single monomial: {text!r}")
    return items[0][0]
