"""Exact evaluation on the integer basis of l^2(Z).

U shifts, S_2 doubles, S_1 doubles-plus-one; every monomial therefore maps a
basis vector to at most one basis vector.  Images here are computed by
stepping through the generator letters one at a time, which keeps this module
an independent check on the closed-form arithmetic in monomial.py.

Phases are exact dyadic angles a/2^n in [0,1), stored as Fractions of turns,
so the rotation unitaries U_z stay exact as well.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .element import Element, _unitary_terms
from .errors import DomainError
from .monomial import Monomial
from .words import Word, is_partition

Zero = None  # absorbing image of a basis vector


class BasisVector(NamedTuple):
    index: int
    phase: Fraction  # turns, in [0,1), denominator a power of two


def _check_dyadic(turns: Fraction) -> Fraction:
    turns = Fraction(turns) % 1
    if turns.denominator & (turns.denominator - 1):
        raise DomainError(f"phase {turns} is not a dyadic angle")
    return turns


def mono_image(m: Monomial, n: int) -> Optional[int]:
    """Image index of e_n under S_a U^k S_b*, by letterwise stepping.

    S_b* undoes one doubling per letter (leftmost letter first), U shifts,
    and S_a redoubles (rightmost letter first).  None when some S_i* step
    lands outside its range.
    """
    for letter in m.beta:
        if n & 1 != (1 if letter == 1 else 0):
            return None
        n >>= 1
    n += m.k
    for letter in reversed(m.alpha):
        n = (n << 1) | (1 if letter == 1 else 0)
    return n


def apply_basis(e, n: int):
    """Image of e_n: for an Element, the list of (coeff, index) pairs sorted
    by index; for a DecoratedPermutative, a BasisVector or Zero."""
    if isinstance(e, DecoratedPermutative):
        return e.apply(n)
    acc: Dict[int, object] = {}
    for m, c in e.terms.items():
        idx = mono_image(m, n)
        if idx is None:
            continue
        new = acc.get(idx, 0) + c
        if new:
            acc[idx] = new
        else:
            acc.pop(idx, None)
    return sorted(((c, i) for i, c in acc.items()), key=lambda p: p[1])


def semantic_eq(e1: Element, e2: Element) -> bool:
    """Pointwise equality check on l^2(Z).

    The probes follow the completed trie of all beta words: a node w that
    is a proper prefix of some beta has both children w1 and w2, also the
    one no beta passes through, so the leaves partition Z into the classes
    n = t(w) + q * 2^|w|.  Only the monomials whose beta is a prefix of a
    leaf w act on its class, and each maps q |-> s*q + c there, with slope
    s = 2^(|alpha| + |w| - |beta|) >= 1 and c its image of e_t(w).  Two
    distinct such maps meet at most once, at |q| <= |c - c'|, so at
    q = 2 * max|c| + 1 all the maps of both elements take distinct values,
    and one probe there decides the class.  The trie has at most one leaf
    more than the beta words have letters.
    """
    # (|w|, t(w), the terms acting on the class of w), e2 negated
    stack = [(0, 0, [*e1.terms.items(),
                     *((m, -c) for m, c in e2.terms.items())])]
    while stack:
        depth, off, acting = stack.pop()
        if any(len(m.beta) > depth for m, _c in acting):
            for letter, bit in ((1, 1 << depth), (2, 0)):
                stack.append((depth + 1, off + bit,
                              [(m, c) for m, c in acting
                               if len(m.beta) <= depth or m.beta[depth] == letter]))
            continue
        reach = max((abs(mono_image(m, off)) for m, _c in acting), default=0)
        n = off + ((2 * reach + 1) << depth)
        acc: Dict[int, object] = {}
        for m, c in acting:
            idx = mono_image(m, n)
            acc[idx] = acc.get(idx, 0) + c
        if any(acc.values()):
            return False
    return True


# phase gadget --------------------------------------------------------------

def phase_apply(z_exponent, generator_word: Sequence[str], k: int) -> Optional[BasisVector]:
    """Apply a word in U, S_1, S_2, their adjoints, and the rotation U_z
    (U_z e_k = z^k e_k with z = e^{2 pi i a/2^n}) to the basis vector e_k.

    The rightmost letter of the word acts first.  Returns Zero when an
    adjoint isometry annihilates the running vector.
    """
    z = _check_dyadic(Fraction(z_exponent))
    phase = Fraction(0)
    for token in reversed(list(generator_word)):
        if token == "U":
            k += 1
        elif token == "U*":
            k -= 1
        elif token == "S2":
            k <<= 1
        elif token == "S1":
            k = (k << 1) | 1
        elif token == "S2*":
            if k & 1:
                return Zero
            k >>= 1
        elif token == "S1*":
            if not k & 1:
                return Zero
            k >>= 1
        elif token == "Uz":
            phase = (phase + z * k) % 1
        elif token == "Uz*":
            phase = (phase - z * k) % 1
        else:
            raise DomainError(f"unknown generator {token!r}")
    return BasisVector(k, phase)


# phase-decorated permutative unitaries --------------------------------------

class DecoratedPermutative:
    """Sum of dyadic-phase-weighted monomials whose alpha and beta words each
    form a complete prefix-free family, so every basis vector maps to a
    single phase times a single basis vector."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[Tuple[object, Monomial]]):
        cooked = [( _check_dyadic(Fraction(z)), m) for z, m in terms]
        if not is_partition([m.alpha for _z, m in cooked]) \
                or not is_partition([m.beta for _z, m in cooked]):
            raise DomainError("alpha and beta words must each form a partition")
        self.terms = tuple(sorted(cooked, key=lambda t: t[1].alpha))

    @classmethod
    def from_element(cls, e: Element, phases=None) -> "DecoratedPermutative":
        """Decorate a unitary sum-of-monomials on its refined form; phases
        maps a refined alpha word -> dyadic angle (default all zero)."""
        phases = phases or {}
        return cls([(phases.get(m.alpha, Fraction(0)), m)
                    for m in _unitary_terms(e, "DecoratedPermutative")])

    def apply(self, n: int) -> Optional[BasisVector]:
        for z, m in self.terms:
            idx = mono_image(m, n)
            if idx is not None:
                return BasisVector(idx, z)
        return Zero


def dp_split(v: DecoratedPermutative) -> Tuple[Dict[Word, Fraction], Element]:
    """Split V = d P: d is the leaf-phase function on the alpha partition
    (the diagonal part) and P is the phase-stripped sum of monomials."""
    d = {m.alpha: z for z, m in v.terms}
    p = Element({m: 1 for _z, m in v.terms})
    return d, p
