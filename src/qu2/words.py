"""Finite words over the alphabet {1, 2} and prefix-free partitions.

A word labels a composite isometry S_w = S_{w_1} S_{w_2} ... S_{w_n}; on the
integer basis S_w acts by m |-> 2^|w| * m + t(w) where the offset t(w) reads
the word as a dyadic expansion, leftmost letter least significant, with
digit(1) = 1 and digit(2) = 0.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from .errors import DomainError, ParseError

Word = Tuple[int, ...]

EMPTY: Word = ()


def digit(letter: int) -> int:
    """Binary digit carried by a letter: 1 -> 1, 2 -> 0."""
    if letter == 1:
        return 1
    if letter == 2:
        return 0
    raise DomainError(f"letter must be 1 or 2, got {letter!r}")


def offset(w: Word) -> int:
    """t(w) = sum_j digit(w_j) * 2^(j-1), leftmost letter least significant."""
    t = 0
    for j, letter in enumerate(w):
        t += digit(letter) << j
    return t


def encode(w: Word) -> Tuple[int, int]:
    """Return (|w|, t(w)); the pair determines the word uniquely."""
    return len(w), offset(w)


def decode(length: int, off: int) -> Word:
    """Inverse of encode; raises DomainError when off is out of range."""
    if length < 0:
        raise DomainError(f"word length must be >= 0, got {length}")
    if not 0 <= off < (1 << length):
        raise DomainError(f"offset {off} out of range for length {length}")
    return tuple(1 if (off >> j) & 1 else 2 for j in range(length))


def is_prefix(u: Word, v: Word) -> bool:
    return len(u) <= len(v) and v[: len(u)] == u


def carets(ws: Iterable[Word]) -> Set[Word]:
    """The proper prefixes of the words: the inner nodes of their trie."""
    out: Set[Word] = set()
    for w in ws:
        while w:
            w = w[:-1]
            # a prefix already in the set brought all shorter ones with it
            if w in out:
                break
            out.add(w)
    return out


def is_partition(ws: Iterable[Word]) -> bool:
    """True iff the words form a complete prefix-free family.

    The words are distinct, none of them is a caret (a proper prefix of
    another), and there is one word more than there are carets: a rooted
    tree has one leaf more than inner nodes exactly when every inner node
    has two children.
    """
    words = list(ws)
    leaves = set(words)
    inner = carets(leaves)
    return len(words) == len(leaves) == len(inner) + 1 \
        and leaves.isdisjoint(inner)


def all_words(length: int) -> list[Word]:
    """All words of the given length in lexicographic order (1 < 2)."""
    out = [EMPTY]
    for _ in range(length):
        out = [w + (letter,) for w in out for letter in (1, 2)]
    return out


def lex_index(w: Word) -> int:
    """Position of w among the words of its length, lexicographic, 0-based."""
    i = 0
    for letter in w:
        i = (i << 1) | (letter - 1)
    return i


def word_by_lex_index(length: int, i: int) -> Word:
    if not 0 <= i < (1 << length):
        raise DomainError(f"lex index {i} out of range for length {length}")
    return tuple(1 + ((i >> (length - 1 - j)) & 1) for j in range(length))


def flip(w: Word) -> Word:
    """Swap the letters 1 <-> 2 throughout."""
    return tuple(3 - letter for letter in w)


def word_str(w: Word) -> str:
    return "".join(str(letter) for letter in w) if w else "e"


def parse_word(text: str) -> Word:
    s = text.strip()
    if s in ("e", ""):
        return EMPTY
    w = []
    for i, ch in enumerate(s):
        if ch not in "12":
            raise ParseError(f"bad letter {ch!r} in word {text!r}", i)
        w.append(int(ch))
    return tuple(w)
