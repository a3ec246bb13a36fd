"""Finite words over the alphabet {1, 2} and prefix-free partitions.

A word labels a composite isometry S_w = S_{w_1} S_{w_2} ... S_{w_n}; on the
integer basis S_w acts by m |-> 2^|w| * m + t(w) where the offset t(w) reads
the word as a dyadic expansion, leftmost letter least significant, with the
letter 1 carrying the digit 1 and the letter 2 the digit 0.  The pair
(|w|, t(w)) determines the word.

The words of up to _TABLE_LEN letters sit in one table built at import,
indexed [length][offset], with an inverse dict from word to offset; decode
and offset answer from it, both read a word of up to twice that length as
two table words, and longer words go through bytes.translate.
Element.__mul__ also reads words of up to _TABLE_LEN letters straight
from the table, so its layout is shared with that loop.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from .errors import DomainError, ParseError

Word = Tuple[int, ...]

EMPTY: Word = ()

# the words of length n + 1 by doubling: those of length n with a 2
# appended (offsets below 2^n), then with a 1 appended (its digit is the
# top bit)
_TABLE_LEN = 8
_TABLE: list[list[Word]] = [[EMPTY]]
for _n in range(_TABLE_LEN):
    _TABLE.append([w + (2,) for w in _TABLE[-1]] + [w + (1,) for w in _TABLE[-1]])
_OFFSETS = {w: t for row in _TABLE for t, w in enumerate(row)}
_FULL, _MASK = _TABLE[_TABLE_LEN], (1 << _TABLE_LEN) - 1

# bytes.translate tables: digit characters to letters ("1" -> 1, "0" -> 2),
# and letters to digit characters, every other byte to a non-digit
_LETTERS = bytes.maketrans(b"01", b"\x02\x01")
_DIGITS = b"x10" + b"x" * 253


def offset(w: Word) -> int:
    """t(w) = sum_j [w_j = 1] * 2^(j-1), leftmost letter least significant."""
    t = _OFFSETS.get(w)
    if t is not None:
        return t
    if len(w) <= 2 * _TABLE_LEN:
        # two table words: the first _TABLE_LEN letters are the low bits;
        # a bad letter finds no table word and falls through to raise
        low, high = _OFFSETS.get(w[:_TABLE_LEN]), _OFFSETS.get(w[_TABLE_LEN:])
        if low is not None and high is not None:
            return low | high << _TABLE_LEN
    try:
        # the digits most significant first; a letter other than 1 or 2
        # becomes "x", which int refuses, or fails in bytes()
        return int(bytes(w).translate(_DIGITS)[::-1], 2)
    except (TypeError, ValueError):
        raise DomainError(f"letters must be 1 or 2, got {w!r}") from None


def decode(length: int, off: int) -> Word:
    """The word with |w| = length and t(w) = off; raises DomainError when
    off is out of range."""
    if length < 0:
        raise DomainError(f"word length must be >= 0, got {length}")
    if not 0 <= off < (1 << length):
        raise DomainError(f"offset {off} out of range for length {length}")
    if length <= _TABLE_LEN:
        return _TABLE[length][off]
    if length <= 2 * _TABLE_LEN:
        # two table words: the first _TABLE_LEN letters are the low bits
        return (_FULL[off & _MASK]
                + _TABLE[length - _TABLE_LEN][off >> _TABLE_LEN])
    # the binary digits with a sentinel top bit, least significant first
    return tuple(format(off | 1 << length, "b")[:0:-1].encode()
                 .translate(_LETTERS))


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


def flip(w: Word) -> Word:
    """Swap the letters 1 <-> 2 throughout."""
    return tuple(3 - letter for letter in w)


def word_str(w: Word) -> str:
    return "".join(map(str, w)) if w else "e"


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
