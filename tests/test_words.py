import random

import pytest
from hypothesis import example, given, strategies as st

from qu2.errors import DomainError, ParseError
from qu2.words import (
    all_words,
    carets,
    decode,
    flip,
    is_partition,
    is_prefix,
    lex_index,
    offset,
    parse_word,
    word_str,
)

words = st.lists(st.sampled_from((1, 2)), max_size=8).map(tuple)


def test_offset_examples():
    # leftmost letter is the least significant bit: 1 carries the digit 1,
    # 2 the digit 0
    assert offset(()) == 0
    assert offset((1,)) == 1
    assert offset((2,)) == 0
    assert offset((1, 2)) == 1
    assert offset((2, 1)) == 2
    assert offset((1, 1, 2)) == 3
    assert offset((2, 2, 1)) == 4


@given(words)
def test_decode_inverts_offset(w):
    assert decode(len(w), offset(w)) == w


@given(st.integers(0, 64).flatmap(
    lambda length: st.tuples(st.just(length), st.integers(0, (1 << length) - 1))))
def test_offset_inverts_decode(code):
    length, n = code
    w = decode(length, n)
    assert (len(w), offset(w)) == (length, n)


def test_round_trip_across_table_length():
    # every word up to 12 letters, so lengths inside and past the word
    # table are both read, against the defining sum
    for length in range(13):
        ws = all_words(length)
        offs = [offset(w) for w in ws]
        assert offs == [sum((letter == 1) << j for j, letter in enumerate(w))
                        for w in ws]
        assert [decode(length, t) for t in offs] == ws


def test_decode_offset_round_trip_by_length():
    # lengths inside the word table, read as two table words (9-16) and
    # read through bytes (17 on): seeded words against the defining sum
    rng = random.Random(9)
    for length in list(range(41)) + [64, 512]:
        ws = [tuple(rng.choice((1, 2)) for _ in range(length))
              for _ in range(40)]
        ws += [(1,) * length, (2,) * length]
        for w in ws:
            t = sum((letter == 1) << j for j, letter in enumerate(w))
            assert offset(w) == t
            assert decode(length, t) == w


def test_decode_range_checked():
    # (2, -1) would index the word table from its end without the check
    for length, n in [(2, 4), (2, -1), (-1, 0), (12, 1 << 12), (12, -1)]:
        with pytest.raises(DomainError):
            decode(length, n)


def test_offset_rejects_bad_letters():
    # inside the table's length and past it, where "0" and "1" as letters
    # (48, 49) must not read as digits
    for w in [(1, 3), (0,), (1,) * 11 + (3,), (2,) * 11 + (48,),
              (1,) * 11 + (49,), (1,) * 11 + (-1,), (1,) * 11 + ("1",)]:
        with pytest.raises(DomainError):
            offset(w)
    # 9-16 letters are read as two table words: a bad letter in either
    for length in range(9, 17):
        for pos in (0, 7, 8, length - 1):
            for bad in (0, 3, 49, "1", None):
                w = (1, 2) * 8
                with pytest.raises(DomainError):
                    offset(w[:pos] + (bad,) + w[pos + 1:length])


def test_prefix():
    assert is_prefix((1, 2), (1, 2, 1))
    assert is_prefix((), (2,))
    assert is_prefix((1,), (1,))
    assert not is_prefix((2,), (1, 2))
    assert not is_prefix((1, 2, 1), (1, 2))


def test_partition():
    assert is_partition([()])
    assert is_partition([(1,), (2,)])
    assert is_partition([(1,), (2, 1), (2, 2)])
    # duplicate word: fails prefix-freeness
    assert not is_partition([(1,), (1,), (2,)])
    # incomplete
    assert not is_partition([(1,), (2, 1)])
    # overlapping
    assert not is_partition([(1,), (1, 2), (2,)])
    assert not is_partition([])


def kraft_is_partition(ws):
    """The reference rule: sorted, no word a prefix of the next, and the
    2^-|w| summing to 1."""
    words = sorted(ws)
    if not words:
        return False
    if any(is_prefix(a, b) for a, b in zip(words, words[1:])):
        return False
    depth = max(len(w) for w in words)
    return sum(1 << (depth - len(w)) for w in words) == 1 << depth


@st.composite
def families(draw):
    """A random partition, then up to two edits: a word dropped, repeated,
    cut to one of its prefixes, or a random word added."""
    ws = [()]
    for _ in range(draw(st.integers(0, 6))):
        w = ws.pop(draw(st.integers(0, len(ws) - 1)))
        ws += [w + (1,), w + (2,)]
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(("drop", "repeat", "prefix", "add")))
        if how == "add" or not ws:
            ws.append(draw(words))
            continue
        w = draw(st.sampled_from(ws))
        if how == "drop":
            ws.remove(w)
        elif how == "repeat":
            ws.append(w)
        else:
            ws.append(w[:draw(st.integers(0, len(w)))])
    return draw(st.permutations(ws))


@given(families())
@example([])
@example([()])
@example([(), ()])
@example([(), (1,), (2,)])
def test_partition_matches_kraft_rule(ws):
    assert is_partition(ws) == kraft_is_partition(ws)


@given(st.lists(words, max_size=6))
def test_carets_are_proper_prefixes(ws):
    assert carets(ws) == {w[:i] for w in ws for i in range(len(w))}


def test_lex_order():
    assert all_words(2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    for k in range(4):
        ws = all_words(k)
        assert len(ws) == 2 ** k
        assert sorted(ws) == ws
        for i, w in enumerate(ws):
            assert lex_index(w) == i


def test_flip():
    assert flip((1, 2, 2)) == (2, 1, 1)
    assert flip(()) == ()


@given(words)
def test_flip_involution(w):
    assert flip(flip(w)) == w


def test_word_str_round_trip():
    assert word_str(()) == "e"
    assert word_str((1, 2, 1)) == "121"
    assert parse_word("e") == ()
    assert parse_word("121") == (1, 2, 1)
    with pytest.raises(ParseError):
        parse_word("103")
