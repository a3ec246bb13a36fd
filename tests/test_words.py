import pytest
from hypothesis import example, given, strategies as st

from qu2.errors import DomainError, ParseError
from qu2.words import (
    all_words,
    carets,
    decode,
    encode,
    flip,
    is_partition,
    is_prefix,
    lex_index,
    offset,
    parse_word,
    word_by_lex_index,
    word_str,
)

words = st.lists(st.sampled_from((1, 2)), max_size=8).map(tuple)


def test_offset_examples():
    # leftmost letter is the least significant bit, digit(1)=1, digit(2)=0
    assert offset(()) == 0
    assert offset((1,)) == 1
    assert offset((2,)) == 0
    assert offset((1, 2)) == 1
    assert offset((2, 1)) == 2
    assert offset((1, 1, 2)) == 3
    assert offset((2, 2, 1)) == 4


@given(words)
def test_decode_inverts_encode(w):
    assert decode(*encode(w)) == w


@given(st.integers(0, 64).flatmap(
    lambda length: st.tuples(st.just(length), st.integers(0, (1 << length) - 1))))
def test_encode_inverts_decode(code):
    length, n = code
    assert encode(decode(length, n)) == (length, n)


def test_decode_range_checked():
    with pytest.raises(DomainError):
        decode(2, 4)
    with pytest.raises(DomainError):
        decode(-1, 0)


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
            assert word_by_lex_index(k, i) == w


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
