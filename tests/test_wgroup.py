import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import qu2.element
import qu2.wgroup
import qu2.words
from qu2.errors import CapacityError, DomainError, ParseError
from qu2.element import (
    Element,
    eq,
    element_str,
    flip_flop,
    normalize,
    one,
    parse_element,
    total_charge,
    u,
)
from qu2.monomial import Monomial, expand_right
from qu2.wgroup import (
    Diagram,
    charge,
    diagram_from_json,
    diagram_to_json,
    from_element,
    group_inv,
    group_mul,
    identity_diagram,
    leaves,
    reduce,
    render,
    to_element,
    tree_from_words,
)
from qu2.words import all_words, carets, is_partition
from helpers import time_limit
from test_words import families

F = parse_element("P[11] + S[12] S*[21] + S[21] S*[12] + P[22]")

# a twisted 3-leaf diagram: leaves 11,12,2 over 1,21,22 with a swap
D3 = Diagram(((0, 0), 0), (0, (0, 0)), (1, 0, 2), (7, -3, 2))

@st.composite
def trees_with(draw, n):
    if n == 1:
        return 0
    left = draw(st.integers(1, n - 1))
    return (draw(trees_with(left)), draw(trees_with(n - left)))


@st.composite
def diagram_args(draw, charges=st.integers(-10, 10), n=None):
    """(t_plus, t_minus, tau, v), with n leaves or 1 to 7."""
    n = n or draw(st.integers(1, 7))
    t_plus = draw(trees_with(n))
    t_minus = draw(trees_with(n))
    tau = tuple(draw(st.permutations(range(n))))
    v = tuple(draw(st.lists(charges, min_size=n, max_size=n)))
    return t_plus, t_minus, tau, v


def diagrams(charges=st.integers(-10, 10)):
    return diagram_args(charges).map(lambda args: Diagram(*args))


def re_expand(d, draw):
    """d with 1 to 8 of its leaves split again by expand_right."""
    terms = sorted(to_element(d).terms)
    for _ in range(draw(st.integers(1, 8))):
        terms.extend(expand_right(terms.pop(draw(st.integers(0, len(terms) - 1)))))
    return from_element(Element(dict.fromkeys(terms, 1)))


def test_to_element_examples():
    assert eq(to_element(Diagram(0, 0, (0,), (4,))), u(4))
    assert element_str(to_element(D3)) == \
        "S[11] U^7 S*[21] + S[12] U^-3 S*[1] + S[2] U^2 S*[22]"
    d = Diagram((0, 0), (0, 0), (1, 0), (0, 0))
    assert eq(to_element(d), flip_flop())


def test_from_element_examples():
    assert from_element(u()) == Diagram(0, 0, (0,), (1,))
    assert from_element(F) == Diagram(
        ((0, 0), (0, 0)), ((0, 0), (0, 0)), (0, 2, 1, 3), (0, 0, 0, 0))
    assert from_element(flip_flop()) == Diagram((0, 0), (0, 0), (1, 0), (0, 0))
    # not unitary; repeated alpha words; repeated beta words
    for text in ("S[2]", "S[1] S*[1] + S[1] S*[2]", "S[1] S*[1] + S[2] S*[1]",
                 "S[1] S*[1] + S[2] U S*[2] + S[2] S*[2]"):
        with pytest.raises(DomainError):
            from_element(parse_element(text))


def test_diagram_validation():
    with pytest.raises(DomainError):
        Diagram(0, (0, 0), (0,), (0,))  # leaf counts differ
    with pytest.raises(DomainError):
        Diagram((0, 0), (0, 0), (0, 0), (0, 0))  # tau not a permutation
    with pytest.raises(DomainError):
        Diagram((0, 0), (0, 0), (0, 1), (0,))  # v has wrong length


def test_tree_from_words():
    assert tree_from_words([(1, 1), (1, 2), (2,)]) == ((0, 0), 0)
    with pytest.raises(DomainError):
        tree_from_words([(1,), (2, 1)])
    # repeated words, a word that is a prefix of another, no words at all
    for words in ([(1,), (1,), (2,)], [(1,), (1, 2), (2,)], [(), (1,), (2,)], []):
        with pytest.raises(DomainError):
            tree_from_words(words)
    assert tree_from_words([()]) == 0


def caret_tree(ws):
    """The reference builder: each caret, deepest first, joins its two
    children."""
    nodes = dict.fromkeys(ws, 0)
    for w in sorted(carets(nodes), key=len, reverse=True):
        nodes[w] = (nodes.pop(w + (1,)), nodes.pop(w + (2,)))
    return nodes[()]


@st.composite
def partitions(draw):
    """A random partition of up to 41 words, in random order."""
    ws = [()]
    for _ in range(draw(st.integers(0, 40))):
        w = ws.pop(draw(st.integers(0, len(ws) - 1)))
        ws += [w + (1,), w + (2,)]
    return draw(st.permutations(ws))


@given(partitions())
def test_tree_from_words_matches_caret_builder(ws):
    assert tree_from_words(ws) == caret_tree(ws)


@given(families())
def test_tree_from_words_raises_unless_partition(ws):
    if is_partition(ws):
        assert sorted(leaves(tree_from_words(ws))) == sorted(ws)
    else:
        with pytest.raises(DomainError):
            tree_from_words(ws)


def test_reduce_examples():
    # inverse of the depth-1 expansion of U^n
    for n in (-3, 0, 1, 5):
        d = from_element(normalize(u(n), 1))
        assert reduce(d) == Diagram(0, 0, (0,), (n,))
    # generic charges: no move applies
    assert reduce(D3) == D3
    # identity expanded two levels folds all the way back
    assert reduce(from_element(normalize(one(), 2))) == identity_diagram()


@given(diagrams())
def test_reduce_preserves_element(d):
    assert eq(to_element(reduce(d)), to_element(d))


@given(diagrams())
def test_reduce_idempotent(d):
    r = reduce(d)
    assert reduce(r) == r


def _moves(terms):
    """Carets w of T+ whose leaves w1, w2 undo one charge-parity split:
      even: (w1, j, x1), (w2, j, x2)   -> (w, 2j, x)
      odd:  (w1, j, x2), (w2, j+1, x1) -> (w, 2j+1, x)"""
    moves = []
    for a in terms:
        if not a or a[-1] != 1 or a[:-1] + (2,) not in terms:
            continue
        (j1, b1), (j2, b2) = terms[a], terms[a[:-1] + (2,)]
        if not b1 or not b2 or b1[:-1] != b2[:-1]:
            continue
        if (j1 == j2 and (b1[-1], b2[-1]) == (1, 2)) or \
                (j2 == j1 + 1 and (b1[-1], b2[-1]) == (2, 1)):
            moves.append(a[:-1])
    return moves


def reduce_by_moves(d, rng):
    """Reference reduction: rescan for moves after every merge, apply a
    random one, stop when none is left."""
    terms = {m.alpha: (m.k, m.beta) for m in to_element(d).terms}
    while moves := _moves(terms):
        w = rng.choice(moves)
        (j1, b1), (j2, _b2) = terms.pop(w + (1,)), terms.pop(w + (2,))
        terms[w] = (j1 + j2, b1[:-1])
    return from_element(Element({Monomial(a, k, b): 1
                                 for a, (k, b) in terms.items()}))


@settings(deadline=None, max_examples=60)
@given(diagrams(), st.data(), st.integers(0, 2 ** 32 - 1))
def test_reduce_confluent_under_random_move_order(d, data, seed):
    rng = random.Random(seed)
    e = re_expand(d, data.draw)
    assert reduce(d) == reduce_by_moves(d, rng)
    assert reduce(e) == reduce_by_moves(e, rng)
    # reduced forms are unique, so splitting leaves again changes nothing
    assert reduce(e) == reduce(d)


def test_reduce_large_expansion_is_linear():
    # U^5 written out over all 4096 words of length 12 folds back in one pass
    d = from_element(normalize(u(5), 12))
    assert d.leaf_count() == 4096
    with time_limit(3, "reduce of a 4096-leaf diagram"):
        assert reduce(d) == Diagram(0, 0, (0,), (5,))


@settings(deadline=None, max_examples=40)
@given(diagrams(), diagrams())
def test_group_mul_matches_element_product(d1, d2):
    prod = group_mul(d1, d2)
    assert eq(to_element(prod), to_element(d1) * to_element(d2))
    assert prod == reduce(prod)


def element_path(d1, d2):
    """The product through the operator algebra: both diagrams as Elements,
    their Element product, read back and reduced."""
    return reduce(from_element(to_element(d1) * to_element(d2)))


# small charges, and charges far past any word's offset range
wide_diagrams = diagrams(st.one_of(st.integers(-10, 10),
                                   st.integers(-2 ** 70, 2 ** 70)))


@settings(deadline=None, max_examples=150)
@given(wide_diagrams, wide_diagrams, st.data())
def test_group_mul_equals_element_path(d1, d2, data):
    # unreduced operands too: leaves split again by expand_right
    if data.draw(st.booleans()):
        d1 = re_expand(d1, data.draw)
    if data.draw(st.booleans()):
        d2 = re_expand(d2, data.draw)
    assert group_mul(d1, d2) == element_path(d1, d2)


def test_group_mul_builds_no_element(monkeypatch):
    e1 = normalize(to_element(D3), 3)
    d1 = from_element(e1)  # unreduced
    d2 = from_element(F)
    want = element_path(d1, d2)
    want_inv = from_element(e1.adjoint())
    want_reduced = from_element(to_element(D3))
    terms = e1.terms

    def refuse(*_args, **_kwargs):
        raise AssertionError("a group operation built a tree or an Element")

    # the bridge to the algebra reads and writes leaf maps: no tree is
    # built or walked into words
    monkeypatch.setattr(qu2.wgroup, "_tree", refuse)
    monkeypatch.setattr(qu2.wgroup, "leaves", refuse)
    assert to_element(d1).terms == terms
    assert from_element(e1) == d1
    # and the group operations build no Element either
    monkeypatch.setattr(Element, "__init__", refuse)
    monkeypatch.setattr(Element, "__mul__", refuse)
    monkeypatch.setattr(qu2.element, "_refine", refuse)
    monkeypatch.setattr(qu2.wgroup, "is_partition", refuse)
    monkeypatch.setattr(qu2.words, "is_partition", refuse)
    assert group_mul(d1, d2) == want
    assert group_inv(d1) == want_inv
    assert reduce(d1) == want_reduced


def test_group_mul_large_is_linear():
    # U^5 and U^-5 written out over all 4096 words of length 12: a product
    # that pairs every term with every other takes 16.7M pair tests
    d = from_element(normalize(u(5), 12))
    inv = from_element(normalize(u(-5), 12))
    with time_limit(1, "products of two 4096-leaf diagrams"):
        assert group_mul(d, inv) == identity_diagram()
        assert group_mul(d, d) == Diagram(0, 0, (0,), (10,))


def combs(n):
    """(right comb, left comb) with n carets: leaves 1, 21, ..., 2^n and
    1^n, 1^(n-1) 2, ..., 2."""
    right = left = 0
    for _ in range(n):
        right, left = (0, right), (left, 0)
    return right, left


def test_group_mul_deeper_than_the_cap_is_capacity_error():
    # d d pairs the left comb's leaf 1^n with the right comb's leaf 1, so
    # the product has words of 2n - 1 letters
    right, left = combs(200)
    d = Diagram(right, left, tuple(range(201)), (0,) * 201)
    assert group_mul(d, d) == element_path(d, d)
    right, left = combs(300)
    d = Diagram(right, left, tuple(range(301)), (0,) * 301)
    with pytest.raises(CapacityError, match="deeper than 512 levels"):
        group_mul(d, d)


def test_deep_tree_is_refused_at_construction():
    # a 4,000-deep comb once cost group_mul 1.1 s and 303 MiB of words;
    # the constructor refuses it before building a word past the cap
    right, left = combs(4000)
    with time_limit(0.1, "Diagram of a 4,000-deep comb"):
        with pytest.raises(CapacityError, match="deeper than 512 levels"):
            Diagram(right, left, tuple(range(4001)), (0,) * 4001)
    right, left = combs(512)
    assert Diagram(right, left, tuple(range(513)), (0,) * 513).leaf_count() == 513
    right, left = combs(513)
    with pytest.raises(CapacityError, match="deeper than 512 levels"):
        Diagram(right, left, tuple(range(514)), (0,) * 514)


def test_element_deeper_than_the_cap_is_capacity_error():
    # the comb 2, 12, ..., 1^(n-1) 2, 1^n has a word of n letters; paired
    # with a tree of depth 10 on the other side, it is read into a diagram
    # up to n = 512, on either side
    for n in (512, 513):
        comb = [(1,) * i + (2,) for i in range(n)] + [(1,) * n]
        short = all_words(9)
        short = [w + (x,) for w in short[:n - 511] for x in (1, 2)] \
            + short[n - 511:]
        e = Element({Monomial(a, 0, b): 1 for a, b in zip(short, comb)})
        for x in (e, e.adjoint()):
            if n == 512:
                assert from_element(x).leaf_count() == n + 1
            else:
                with pytest.raises(CapacityError, match="deeper than 512 levels"):
                    from_element(x)


wide_charges = st.one_of(st.integers(-10, 10), st.integers(-2 ** 70, 2 ** 70))


@settings(max_examples=200)
@given(diagram_args(wide_charges), st.data())
def test_fields_round_trip_through_the_leaf_map(args, data):
    t_plus, t_minus, tau, v = args
    d = Diagram(*args)
    assert (d.t_plus, d.t_minus, d.tau, d.v) == args
    assert d.leaf_count() == len(v)
    # a diagram built from the leaf map alone, as products are, derives
    # the same fields, once
    bare = qu2.wgroup._diagram(d.leaf_map)
    assert (bare.t_plus, bare.t_minus, bare.tau, bare.v) == args
    assert bare.tau is bare.tau and repr(bare) == repr(d)
    # the repr and JSON of the tree-pair NamedTuple the leaf map replaced
    assert repr(d) == (f"Diagram(t_plus={t_plus!r}, t_minus={t_minus!r}, "
                       f"tau={tau!r}, v={v!r})")
    assert diagram_to_json(d) == json.dumps(
        {"tplus": t_plus, "tminus": t_minus, "tau": list(tau), "v": list(v)},
        separators=(", ", ": "))
    # a second diagram with the same leaf count, each field kept or redrawn:
    # equal exactly when the four fields are
    fresh = data.draw(diagram_args(wide_charges, n=len(v)))
    other = tuple(old if data.draw(st.booleans()) else new
                  for old, new in zip(args, fresh))
    e = Diagram(*other)
    assert (d == e) == (args == other)
    assert (d != e) == (args != other)
    if d == e:
        assert hash(d) == hash(e)
    assert d == Diagram(*args) and hash(d) == hash(Diagram(*args))


@given(diagrams())
def test_group_inv(d):
    assert eq(to_element(group_inv(d)), to_element(d).adjoint())
    assert group_mul(d, group_inv(d)) == identity_diagram()
    assert group_mul(group_inv(d), d) == identity_diagram()


@settings(deadline=None, max_examples=25)
@given(diagrams(), diagrams(), diagrams())
def test_group_associative(d1, d2, d3):
    assert group_mul(group_mul(d1, d2), d3) == group_mul(d1, group_mul(d2, d3))


@given(diagrams())
def test_charge(d):
    assert charge(d) == sum(d.v)
    assert charge(reduce(d)) == charge(d)
    assert charge(d) == total_charge(to_element(d))
    assert charge(group_inv(d)) == -charge(d)


@given(diagrams(), diagrams())
def test_charge_additive(d1, d2):
    assert charge(group_mul(d1, d2)) == charge(d1) + charge(d2)


@given(diagrams())
def test_round_trips(d):
    assert eq(to_element(from_element(to_element(d))), to_element(d))
    assert diagram_from_json(diagram_to_json(d)) == d


def test_diagram_json_reads_integers_and_numeric_strings():
    d = diagram_from_json('{"tplus": [0, 0], "tminus": [0, 0], '
                          '"tau": ["1", 0], "v": [-2, " 3 "]}')
    assert (d.tau, d.v) == ((1, 0), (-2, 3))


@pytest.mark.parametrize("field, value, message", [
    ("v", [1.5], "each entry of 'v' must be a JSON integer, not 1.5"),
    ("v", [1.0], "each entry of 'v' must be a JSON integer, not 1.0"),
    ("v", [True], "each entry of 'v' must be a JSON integer, not true"),
    ("v", [None], "each entry of 'v' must be a JSON integer, not null"),
    ("v", [[0]], "each entry of 'v' must be a JSON integer, not an array"),
    ("tau", [0.9], "each entry of 'tau' must be a JSON integer, not 0.9"),
    ("tau", [False], "each entry of 'tau' must be a JSON integer, not false"),
    ("tau", ["a"], "invalid literal"),
    ("tau", 0, "'tau' must be an array"),
    ("tau", "0", "'tau' must be an array"),
    ("tplus", False, "bad tree node false"),
    ("tminus", 0.0, "bad tree node 0.0"),
    ("tplus", [0, True], "bad tree node true"),
    ("tplus", [0], "bad tree node an array"),
])
def test_diagram_json_refuses_numbers_that_are_not_integers(field, value,
                                                             message):
    # no truncation (1.5 read as 1, 0.9 as 0, false as a leaf)
    obj = {"tplus": 0, "tminus": 0, "tau": [0], "v": [0], field: value}
    with pytest.raises(ParseError) as exc:
        diagram_from_json(json.dumps(obj))
    assert message in str(exc.value)


def test_json_format():
    assert diagram_to_json(identity_diagram()) == \
        '{"tplus": 0, "tminus": 0, "tau": [0], "v": [0]}'


def test_render_dot():
    out = render(D3, "dot")
    assert out == render(D3, "dot")  # byte-deterministic
    assert "digraph" in out or "graph" in out
    # charges appear as leaf labels, matchings as dashed edges
    for label in ("7", "-3", "2"):
        assert label in out
    assert out.count("dashed") == 3


def test_render_tikz():
    out = render(identity_diagram(), "tikz")
    assert out.startswith("\\begin{tikzpicture}")
    assert out.rstrip().endswith("\\end{tikzpicture}")
    swap = render(from_element(flip_flop()), "tikz")
    assert swap.count("dashed") == 2


def test_render_rejects_unknown_format():
    with pytest.raises(ParseError):
        render(D3, "svg")
