import pytest
from hypothesis import given, strategies as st

from qu2.canrep import mono_image
from qu2.errors import ParseError
from qu2.monomial import (
    Monomial,
    ONE,
    adjoint_mono,
    expand_right,
    mono_mul,
    mono_str,
    parse_mono,
    push_u_through,
    u_pow,
)

words = st.lists(st.sampled_from((1, 2)), max_size=5).map(tuple)
monos = st.builds(Monomial, words, st.integers(-40, 40), words)
indices = st.integers(-300, 300)


def test_constructors():
    assert u_pow(3) == Monomial((), 3, ())
    assert ONE == Monomial((), 0, ())


def test_push_u_through():
    # U S_2 = S_1, U S_1 = S_2 U: the odometer advanced one step
    assert push_u_through(1, (2,)) == ((1,), 0)
    assert push_u_through(1, (1,)) == ((2,), 1)
    # t(a) + k = 2^|a| * q + t(a2)
    assert push_u_through(2, (2, 2)) == ((2, 1), 0)
    assert push_u_through(-1, (2, 2)) == ((1, 1), -1)
    assert push_u_through(4, (2, 1)) == ((2, 1), 1)


@given(st.integers(-100, 100), words, indices)
def test_push_u_through_is_commutation(k, w, n):
    # both sides of U^k S_w = S_w2 U^q as maps on basis indices
    w2, q = push_u_through(k, w)
    lhs = mono_image(u_pow(k), mono_image(Monomial(w, 0, ()), n))
    rhs = mono_image(Monomial(w2, q, ()), n)
    assert lhs == rhs


def test_mono_mul_branches():
    # beta against alpha: equal words cancel
    assert mono_mul(Monomial((1,), 0, ()), Monomial((), 0, (1,))) == \
        Monomial((1,), 0, (1,))
    # S_2* S_1 = 0
    assert mono_mul(Monomial((), 0, (2,)), Monomial((1,), 0, ())) is None
    # longer beta survives with a real tail
    assert mono_mul(Monomial((), 0, (1, 2)), Monomial((1,), 0, ())) == \
        Monomial((), 0, (2,))
    # charge pushes through the surviving alpha tail: U S_2 = S_1
    assert mono_mul(u_pow(1), Monomial((2,), 0, ())) == Monomial((1,), 0, ())


@given(monos, monos, indices)
def test_mono_mul_matches_action(m1, m2, n):
    prod = mono_mul(m1, m2)
    step = mono_image(m2, n)
    want = None if step is None else mono_image(m1, step)
    got = None if prod is None else mono_image(prod, n)
    assert got == want


@given(monos, indices)
def test_adjoint_reverses_action(m, n):
    # m* e_n = e_j iff m e_j = e_n; partial isometries of affine type
    j = mono_image(adjoint_mono(m), n)
    if j is not None:
        assert mono_image(m, j) == n


@given(monos, indices)
def test_expand_right_preserves_action(m, n):
    children = expand_right(m)
    images = [mono_image(t, n) for t in children]
    hits = [i for i in images if i is not None]
    assert len(hits) <= 1
    assert (hits[0] if hits else None) == mono_image(m, n)


@given(monos)
def test_expand_right_shape(m):
    one_child, two_child = expand_right(m)
    assert one_child.beta[-1] in (1, 2) and two_child.beta[-1] in (1, 2)
    assert one_child.alpha == m.alpha + (1,)
    assert two_child.alpha == m.alpha + (2,)
    assert len(one_child.beta) == len(m.beta) + 1
    # charges of the children recombine to the parent charge
    assert one_child.k + two_child.k == m.k


def test_expand_right_examples():
    # even charge keeps matching letters; odd charge crosses them
    assert expand_right(ONE) == (Monomial((1,), 0, (1,)), Monomial((2,), 0, (2,)))
    assert expand_right(u_pow(1)) == (
        Monomial((1,), 0, (2,)),
        Monomial((2,), 1, (1,)),
    )


def test_str_round_trip():
    for text in ["S[112] U^3 S*[21]", "U^-4", "S[2]", "1", "P[12]"]:
        m = parse_mono(text)
        assert parse_mono(mono_str(m)) == m
    assert mono_str(Monomial((1, 2), 0, (1, 2))) == "P[12]"
    assert mono_str(ONE) == "1"
    with pytest.raises(ParseError):
        parse_mono("S[112] w")
    with pytest.raises(ParseError):
        parse_mono("")
