from collections import Counter

import pytest
from hypothesis import given, strategies as st

from bihooks.laurent import (
    LaurentPoly, ONE, ZERO, c_factor, dot, quantum_factorial, quantum_integer,
)
from bihooks.padic import digits, is_prime, leq_p, nu_p, preceq_p

poly_st = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(min_value=-6, max_value=6),
                    st.integers(min_value=-9, max_value=9), max_size=6))


def test_basic_arithmetic():
    f = LaurentPoly({-2: 1, 0: 2, 2: 1})
    assert str(f) == "q^-2 + 2 + q^2"
    assert f == quantum_integer(2) ** 2
    assert (f - f) == ZERO
    assert f.at_one() == 4
    assert f.shift(3).min_exp() == 1


@given(poly_st, poly_st)
def test_bar_is_ring_involution(f, g):
    assert f.bar().bar() == f
    assert (f + g).bar() == f.bar() + g.bar()
    assert (f * g).bar() == f.bar() * g.bar()


@given(poly_st)
def test_text_and_pairs_round_trip(f):
    assert LaurentPoly.from_pairs(f.to_pairs()) == f


@given(poly_st, poly_st, st.integers(min_value=-3, max_value=3))
def test_operations_never_mutate_an_operand(f, g, k):
    # matrices share one LaurentPoly per distinct value, so no operation
    # may write to an operand's dict, even when both operands are one object
    before = (dict(f.iter_terms()), dict(g.iter_terms()))
    dicts = (f._c, g._c)
    for a, b in ((f, g), (g, f), (f, f)):
        a + b, a - b, a * b, -a, a.bar(), a.bar_closure()
        a + k, k + a, a - k, k - a, a * k, k * a
        LaurentPoly.from_pairs(a.to_pairs())
        dot([(a, b), (b, a), (a, a)])
    assert (dict(f.iter_terms()), dict(g.iter_terms())) == before
    assert f._c is dicts[0] and g._c is dicts[1]


@given(st.lists(st.tuples(poly_st, poly_st), max_size=4))
def test_dot_is_the_sum_of_products(pairs):
    want = Counter()
    for a, b in pairs:
        for ka, va in a.items():
            for kb, vb in b.items():
                want[ka + kb] += va * vb
    got = dot(pairs)
    assert dict(got.iter_terms()) == {k: v for k, v in want.items() if v}
    assert 0 not in dict(got.iter_terms()).values()
    assert dot(()) == ZERO and dot(iter(pairs)) == got
    for a, b in pairs:
        assert a * b == dot([(a, b)])


@given(st.one_of(poly_st, st.integers(min_value=-9, max_value=9)),
       st.one_of(poly_st, st.integers(min_value=-9, max_value=9)))
def test_equal_values_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_constants_hash_as_ints():
    assert len({ONE, 1}) == 1 and len({ZERO, 0}) == 1
    assert Counter([ONE, 1, LaurentPoly({0: 3}), 3]) == Counter({1: 2, 3: 2})


def test_from_pairs_contract():
    # exactly what to_pairs writes, in any order, and nothing else
    f = LaurentPoly.from_pairs([[1, 5], [-1, 4], [2, 1]])
    assert f.iter_terms() == {1: 5, -1: 4, 2: 1}.items()
    assert LaurentPoly.from_pairs([]) == ZERO
    for pairs in ([[2.9, 1]], [[1.0, 1]], [["1", 1]], [[True, 1]],
                  [[float("inf"), 1]], [[1, 1.0]], [[1, "1"]], [[1, True]],
                  [[1, float("inf")]], [[1, 0]], [[1, 2], [2, 0]],
                  [[1, 2], [1, 5]], [[1, 2], [1, -2]], [[[1], 2]]):
        with pytest.raises(ValueError):
            LaurentPoly.from_pairs(pairs)


def test_bar_closure():
    f = LaurentPoly({-2: 3, 0: 1, 1: 7})
    g = f.bar_closure()
    assert g.is_bar_invariant()
    assert (f - g).in_q_window() or not (f - g)
    assert ZERO.bar_closure() == ZERO


def test_quantum_integers():
    assert quantum_integer(1) == ONE
    assert quantum_integer(2) == LaurentPoly({-1: 1, 1: 1})
    assert quantum_factorial(2) == LaurentPoly({-1: 1, 1: 1})
    assert quantum_factorial(0) == ONE
    for n in range(21):
        qn = quantum_integer(n)
        qf = quantum_factorial(n)
        assert qn.is_bar_invariant() and qf.is_bar_invariant()
        assert qn.has_nonneg_coeffs() and qf.has_nonneg_coeffs()
    import math
    assert quantum_factorial(6).at_one() == math.factorial(6)


def test_c_factor():
    assert c_factor((1, 1, 1), 3) == ONE
    assert c_factor((2,), 2) == LaurentPoly({-2: 1, 0: 2, 2: 1})
    assert c_factor((2, 3), 2) == c_factor((2,), 2) * c_factor((3,), 2)
    with pytest.raises(ValueError):
        c_factor((2, 0), 2)


def test_exact_div():
    f = quantum_factorial(4)
    g = quantum_integer(3) * quantum_integer(4)
    assert f.exact_div(quantum_factorial(2)) == g
    with pytest.raises(ValueError):
        (quantum_integer(2) + ONE).exact_div(quantum_integer(2))


@given(poly_st, poly_st)
def test_exact_div_inverts_multiplication(f, g):
    if f and g:
        assert (f * g).exact_div(g) == f


# p-adic helpers

def test_nu_p():
    assert nu_p(8, 2) == 3
    assert nu_p(6, 3) == 1
    assert nu_p(7, 5) == 0
    with pytest.raises(ValueError):
        nu_p(0, 2)
    with pytest.raises(ValueError):
        nu_p(4, 4)


def test_digit_orders_examples():
    assert leq_p(0, 17, 3)
    assert leq_p(2, 6, 2)
    assert not leq_p(1, 4, 2)
    assert preceq_p(0, 5, 3)
    assert not preceq_p(1, 3, 3)
    assert preceq_p(2 // 3, 11 // 3, 3)


def test_digit_orders_against_bruteforce():
    for p in (2, 3, 5, 7):
        for a in range(0, 120):
            da = digits(a, p)
            assert sum(d * p ** i for i, d in enumerate(da)) == a
            assert leq_p(a, a, p) and preceq_p(a, a, p)
            for b in range(0, 120):
                db = digits(b, p)
                width = max(len(da), len(db))
                xa = da + [0] * (width - len(da))
                xb = db + [0] * (width - len(db))
                assert leq_p(a, b, p) == all(x <= y for x, y in zip(xa, xb))
                assert preceq_p(a, b, p) == all(x == 0 or x == y
                                                for x, y in zip(xa, xb))


def test_leq_transitive():
    for p in (2, 3):
        for a in range(40):
            for b in range(40):
                if not leq_p(a, b, p):
                    continue
                for c in range(40):
                    if leq_p(b, c, p):
                        assert leq_p(a, c, p)


def test_is_prime():
    assert [x for x in range(20) if is_prime(x)] == [2, 3, 5, 7, 11, 13, 17, 19]
