from functools import reduce
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from seprec import series, variants
from seprec.counting import stirling2
from seprec.formulas import rational_series_totals
from seprec.oracle import brute_distribution_a, brute_total_nk
from seprec.series import (
    QPoly,
    distribution_series,
    format_qpoly,
    format_series,
    sep_totals_by_length,
    word_count_factor,
    word_sum_factor,
)


def test_qpoly_basics():
    p = QPoly((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert not QPoly()
    assert QPoly((0, 0, 0, 4)).to_dict() == {3: 4}


def test_qpoly_arithmetic():
    p = QPoly((1, 1))       # 1 + q
    q = QPoly((0, 1, 2))    # q + 2q^2
    assert (p * q).coeffs == (0, 1, 3, 2)
    assert (p * 3).coeffs == (3, 3)
    assert (2 * p).coeffs == (2, 2)
    assert p * QPoly() == QPoly()


def test_qpoly_evaluations():
    p = QPoly((5, 0, 2, 1))  # 5 + 2q^2 + q^3
    assert p.at_one() == 8
    assert p.deriv_at_one() == 0 * 5 + 2 * 2 + 3 * 1
    assert format_qpoly(p) == "5*q^0 + 2*q^2 + 1*q^3"
    assert format_qpoly(QPoly()) == "0"


def test_geometric_series_of_x():
    g = word_count_factor(1, 3)
    assert [c.to_dict() for c in g.coeffs] == [{0: 1}] * 4


def test_geometric_series_of_qx():
    g = word_sum_factor(1, 2)
    assert [c.to_dict() for c in g.coeffs] == [{0: 1}, {1: 1}, {2: 1}]


def test_word_sum_factor_counts_words_by_letter_sum():
    # length-2 words over {1,2}: 11, 12, 21, 22 with sums 2, 3, 3, 4
    f = word_sum_factor(2, 3)
    assert f.coefficient(2).to_dict() == {2: 1, 3: 2, 4: 1}
    # over {1}: single word per length, sum = length
    g = word_sum_factor(1, 4)
    assert [c.to_dict() for c in g.coeffs] == [{0: 1}, {1: 1}, {2: 1}, {3: 1}, {4: 1}]


def test_word_count_factor_is_powers():
    f = word_count_factor(3, 4)
    assert [c.to_dict() for c in f.coeffs] == [{0: 1}, {0: 3}, {0: 9}, {0: 27}, {0: 81}]


def test_word_factors_need_a_positive_alphabet():
    with pytest.raises(ValueError):
        word_sum_factor(0, 3)
    with pytest.raises(ValueError):
        word_count_factor(0, 3)
    # and a negative truncation order
    with pytest.raises(ValueError):
        word_sum_factor(1, -1)
    with pytest.raises(ValueError):
        word_count_factor(1, -1)


def _plus(p, r):
    return QPoly(map(sum, zip_longest(p.coeffs, r.coeffs, fillvalue=0)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.booleans()), max_size=4), st.data())
def test_expand_is_the_product_of_truncated_geometric_series(factors, data):
    # any factor list, in any order, against x^xpower q^qpower times
    # sum_m (x*L)^m per factor, multiplied out with QPoly products
    order = data.draw(st.integers(0, 8))
    xpower = data.draw(st.integers(0, order))
    qpower = data.draw(st.integers(0, 4))
    product = [QPoly()] * (order + 1)
    product[xpower] = QPoly([0] * qpower + [1])
    for j, letters in factors:
        lpoly = QPoly([0] + [1] * j if letters else [j])
        powers = [QPoly([1])]
        for _ in range(order):
            powers.append(powers[-1] * lpoly)
        product = [reduce(_plus, (product[i] * powers[n - i] for i in range(n + 1)))
                   for n in range(order + 1)]
    assert series._expand(order, xpower, qpower, factors).coeffs == tuple(product)


def test_distribution_series_single_block():
    xs = distribution_series(1, 1, 3)
    assert [c.to_dict() for c in xs.coeffs] == [{}, {0: 1}, {0: 1}, {0: 1}]


def test_distribution_series_two_blocks():
    xs = distribution_series(2, 2, 3)
    assert xs.coefficient(2).to_dict() == {1: 1}
    assert xs.coefficient(3).to_dict() == {1: 2, 2: 1}


def test_distribution_series_matches_enumeration():
    for n in range(1, 8):
        for k in range(1, n + 1):
            for a in range(1, k + 1):
                got = distribution_series(k, a, n).coefficient(n).to_dict()
                assert got == brute_distribution_a(n, k, a), (n, k, a)


def test_distribution_series_at_q1_counts_partitions():
    for n in range(1, 9):
        for k in range(1, n + 1):
            for a in range(1, k + 1):
                count = distribution_series(k, a, n).coefficient(n).at_one()
                assert count == stirling2(n, k)


def test_distribution_series_counts_partitions_to_order_20():
    # sizes the enumeration checks never reach: every x^n coefficient at q = 1
    # is S(n, k), whatever the record a
    for k in range(1, 21):
        for a in range(1, k + 1):
            xs = distribution_series(k, a, 20)
            for n in range(k, 21):
                assert xs.coefficient(n).at_one() == stirling2(n, k), (n, k, a)


def test_distribution_series_argument_guards():
    with pytest.raises(ValueError):
        distribution_series(2, 3, 5)
    with pytest.raises(ValueError):
        distribution_series(4, 1, 3)


def test_sep_totals_by_length_examples():
    assert sep_totals_by_length(1, 5) == [0] * 6
    assert sep_totals_by_length(2, 4) == [0, 0, 1, 4, 11]
    assert sep_totals_by_length(3, 4)[4] == 29


def test_sep_totals_by_length_matches_enumeration():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert sep_totals_by_length(k, n)[n] == brute_total_nk(n, k)


@pytest.mark.parametrize("literal", [False, True])
def test_sep_totals_by_length_is_the_q_derivative_of_the_distribution_series(literal):
    # the route through (p(1), p'(1)) pairs against the full q-polynomials,
    # for the validated factors and for the refuted nested ones
    route = variants if literal else series
    for order in range(1, 13):
        for k in range(1, order + 1):
            by_a = [route.distribution_series(k, a, order) for a in range(1, k + 1)]
            want = [sum(xs.coefficient(n).deriv_at_one() for xs in by_a) for n in range(order + 1)]
            assert route.sep_totals_by_length(k, order) == want, (k, order)


def test_sep_totals_by_length_matches_rational_series_to_order_30():
    for k in range(1, 31):
        assert sep_totals_by_length(k, 30) == rational_series_totals(k, 30), k


def test_format_series_lines():
    text = format_series(distribution_series(2, 2, 3))
    assert text.splitlines() == [
        "0: 0",
        "1: 0",
        "2: 1*q^1",
        "3: 2*q^1 + 1*q^2",
    ]
