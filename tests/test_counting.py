from fractions import Fraction
from math import comb, factorial

import pytest

from seprec import counting
from seprec.counting import bell, bell_combination, bell_numbers, stirling2, stirling2_column


def stirling2_explicit(n: int, k: int) -> int:
    """Independent route: S(n,k) = (1/k!) sum_j (-1)^j C(k,j) (k-j)^n."""
    if k == 0:
        return 1 if n == 0 else 0
    total = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
    value = Fraction(total, factorial(k))
    assert value.denominator == 1
    return value.numerator


def bell_binomial_recurrence(nmax: int) -> list[int]:
    """Independent route: B_{n+1} = sum_k C(n,k) B_k."""
    out = [1]
    for n in range(nmax):
        out.append(sum(comb(n, k) * out[k] for k in range(n + 1)))
    return out


def bell_triangle(top: int) -> list[int]:
    """Independent route: B_0..B_top as the first entries of the Bell triangle rows."""
    out, row = [1], [1]
    for _ in range(top):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        out.append(nxt[0])
        row = nxt
    return out


def stirling_triangle(top: int) -> list[list[int]]:
    """Independent route: rows[n][k] = S(n, k) for 0 <= k <= n <= top, row by row."""
    rows = [[1]]
    for m in range(1, top + 1):
        prev = rows[-1]
        rows.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, m)] + [1])
    return rows


def test_stirling_values():
    assert stirling2(3, 3) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(2, 6) == 0


def test_stirling_rejects_negatives():
    # the column alone checks, so both entry points read its one message
    for fn, args, got in ((stirling2, (-1, 2), "n=-1, k=2"), (stirling2, (3, -1), "n=3, k=-1"),
                          (stirling2_column, (-1, 3), "n=3, k=-1")):
        with pytest.raises(ValueError) as info:
            fn(*args)
        assert str(info.value) == f"need n >= 0 and k >= 0 for S(n, k), got {got}"


def test_stirling_matches_explicit_formula():
    for n in range(26):
        for k in range(n + 1):
            assert stirling2(n, k) == stirling2_explicit(n, k)


@pytest.mark.parametrize("k", [300, 500, 700])
def test_stirling_mid_row_at_the_budget_matches_explicit_formula(k):
    # mid-row cells at the budget, where the column recurrence does the most work
    assert stirling2(1000, k) == stirling2_explicit(1000, k)


def test_stirling_boundary_rows():
    for n in range(1, 30):
        assert stirling2(n, 1) == 1
        assert stirling2(n, n) == 1


def test_bell_values():
    assert bell(0) == 1
    assert bell(3) == 5
    assert bell(5) == 52
    assert bell(12) == 4213597


def test_bell_rejects_negative():
    with pytest.raises(ValueError):
        bell(-1)


def test_tables_refuse_rows_past_their_budget():
    with pytest.raises(ValueError, match="budget"):
        stirling2(counting.MAX_STIRLING_N + 1, 1)
    with pytest.raises(ValueError, match="budget"):
        bell(counting.MAX_BELL_N + 1)


def _unit(h: int, length: int) -> tuple[int, ...]:
    return tuple(int(i == h) for i in range(length))


def test_bell_combination_of_unit_rows_equals_the_triangle():
    bells = bell_triangle(1003)
    # n = 0 included: there the j = 0 term is 0^0 = 1
    for n in range(61):
        for length in range(1, 5):
            for h in range(length):
                assert bell_combination(n, _unit(h, length)) == bells[n + h], (n, h, length)
    for n in (300, 1000):
        for h in range(4):
            assert bell_combination(n, _unit(h, 4)) == bells[n + h], (n, h)


def test_bell_combination_argument_guards():
    with pytest.raises(ValueError):
        bell_combination(-1, (1,))
    with pytest.raises(ValueError):
        bell_combination(3, ())
    with pytest.raises(ValueError, match="budget"):
        bell_combination(counting.MAX_BELL_N - 2, (0, 0, 0, 1))
    with pytest.raises(ValueError, match="budget"):
        bell_combination(counting.MAX_BELL_N + 1, (1,))


def test_bell_combination_refuses_a_wrong_derangement_number(monkeypatch):
    bells = bell_triangle(203)
    weights = counting._window_weights
    cases = [(n, j) for n in (5, 30) for j in range(n + 4)] + [(200, j) for j in (0, 1, 2, 101, 203)]
    for n, wrong in cases:
        # D_{top-wrong} one too large: the weight C(top, wrong) * D_{top-wrong}
        # grows by C(top, wrong)
        def mutated(top, wrong=wrong):
            for j, weight in weights(top):
                yield j, weight + comb(top, j) if j == wrong else weight

        monkeypatch.setattr(counting, "_window_weights", mutated)
        for h in range(4):
            if wrong == 0:
                # the j = 0 term is 0^m = 0 for m >= 1: the sum is still right
                assert bell_combination(n, _unit(h, 4)) == bells[n + h], (n, h)
            else:
                with pytest.raises(ArithmeticError, match="not divisible"):
                    bell_combination(n, _unit(h, 4))
    monkeypatch.undo()
    assert bell_combination(5, _unit(3, 4)) == bells[8]


def test_single_stirling_number_equals_the_table():
    rows = stirling_triangle(60)
    for n in range(61):
        for k in range(n + 2):
            assert stirling2(n, k) == (rows[n][k] if k <= n else 0), (n, k)


def test_single_stirling_number_keeps_the_table_budget():
    top = counting.MAX_STIRLING_N
    assert stirling2(top, 2) == 2 ** (top - 1) - 1
    assert stirling2(top, top - 1) == comb(top, 2)
    with pytest.raises(ValueError):
        stirling2(-1, 1)
    with pytest.raises(ValueError):
        stirling2(1, -1)
    with pytest.raises(ValueError, match="budget"):
        stirling2(top + 1, 1)


def test_stirling_column_equals_the_table():
    rows = stirling_triangle(80)
    for k in range(61):
        for top in range(81):
            want = [rows[m][k] if k <= m else 0 for m in range(top + 1)]
            assert stirling2_column(k, top) == want, (k, top)


def test_bell_numbers_equal_the_triangle():
    assert bell_numbers(300) == [sum(row) for row in stirling_triangle(300)]
    assert bell_numbers(0) == [1]


def test_runs_of_values_refuse_negatives_and_rows_past_their_budget():
    for bad in ((-1, 5), (2, -1)):
        with pytest.raises(ValueError):
            stirling2_column(*bad)
    with pytest.raises(ValueError):
        bell_numbers(-1)
    with pytest.raises(ValueError, match="budget"):
        stirling2_column(2, counting.MAX_STIRLING_N + 1)
    with pytest.raises(ValueError, match="budget"):
        bell_numbers(counting.MAX_BELL_N + 1)


def test_bell_equals_binomial_recurrence():
    want = bell_binomial_recurrence(40)
    for n in range(41):
        assert bell(n) == want[n]


def test_stirling_rows_sum_to_bell():
    for n in range(26):
        assert sum(stirling2(n, k) for k in range(n + 1)) == bell(n)


def test_bell_count_matches_enumeration():
    from seprec.setpart import iterate_all

    for n in range(1, 8):
        assert bell(n) == sum(1 for _ in iterate_all(n))
