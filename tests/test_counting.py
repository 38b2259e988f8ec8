import sys
import threading
from fractions import Fraction
from math import comb, factorial

import pytest

from seprec import counting
from seprec.counting import bell, bell_combination, binomial, stirling2, stirling2_single


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


def test_binomial_values():
    assert binomial(5, 0) == 1
    assert binomial(4, 2) == 6
    assert binomial(6, 3) == 20
    assert binomial(3, 7) == 0


def test_binomial_rejects_negatives():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


def test_stirling_values():
    assert stirling2(3, 3) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(2, 6) == 0


def test_stirling_rejects_negatives():
    with pytest.raises(ValueError):
        stirling2(-1, 1)
    with pytest.raises(ValueError):
        stirling2(1, -1)


def test_stirling_matches_explicit_formula():
    for n in range(26):
        for k in range(n + 1):
            assert stirling2(n, k) == stirling2_explicit(n, k)


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
    # n = 0 included: there the j = 0 term is 0^0 = 1
    for n in range(61):
        for length in range(1, 5):
            for h in range(length):
                assert bell_combination(n, _unit(h, length)) == bell(n + h), (n, h, length)
    for n in (300, 1000):
        for h in range(4):
            assert bell_combination(n, _unit(h, 4)) == bell(n + h), (n, h)


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
                assert bell_combination(n, _unit(h, 4)) == bell(n + h), (n, h)
            else:
                with pytest.raises(ArithmeticError, match="not divisible"):
                    bell_combination(n, _unit(h, 4))
    monkeypatch.undo()
    assert bell_combination(5, _unit(3, 4)) == bell(8)


def test_single_stirling_number_equals_the_table():
    for n in range(61):
        for k in range(n + 2):
            assert stirling2_single(n, k) == stirling2(n, k), (n, k)


def test_single_stirling_number_keeps_the_table_budget():
    with pytest.raises(ValueError):
        stirling2_single(-1, 1)
    with pytest.raises(ValueError):
        stirling2_single(1, -1)
    with pytest.raises(ValueError, match="budget"):
        stirling2_single(counting.MAX_STIRLING_N + 1, 1)


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


def test_tables_grown_by_several_threads_at_once(monkeypatch):
    want = (stirling2(300, 7), bell(300))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(counting, "_stirling", [[1]])
            monkeypatch.setattr(counting, "_bell", [1])
            monkeypatch.setattr(counting, "_bell_row", [1])
            results, errors = [], []

            def grow():
                try:
                    results.append((stirling2(300, 7), bell(300)))
                except Exception as exc:  # reported by the assert below
                    errors.append(exc)

            threads = [threading.Thread(target=grow) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == [] and results == [want] * 4
            assert [len(row) for row in counting._stirling] == list(range(1, 302))
            assert len(counting._bell) == 301
    finally:
        sys.setswitchinterval(interval)
