import random
import time
from fractions import Fraction
from math import factorial

import pytest

from seprec import asymptotics, formulas, series, setpart, variants, verify
from seprec.counting import MAX_STIRLING_N, bell, bell_numbers
from seprec.formulas import (
    MAX_BELL_TOTAL_N,
    MAX_EGF_ORDER,
    MAX_PFD_K,
    MAX_PFD_ORACLE_K,
    PfdCoefficients,
    bell_egf,
    bell_shift_identities_check,
    egf_coeffs,
    pfd_coeffs,
    pfd_oracle,
    pfd_target_value,
    pfd_value,
    rational_series_totals,
    total_sep_n,
    total_sep_nk,
)
from seprec.oracle import MAX_TOTAL_N, brute_total, brute_total_nk
from seprec.series import sep_totals_by_length


def test_total_nk_spot_values():
    assert total_sep_nk(3, 2) == 4
    assert total_sep_nk(4, 2) == 11
    assert total_sep_nk(4, 3) == 29
    assert total_sep_nk(4, 4) == 10
    for n in range(1, 10):
        assert total_sep_nk(n, 1) == 0
        # single word 12...n: only the record offsets contribute
        assert total_sep_nk(n, n) == n * (n + 1) * (n - 1) // 6


def test_total_nk_argument_guard():
    with pytest.raises(ValueError):
        total_sep_nk(3, 4)
    with pytest.raises(ValueError):
        total_sep_nk(3, 0)


def test_total_n_spot_values():
    assert total_sep_n(1) == 0
    assert total_sep_n(2) == 1
    assert total_sep_n(3) == 8
    assert total_sep_n(4) == 50
    # direct rational evaluation at n = 4
    assert (
        Fraction(877, 3)
        - Fraction(203, 4)
        - Fraction(37, 12) * 52
        - Fraction(25, 12) * 15
        == 50
    )


def test_total_n_argument_guard():
    with pytest.raises(ValueError):
        total_sep_n(0)


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _bell_residues(top: int, p: int) -> list[int]:
    """B_0..B_top mod p: a Bell triangle mod p up to B_p, then Touchard's
    congruence B_{m+p} = B_m + B_{m+1} (mod p)."""
    out, row = [1], [1]
    while len(out) <= min(top, p):
        new = [row[-1]]
        for x in row:
            new.append((new[-1] + x) % p)
        out.append(new[0])
        row = new
    for m in range(len(out), top + 1):
        out.append((out[m - p] + out[m - p + 1]) % p)
    return out


def test_total_n_at_its_budget_matches_bell_residues():
    n = MAX_BELL_TOTAL_N
    total = total_sep_n(n)
    assert total > 0
    for p in _primes(5, 100):
        b = _bell_residues(n + 3, p)
        want = 4 * b[n + 3] - 3 * b[n + 2] - (6 * n + 13) * b[n + 1] - (6 * n + 1) * b[n]
        assert 12 * total % p == want % p, p


def test_total_n_equals_the_fraction_combination_of_bell_numbers():
    bells = bell_numbers(303)
    for n in range(1, 301):
        b0, b1, b2, b3 = bells[n:n + 4]
        want = (Fraction(b3, 3) - Fraction(b2, 4)
                - (Fraction(n, 2) + Fraction(13, 12)) * b1 - (Fraction(n, 2) + Fraction(1, 12)) * b0)
        assert want == total_sep_n(n), n


def test_total_n_refuses_a_combination_not_divisible_by_12(monkeypatch):
    combination = formulas.bell_combination
    monkeypatch.setattr(formulas, "bell_combination", lambda n, coeffs: combination(n, coeffs) + 1)
    with pytest.raises(ArithmeticError, match="not an integer"):
        total_sep_n(10)
    monkeypatch.undo()
    assert total_sep_n(4) == 50


def test_total_nk_matches_enumeration():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert total_sep_nk(n, k) == brute_total_nk(n, k)


def test_total_n_matches_enumeration():
    for n in range(1, 9):
        assert total_sep_n(n) == brute_total(n)


def test_rational_series_totals_examples():
    assert rational_series_totals(1, 6) == [0] * 7
    assert rational_series_totals(2, 4)[3] == 4
    assert rational_series_totals(2, 4)[4] == 11
    with pytest.raises(ValueError):
        rational_series_totals(5, 4)


@pytest.mark.parametrize("call", [
    lambda: rational_series_totals(2, MAX_STIRLING_N + 1),
    lambda: bell_shift_identities_check(MAX_EGF_ORDER + 1),
    lambda: pfd_target_value(MAX_PFD_K + 1, Fraction(1, 2)),
    lambda: series.word_sum_factor(series.MAX_ORDER + 1, 1),
    lambda: series.word_sum_factor(1, series.MAX_ORDER + 1),
    lambda: series.word_count_factor(series.MAX_ORDER + 1, 1),
    lambda: series.word_count_factor(1, series.MAX_ORDER + 1),
    lambda: setpart.split_by_prefix(1000, setpart._MAX_SPLIT_DEPTH + 1),
    lambda: verify.counts(MAX_TOTAL_N + 1),
    lambda: verify.totals(MAX_TOTAL_N + 1),
    lambda: verify.bell_total(MAX_TOTAL_N + 1),
    lambda: verify.counts(0),
    lambda: verify.roundtrip(MAX_TOTAL_N + 1),
    lambda: verify.roundtrip(0),
    lambda: verify.stats_dual(MAX_TOTAL_N + 1),
    lambda: verify.stats_dual(0),
    lambda: verify.distribution(MAX_TOTAL_N + 1),
    lambda: verify.distribution(0),
    lambda: asymptotics.sweep([asymptotics.MAX_EXACT_N] * (asymptotics.MAX_SWEEP_LEN + 1)),
], ids=["rational_series_totals", "bell_shift_identities_check", "pfd_target_value",
        "word_sum_factor_alphabet", "word_sum_factor_order", "word_count_factor_alphabet",
        "word_count_factor_order", "split_by_prefix", "verify_counts", "verify_totals",
        "verify_bell_total", "verify_counts_zero", "verify_roundtrip", "verify_roundtrip_zero",
        "verify_stats_dual", "verify_stats_dual_zero", "verify_distribution",
        "verify_distribution_zero", "sweep_length"])
def test_one_past_a_library_budget_raises_at_once(call):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        call()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("k", [1, 2, 7, 50, 100])
def test_rational_series_totals_to_order_100(k):
    got = rational_series_totals(k, 100)
    assert got[:k] == [0] * k
    assert all(got[n] == total_sep_nk(n, k) for n in range(k, 101))


@pytest.mark.parametrize("k", [2, 300, 500, MAX_STIRLING_N - 1])
def test_total_nk_matches_rational_series_at_its_budget(k):
    n = MAX_STIRLING_N
    assert total_sep_nk(n, k) == rational_series_totals(k, n)[n]


def test_three_formula_routes_agree():
    for n in range(1, 10):
        for k in range(1, n + 1):
            closed = total_sep_nk(n, k)
            assert rational_series_totals(k, n)[n] == closed
            assert sep_totals_by_length(k, n)[n] == closed


def test_row_sums_match_bell_total():
    for n in range(1, 41):
        assert sum(total_sep_nk(n, k) for k in range(1, n + 1)) == total_sep_n(n)


def test_pfd_small_tables():
    two = pfd_coeffs(2)
    assert two.a == (Fraction(-1), Fraction(0))
    assert two.b == (Fraction(-2), Fraction(2))
    one = pfd_coeffs(1)
    assert one.a == (Fraction(0),)
    assert one.b == (Fraction(0),)


def test_pfd_row_accessor():
    table = pfd_coeffs(3)
    assert table.row(1) == (table.a[0], table.b[0])
    with pytest.raises(ValueError):
        table.row(4)


def test_pfd_double_pole_coefficient_vanishes_at_m_equals_k():
    for k in range(1, 16):
        assert pfd_coeffs(k).a[k - 1] == 0


def test_pfd_closed_form_matches_residue_oracle():
    for k in range(1, 16):
        assert pfd_coeffs(k) == pfd_oracle(k)


@pytest.mark.parametrize("k", [400, MAX_PFD_ORACLE_K])
def test_pfd_closed_form_matches_residue_oracle_at_its_budget(k):
    assert pfd_coeffs(k) == pfd_oracle(k)


def test_pfd_closed_form_matches_sympy_apart():
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    for k in range(1, 7):
        f = sum(sympy.Rational(a * (a - 1), 2) for a in range(1, k + 1))
        f += sum(sympy.Rational((k - i) * i * (i + 1), 2) / (y - i) for i in range(1, k + 1))
        for i in range(1, k + 1):
            f /= y - i
        for probe in (Fraction(-3), Fraction(1, 2), Fraction(2 * k + 1, 2)):
            assert f.subs(y, sympy.Rational(probe.numerator, probe.denominator)) == pfd_target_value(k, probe)
        a, b = [Fraction(0)] * k, [Fraction(0)] * k
        for term in sympy.Add.make_args(sympy.apart(f, y)):
            if term == 0:  # F_1 vanishes
                continue
            coeff, power = term.as_independent(y)
            base, exp = power.as_base_exp()
            m = int(y - base)
            (a if exp == -2 else b)[m - 1] = Fraction(int(coeff.p), int(coeff.q))
        assert PfdCoefficients(k=k, a=tuple(a), b=tuple(b)) == pfd_coeffs(k)


def test_pfd_reconstruction_at_probes():
    for k in range(1, 16):
        table = pfd_coeffs(k)
        for t in range(2 * k + 1):
            y = Fraction(2 * k + 3 + 2 * t, 2)
            assert pfd_value(table, y) == pfd_target_value(k, y)


def test_pfd_reconstruction_at_negative_and_fractional_probes():
    table = pfd_coeffs(4)
    for y in (Fraction(-3), Fraction(-1, 2), Fraction(9, 2), Fraction(100)):
        assert pfd_value(table, y) == pfd_target_value(4, y)


def test_pfd_target_rejects_poles():
    with pytest.raises(ValueError):
        pfd_target_value(3, Fraction(2))


def _target_by_fractions(k, y):
    """F_k(y) summed term by term in Fractions, the form the integer
    evaluation replaced."""
    s = Fraction(k * (k + 1) * (k - 1), 6)
    p = Fraction(1)
    for i in range(1, k + 1):
        s += Fraction((k - i) * i * (i + 1), 2) / (y - i)
        p /= y - i
    return s * p


def _decomposition_by_fractions(table, y):
    return sum((a / (y - m) ** 2 + b / (y - m)
                for m, (a, b) in enumerate(zip(table.a, table.b), start=1)), Fraction(0))


def test_pfd_probes_equal_fraction_sums_at_random_points():
    rng = random.Random(25)
    for k in range(1, 16):
        tables = (pfd_coeffs(k), variants.pfd_coeffs(k))
        # y = j/d, j in -7k..21k, d in 1-7: negative, between poles and past them
        probes = [Fraction(rng.randint(-7 * k, 21 * k), rng.randint(1, 7)) for _ in range(30)]
        probes += [Fraction(2 * m + 1, 2) for m in range(1, k)]  # midway between poles
        for y in probes:
            if y.denominator == 1 and 1 <= y <= k:
                continue
            want = _target_by_fractions(k, y)
            assert pfd_target_value(k, y) == want, (k, y)
            for table in tables:
                assert pfd_value(table, y) == _decomposition_by_fractions(table, y), (k, y)
            assert pfd_value(tables[0], y) == want, (k, y)


def test_pfd_probes_raise_at_every_pole():
    for k in range(1, 8):
        table = pfd_coeffs(k)
        for m in range(1, k + 1):
            for y in (m, Fraction(m), Fraction(2 * m, 2)):
                with pytest.raises(ValueError, match="is a pole"):
                    pfd_target_value(k, y)
                with pytest.raises(ZeroDivisionError):
                    pfd_value(table, y)


def test_bell_egf_coefficients():
    got = bell_egf(5)
    assert got == [Fraction(bell(n), factorial(n)) for n in range(6)]


def test_egf_constant_term_vanishes():
    assert egf_coeffs(0)[0] == 0


def test_egf_reproduces_totals():
    coeffs = egf_coeffs(30)
    assert coeffs[3] * 6 == 8
    assert coeffs[4] * 24 == 50
    for n in range(1, 31):
        value = coeffs[n] * factorial(n)
        assert value.denominator == 1
        assert value.numerator == total_sep_n(n)


def test_egf_at_its_budget_matches_the_bell_combination():
    order = MAX_EGF_ORDER
    b = bell_numbers(order + 3)
    for n, c in enumerate(egf_coeffs(order)):
        want = 4 * b[n + 3] - 3 * b[n + 2] - (6 * n + 13) * b[n + 1] - (6 * n + 1) * b[n]
        assert 12 * factorial(n) * c == want


def test_bell_shift_identities_hold():
    assert all(bell_shift_identities_check(30).values())


def test_bell_shift_identities_fail_on_one_wrong_bell_number(monkeypatch):
    monkeypatch.setattr(formulas, "bell_numbers",
                        lambda top: [b + (n == 10) for n, b in enumerate(bell_numbers(top))])
    assert bell_shift_identities_check(30) == dict.fromkeys(
        ["exp_x", "exp_2x", "exp_3x", "x_exp_x", "x_exp_2x"], False)


def test_bell_shift_spot_values():
    b = [bell(j) for j in range(3)]
    # n! [x^n] of e^(2x) E at n = 2 is B_4 - B_3
    assert formulas._times_bell_egf([2**m for m in range(3)], b)[2] == bell(4) - bell(3) == 10
    # n! [x^n] of x e^x E at n = 1 is 1 * B_1
    assert formulas._times_bell_egf(list(range(2)), b)[1] == 1 * bell(1) == 1
    # n! [x^n] of e^(3x) E at n = 1 is B_4 - 3 B_3 + 2 B_2
    assert formulas._times_bell_egf([3**m for m in range(2)], b)[1] == bell(4) - 3 * bell(3) + 2 * bell(2) == 4


def test_integrality_of_bell_combination():
    for n in range(1, 201):
        value = (
            4 * bell(n + 3)
            - 3 * bell(n + 2)
            - (6 * n + 13) * bell(n + 1)
            - (6 * n + 1) * bell(n)
        )
        assert value % 12 == 0


def test_pfd_coefficients_is_frozen():
    table = pfd_coeffs(2)
    assert isinstance(table, PfdCoefficients)
    with pytest.raises(AttributeError):
        table.k = 5
