"""Closed forms for the sep statistic totals, their rational and exponential
generating-series expansions, and exact partial fraction tables.

Four independent routes compute the total of sep over partitions of [n] with
k blocks and must agree exactly:

* brute-force enumeration (:mod:`seprec.oracle`),
* the q-derivative of the distribution series (:mod:`seprec.series`),
* the closed form :func:`total_sep_nk` in Stirling numbers,
* the rational-series expansion :func:`rational_series_totals`.

The Bell-number form :func:`total_sep_n` covers all partitions of [n] at
once; :func:`egf_coeffs` reproduces it through the exponential generating
series.  The partial fraction table has both a closed form
(:func:`pfd_coeffs`) and an exact residue oracle (:func:`pfd_oracle`).

Nothing here touches floating point.  Tables, series and the probe
evaluations (:func:`pfd_target_value`, :func:`pfd_value`) are computed in
integers, with one ``fractions.Fraction`` per rational coefficient or probe
value, built at the end.  ``fractions`` is imported in the functions that
build one, so a command that makes no Fraction does not load it.
"""
from __future__ import annotations

from math import factorial, lcm
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple

from .counting import MAX_BELL_N, MAX_STIRLING_N, bell_combination, bell_numbers, stirling2_column

if TYPE_CHECKING:
    from fractions import Fraction


def _record_offset_total(k: int) -> int:
    """Sum over a = 1..k of a(a-1)/2, the statistic offset contributed by the
    record letters themselves (equals C(k+1, 3))."""
    return k * (k + 1) * (k - 1) // 6


def _sep_weights(k: int) -> list[int]:
    """The weight (k-i)i(i+1)/2 of each letter i = 0..k in the per-k totals
    and their partial fractions, indexed by i (zero at i = 0 and i = k)."""
    return [(k - i) * i * (i + 1) // 2 for i in range(k + 1)]


def total_sep_nk(n: int, k: int) -> int:
    """Total of sep over all partitions of [n] with exactly ``k`` blocks:

        S(n,k) * sum_{a=1..k} a(a-1)/2
        + sum_{i=1..k-1} (k-i)i(i+1)/2 * sum_{j=1..n-k} S(n-j,k) i^(j-1)

    Both inner sums are empty when they have no terms (k = 1 or n = k).  The
    Stirling numbers come from one column, S(0..n, k), and the sum over j is
    taken by Horner's rule.

    >>> total_sep_nk(3, 2)
    4
    >>> total_sep_nk(4, 3)
    29
    >>> total_sep_nk(7, 1)
    0
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    column = stirling2_column(k, n)
    weights = _sep_weights(k)
    total = column[n] * _record_offset_total(k)
    for i in range(1, k):
        geom = 0
        for s in column[k:n]:  # S(n-j, k) for j = n-k down to 1
            geom = geom * i + s
        total += weights[i] * geom
    return total


# total_sep_n(3000) takes about 0.4 s: one power sum over j <= n + 3 in which
# only the 430 primes j pay a full j^n and a big product
# (counting.bell_combination).  total_sep_n reads B_n..B_{n+3}, so the budget
# is the Bell budget less 3.
MAX_BELL_TOTAL_N = MAX_BELL_N - 3


def bell_total_row(n: int) -> tuple[int, ...]:
    """The coefficients c_0..c_3 of twelve times the Bell-number total,
    12 * total_sep_n(n) = sum_h c_h B_{n+h}.

    >>> bell_total_row(1)
    (-7, -19, -3, 4)
    """
    return -(6 * n + 1), -(6 * n + 13), -3, 4


def total_sep_n(n: int) -> int:
    """Total of sep over all set partitions of [n], in Bell numbers:

        (1/3) B_{n+3} - (1/4) B_{n+2} - (n/2 + 13/12) B_{n+1} - (n/2 + 1/12) B_n

    Twelve times it, 4 B_{n+3} - 3 B_{n+2} - (6n+13) B_{n+1} - (6n+1) B_n,
    comes from one power sum and is asserted divisible by 12.

    >>> [total_sep_n(n) for n in range(1, 5)]
    [0, 1, 8, 50]
    """
    if not 1 <= n <= MAX_BELL_TOTAL_N:
        raise ValueError(f"need 1 <= n <= {MAX_BELL_TOTAL_N}, got {n}")
    total, rest = divmod(bell_combination(n, bell_total_row(n)), 12)
    if rest:
        raise ArithmeticError(f"Bell-number total for n={n} is not an integer: {total} + {rest}/12")
    return total


def _over_one_minus(a: list[int], i: int) -> list[int]:
    """Divide a power series by 1 - i*x in place, as a_m += i*a_{m-1}."""
    for m in range(1, len(a)):
        a[m] += i * a[m - 1]
    return a


def rational_series_totals(k: int, order: int) -> list[int]:
    """Totals of sep over partitions of [n] with exactly ``k`` blocks for
    n = 0..order, by expanding the rational form

        x^k / ((1-x)...(1-kx)) * sum_{a=1..k} a(a-1)/2
        + x^(k+1) / ((1-x)...(1-kx)) * sum_{i=1..k-1} (k-i)i(i+1) / (2(1-ix))

    as a power series in x, one first-order recurrence per factor
    1/(1 - ix).  This route reads no Stirling numbers and no q-polynomials, so
    it is independent of both :func:`total_sep_nk` and
    :func:`seprec.series.sep_totals_by_length`.  ``order`` keeps the budget of
    :func:`total_sep_nk`, which this route checks: ``MAX_STIRLING_N``.

    >>> rational_series_totals(2, 4)
    [0, 0, 1, 4, 11]
    """
    if not 1 <= k <= order <= MAX_STIRLING_N:
        raise ValueError(f"need 1 <= k <= order <= {MAX_STIRLING_N}, got k={k}, order={order}")
    # base[m] is the coefficient of x^(k+m) in x^k / ((1-x)...(1-kx))
    base = [1] + [0] * (order - k)
    for i in range(1, k + 1):
        _over_one_minus(base, i)
    out = [0] * k + [_record_offset_total(k) * b for b in base]
    weights = _sep_weights(k)
    for i in range(1, k):
        for m, g in enumerate(_over_one_minus(base[:-1], i), start=k + 1):
            out[m] += weights[i] * g
    return out


class PfdCoefficients(NamedTuple):
    """Exact partial fraction table for a fixed block count ``k``, as a tuple
    ``(k, a, b)``: the double-pole coefficients ``a[m-1]`` and simple-pole
    coefficients ``b[m-1]`` at y = m, for m = 1..k."""

    k: int
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def row(self, m: int) -> tuple[Fraction, Fraction]:
        if not 1 <= m <= self.k:
            raise ValueError(f"need 1 <= m <= {self.k}, got {m}")
        return self.a[m - 1], self.b[m - 1]


# pfd_coeffs(1600) takes 0.3 s, and pfd_target_value(1600, y) about 0.01 s
# for a y with a one-digit denominator.
MAX_PFD_K = 1600


def pfd_target_value(k: int, y: Fraction) -> Fraction:
    """The rational function whose partial fractions are tabulated:

        F_k(y) = (sum_{a=1..k} a(a-1)/2 + sum_{i=1..k} (k-i)i(i+1)/(2(y-i)))
                 * prod_{i=1..k} 1/(y-i)

    ``y`` must avoid the poles 1..k, and ``k`` keeps the budget of the
    tables it checks, ``MAX_PFD_K``.

    >>> from fractions import Fraction
    >>> pfd_target_value(2, Fraction(3))
    Fraction(3, 4)
    """
    from fractions import Fraction
    if not 1 <= k <= MAX_PFD_K:
        raise ValueError(f"need 1 <= k <= {MAX_PFD_K}, got {k}")
    y = Fraction(y)
    if y.denominator == 1 and 1 <= y.numerator <= k:
        raise ValueError(f"y = {y} is a pole")
    # with y = u/v, y - i = d_i/v; the bracket is num/den with den = prod d_i
    u, v = y.numerator, y.denominator
    num, den = _record_offset_total(k), 1
    weights = _sep_weights(k)
    for i in range(1, k + 1):
        d = u - i * v
        num = num * d + weights[i] * v * den
        den *= d
    return Fraction(num * v**k, den * den)


def pfd_value(coeffs: PfdCoefficients, y: Fraction) -> Fraction:
    """Evaluate the decomposition sum_m (a_m/(y-m)^2 + b_m/(y-m)) exactly.

    With y = u/v and L the lcm of the coefficients' denominators, the sum is
    num/(den L) with den = prod (u - mv)^2, all in integers; a pole makes den
    zero and raises ZeroDivisionError.
    """
    from fractions import Fraction
    y = Fraction(y)
    u, v = y.numerator, y.denominator
    scale = lcm(*(c.denominator for c in coeffs.a + coeffs.b))
    num, den = 0, 1
    for m in range(1, coeffs.k + 1):
        am, bm = coeffs.row(m)
        d = u - m * v
        term = (am.numerator * (scale // am.denominator) * v * v
                + bm.numerator * (scale // bm.denominator) * v * d)
        num = num * d * d + term * den
        den *= d * d
    return Fraction(num, den * scale)


def pfd_coeffs(k: int) -> PfdCoefficients:
    """Closed-form partial fraction coefficients for block count ``k``:

        a_{k,m} = (k-m) m (m+1) / (2 D)
        b_{k,m} = (-k^3 - 3k^2(m+1) + k(6m^2+21m+10) - 18m^2 - 12m
                   + 12 sum_{i=1..k} i(i-1)/2) / (12 D)

    with D = (-1)^(k-m) (m-1)! (k-m)!, one Fraction per coefficient.

    >>> pfd_coeffs(2).a
    (Fraction(-1, 1), Fraction(0, 1))
    >>> pfd_coeffs(2).b
    (Fraction(-2, 1), Fraction(2, 1))
    """
    from fractions import Fraction
    if not 1 <= k <= MAX_PFD_K:
        raise ValueError(f"need 1 <= k <= {MAX_PFD_K}, got {k}")
    k_terms = -(k**3) + 12 * _record_offset_total(k)
    a_row, b_row = [], []
    for m in range(1, k + 1):
        denom = (-1) ** (k - m) * factorial(m - 1) * factorial(k - m)
        a_row.append(Fraction((k - m) * m * (m + 1), 2 * denom))
        b_numer = k_terms - 3 * k * k * (m + 1) + k * (6 * m * m + 21 * m + 10) - 18 * m * m - 12 * m
        b_row.append(Fraction(b_numer, 12 * denom))
    return PfdCoefficients(k, tuple(a_row), tuple(b_row))


# pfd_oracle(800) takes about 0.8 s: k^2 residue terms, each a multiple of
# lcm(1..k-1) ~ e^k, so the cost grows about 5x per doubling of k
# (pfd_oracle(1600) takes 3.9 s).
MAX_PFD_ORACLE_K = 800


def pfd_oracle(k: int) -> PfdCoefficients:
    """Partial fraction coefficients by exact residue computation, independent
    of the closed form.

    Writing (y-m)^2 F_k(y) = A(y)/B(y) with the pole at m cancelled
    symbolically, A and B are regular at y = m and

        a_{k,m} = A(m)/B(m),
        b_{k,m} = A'(m)/B(m) - A(m) B'(m)/B(m)^2.

    Here A(y) = (y-m) * (numerator sum of F_k) stays polynomial-free of the
    pole because the i = m summand contributes the constant (k-m)m(m+1)/2,
    and B(y) = prod_{i != m} (y-i).

    Both residue sums are taken in integers scaled by L = lcm(1..k-1), as
    L/(m-i) is exact: b_{k,m} = (L A'(m) - A(m) L B'(m)/B(m)) / (L B(m)).

    >>> pfd_oracle(2) == pfd_coeffs(2)
    True
    """
    from fractions import Fraction
    if not 1 <= k <= MAX_PFD_ORACLE_K:
        raise ValueError(f"need 1 <= k <= {MAX_PFD_ORACLE_K}, got {k}")
    scale = lcm(*range(1, k))  # lcm() of nothing is 1
    weights = _sep_weights(k)
    a_row, b_row = [], []
    for m in range(1, k + 1):
        a_at_m = weights[m]
        a_deriv = scale * _record_offset_total(k)  # L A'(m)
        b_at_m = 1
        b_log_deriv = 0  # L B'(m)/B(m)
        for i in range(1, k + 1):
            if i == m:
                continue
            share = scale // (m - i)
            a_deriv += weights[i] * share
            b_at_m *= m - i
            b_log_deriv += share
        a_row.append(Fraction(a_at_m, b_at_m))
        b_row.append(Fraction(a_deriv - a_at_m * b_log_deriv, scale * b_at_m))
    return PfdCoefficients(k, tuple(a_row), tuple(b_row))


def _times_bell_egf(weights: list[int], bells: list[int]) -> list[int]:
    """n! [x^n] E(x) W(x) for n < len(weights), where E = e^(e^x - 1) is the
    Bell-number exponential series with B_j = bells[j], and
    W = sum_m weights[m] x^m / m!: the binomial convolution
    sum_j C(n, j) B_j weights[n-j] of a labelled product, with each row
    C(n, 0..n) added up from the one before."""
    totals, row = [], [1]  # row: C(n, 0..n)
    for n in range(len(weights)):
        totals.append(sum(map(mul, map(mul, row, bells), weights[n::-1])))
        row = [1, *map(add, row, row[1:]), 1]
    return totals


def bell_egf(order: int) -> list[Fraction]:
    """Coefficients of the Bell-number exponential generating series
    e^(e^x - 1): B_n / n! for n = 0..order."""
    from fractions import Fraction
    return [Fraction(b, factorial(n)) for n, b in enumerate(bell_numbers(order))]


# egf_coeffs(400) takes 0.05 s: about order^2/2 products of a binomial,
# a Bell number and a weight, all integers, and as many additions of
# binomials.
MAX_EGF_ORDER = 400


def egf_coeffs(order: int) -> list[Fraction]:
    """Coefficients e_n of the exponential generating series of the sep totals:

        e^(e^x - 1) * ((1/3)e^(3x) - (1/2)x e^(2x) + (3/4)e^(2x)
                       - x e^x - e^x - 1/12)

    so that n! * e_n = total_sep_n(n) for every n (and e_0 = 0: the constant
    terms cancel, 1/3 + 3/4 - 1 - 1/12 = 0).  Twelve times the second factor
    has the integer weights m! [x^m] = 4*3^m - 3m*2^m + 9*2^m - 12m - 12 - [m=0],
    so n! * e_n is their convolution with the Bell numbers, divided by 12.

    >>> [c * factorial(n) for n, c in enumerate(egf_coeffs(4))]
    [Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), Fraction(8, 1), Fraction(50, 1)]
    """
    from fractions import Fraction
    if not 0 <= order <= MAX_EGF_ORDER:
        raise ValueError(f"need 0 <= order <= {MAX_EGF_ORDER}, got {order}")
    weights = [4 * 3**m - 3 * m * 2**m + 9 * 2**m - 12 * m - 12 for m in range(order + 1)]
    weights[0] -= 1
    totals = _times_bell_egf(weights, bell_numbers(order))
    return [Fraction(c, 12 * factorial(n)) for n, c in enumerate(totals)]


def bell_shift_identities_check(order: int) -> dict[str, bool]:
    """Exact coefficient checks, for n = 0..order, of the shift rule for
    E = e^(e^x - 1) = sum B_n x^n / n!:

        e^(hx) E   -> sum_j s(h, j) B_{n+j}
        x e^(hx) E -> n sum_j s(h, j) B_{n-1+j}

    (each right-hand side divided by n!), where s(h, j) are the signed
    Stirling numbers of the first kind, s(h, j) = s(h-1, j-1) - (h-1) s(h-1, j).
    The rule gives ``exp_x``, ``exp_2x`` and ``exp_3x`` for h = 1..3, and the
    x-variants ``x_exp_x`` and ``x_exp_2x`` for h = 1, 2.  Both sides are
    compared as the integers n! [x^n]: m! [x^m] of e^(hx) is h^m, and of
    x e^(hx) it is m h^(m-1).  Returns {identity name: bool}.  Its binomial
    convolutions are the work of :func:`egf_coeffs`, so ``order`` keeps that
    budget, ``MAX_EGF_ORDER``.
    """
    if not 1 <= order <= MAX_EGF_ORDER:
        raise ValueError(f"need 1 <= order <= {MAX_EGF_ORDER}, got {order}")
    top = 3  # largest h; the x-variants stop at top - 1
    ns = range(order + 1)
    b = bell_numbers(order + top)
    plain, with_x = {}, {}
    s = [1]  # s(h, 0..h), from s(0, 0) = 1
    for h in range(1, top + 1):
        s = [left - (h - 1) * right for left, right in zip([0] + s, s + [0])]
        row = [sum(c * b[n + j] for j, c in enumerate(s)) for n in ns]
        name = "exp_x" if h == 1 else f"exp_{h}x"
        plain[name] = _times_bell_egf([h**m for m in ns], b) == row
        if h < top:
            with_x["x_" + name] = (_times_bell_egf([m * h**m // h for m in ns], b)
                                   == [n * row[n - 1] if n else 0 for n in ns])
    return {**plain, **with_x}
