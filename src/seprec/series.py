"""Exact truncated power series in x whose coefficients are integer polynomials in q.

The series here expand the bivariate counting functions for partitions of [n]
with k blocks: x marks the word length n and q marks the statistic value, so
the coefficient of x^n q^s is a count.  Everything is integer arithmetic on
dense coefficient lists, truncated at a fixed order in x.

Every series built here is a monomial x^k q^c times factors 1/(1 - x L(q)),
where L is either a constant letter count i or the letter polynomial
q + q^2 + ... + q^j.  A factor list is one list of pairs (j, letters),
``letters`` marking the polynomial, and both the expansion ``_expand`` and
the q-derivative loop ``_totals`` read it.  A factor has a single x^1
term, so dividing a series h = sum h_m x^m by (1 - x L) is the first-order
recurrence

    g_0 = h_0,    g_m = h_m + L * g_{m-1},

applied in place for m = 1..order.  Multiplying by L = i scales each
coefficient; multiplying by q + ... + q^j is a running window sum of width j
over the coefficient list.  Either step costs O(degree) per x power, so a
factor costs O(order * degree) and no series-by-series product is needed.
"""
from __future__ import annotations

from itertools import accumulate
from operator import add, sub
from typing import Callable, Iterable, NamedTuple


class QPoly:
    """Polynomial in q with integer coefficients, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return QPoly(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return QPoly(out)

    __rmul__ = __mul__

    def at_one(self) -> int:
        """Value at q = 1 (the plain count)."""
        return sum(self.coeffs)

    def deriv_at_one(self) -> int:
        """d/dq at q = 1: sum of s * c_s, the total statistic weight."""
        return sum(s * c for s, c in enumerate(self.coeffs))

    def to_dict(self) -> dict[int, int]:
        """Nonzero coefficients as {power: coefficient}."""
        return {s: c for s, c in enumerate(self.coeffs) if c}

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"


def format_qpoly(p: QPoly) -> str:
    """Deterministic text form: nonzero terms ``c*q^s`` ascending in s, or ``0``."""
    if not p:
        return "0"
    return " + ".join(f"{c}*q^{s}" for s, c in enumerate(p.coeffs) if c)


class XSeries(NamedTuple):
    """Power series in x truncated at ``order``: a tuple ``(order, coeffs)``
    whose ``coeffs`` holds one QPoly per x power 0..order."""

    order: int
    coeffs: tuple[QPoly, ...]

    def coefficient(self, n: int) -> QPoly:
        if not 0 <= n <= self.order:
            raise ValueError(f"x power {n} outside truncation order {self.order}")
        return self.coeffs[n]


def format_series(series: XSeries) -> str:
    """One line per x power: ``n: c*q^s + ...`` with deterministic ordering."""
    return "\n".join(f"{n}: {format_qpoly(c)}" for n, c in enumerate(series.coeffs))


def _expand(order: int, xpower: int, qpower: int, factors: Iterable[tuple[int, bool]]) -> XSeries:
    """x^xpower q^qpower / prod (1 - x*L) over the pairs (j, letters),
    truncated at x^order; every caller checks its budget.

    L is q + ... + q^j when ``letters`` holds, and the count j otherwise.
    Coefficient d of (q + ... + q^j) * p is p[d-j] + ... + p[d-1], a
    difference of prefix sums of p.
    """
    g = [[0] * qpower + [1]] + [[]] * (order - xpower)
    for j, letters in factors:
        for m in range(1, len(g)):
            p = g[m - 1]
            if letters:
                prefix = list(accumulate(p + [0] * (j - 1), initial=0))
                p = [0, *prefix[1:j], *map(sub, prefix[j:], prefix)]
            else:
                p = [j * c for c in p]
            # g_m = h_m + L*g_{m-1}: add the shorter list into the longer
            short, longer = sorted((g[m], p), key=len)
            g[m] = [*map(add, longer, short), *longer[len(short):]]
    return XSeries(order, tuple([QPoly()] * xpower + [QPoly(c) for c in g]))


# distribution_series at order 100 takes at most 0.8 s (k = a = 75), and
# word_sum_factor(100, 100) 0.15 s (2.3 s at alphabet and order 200).
MAX_ORDER = 100


def word_sum_factor(j: int, order: int) -> XSeries:
    """Series of all words over the alphabet [j], x marking length and q
    marking the sum of the letters: 1 / (1 - x*(q + q^2 + ... + q^j)).
    Alphabet and order keep the budget ``MAX_ORDER``.
    """
    if not 1 <= j <= MAX_ORDER or not 0 <= order <= MAX_ORDER:
        raise ValueError(f"need 1 <= j <= {MAX_ORDER} and 0 <= order <= {MAX_ORDER}, got j={j}, order={order}")
    return _expand(order, 0, 0, [(j, True)])


def word_count_factor(i: int, order: int) -> XSeries:
    """Series of all words over the alphabet [i] counted by length only:
    1 / (1 - i*x).  Alphabet and order keep the budget ``MAX_ORDER``.
    """
    if not 1 <= i <= MAX_ORDER or not 0 <= order <= MAX_ORDER:
        raise ValueError(f"need 1 <= i <= {MAX_ORDER} and 0 <= order <= {MAX_ORDER}, got i={i}, order={order}")
    return _expand(order, 0, 0, [(i, False)])


# The factor list of a distribution series for (k, a), as pairs (j, letters)
Factors = Callable[[int, int], list[tuple[int, bool]]]


def _factors(k: int, a: int) -> list[tuple[int, bool]]:
    """The factors 1/(1 - x*L) of the distribution series of (k, a), in the
    order they are applied, as pairs (j, letters): L is q + ... + q^j when
    ``letters`` holds, and the count j otherwise."""
    return [*((i, False) for i in range(a, k + 1)), *((j, True) for j in range(1, a))]


def distribution_series(k: int, a: int, order: int) -> XSeries:
    """Series whose x^n q^s coefficient counts the partitions of [n] with
    exactly ``k`` blocks whose sum of elements preceding record ``a`` is s.

    A canonical word with k blocks factors around the first occurrences of
    1..k.  Letters before the first ``a`` contribute to the statistic: the
    records 1..a-1 add the fixed offset a(a-1)/2 and each free segment over
    [j] (j < a) is weighted by its letter sum.  Letters from the first ``a``
    on only contribute length, one count factor per alphabet [i], i = a..k.
    """
    return _distribution(k, a, order, _factors)


def _distribution(k: int, a: int, order: int, factors: Factors) -> XSeries:
    """The series x^k q^(a(a-1)/2) / prod (1 - x*L) over the factor list
    ``factors(k, a)``, in the budget of ``distribution_series``."""
    if not 1 <= a <= k <= order <= MAX_ORDER:
        raise ValueError(f"need 1 <= a <= k <= order <= {MAX_ORDER}, got a={a}, k={k}, order={order}")
    return _expand(order, k, a * (a - 1) // 2, factors(k, a))


# sep_totals_by_length at order 30 takes 0.03 s for all k = 1..30 together.
MAX_TOTALS_ORDER = 30


def sep_totals_by_length(k: int, order: int) -> list[int]:
    """Totals of the sep statistic over partitions of [n] with exactly ``k``
    blocks, for n = 0..order, read off the q-derivative at q = 1 of the
    distribution series summed over all records a.

    Each distribution series is expanded at q = 1 + e modulo e^2: a
    coefficient p(q) is kept as the pair p(1), p'(1), the start q^c is
    (1, c), and a factor with L(1) = j and L'(1) = w takes (v, d) to
    (j*v, j*d + w*v); w is 0 for a count and j(j+1)/2 for q + ... + q^j.

    >>> sep_totals_by_length(2, 4)
    [0, 0, 1, 4, 11]
    """
    return _totals(k, order, _factors)


def _totals(k: int, order: int, factors: Factors) -> list[int]:
    """The q-derivatives at q = 1 of the series of ``_distribution`` over
    ``factors``, summed over a = 1..k, in the budget of
    ``sep_totals_by_length``."""
    if not 1 <= k <= order <= MAX_TOTALS_ORDER:
        raise ValueError(f"need 1 <= k <= order <= {MAX_TOTALS_ORDER}, got k={k}, order={order}")
    totals = [0] * (order + 1)
    for a in range(1, k + 1):
        values, derivs = [0] * (order + 1), [0] * (order + 1)
        values[k], derivs[k] = 1, a * (a - 1) // 2
        for j, letters in factors(k, a):
            w = j * (j + 1) // 2 if letters else 0
            for m in range(k + 1, order + 1):
                values[m], derivs[m] = (values[m] + j * values[m - 1],
                                        derivs[m] + j * derivs[m - 1] + w * values[m - 1])
        totals = [*map(add, totals, derivs)]
    return totals
