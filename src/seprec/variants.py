"""Three refuted readings of the closed forms, kept so that ``--literal``
can show their disagreement with the oracles.  Each is written as its one
difference from the validated route, which does the rest: the partial
fraction table with +k^3/12, the distribution series with its count factors
nested inside the weighted product, and the asymptotic estimate without the
1/3.  The tests show that each fails its oracle; the package exports none.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import asymptotics, series
# bound at import, so that formulas.pfd_coeffs swapped for this table
# still leaves it the validated one
from .formulas import PfdCoefficients, pfd_coeffs as _validated_pfd_coeffs


def pfd_coeffs(k: int) -> PfdCoefficients:
    """The partial fraction table with the cubic term +k^3/12: the
    validated b_{k,m} plus k^3/(6 D), D = (-1)^(k-m) (m-1)! (k-m)!.

    >>> pfd_coeffs(1).b
    (Fraction(1, 6),)
    """
    table = _validated_pfd_coeffs(k)
    b_row = tuple(bm + Fraction(k**3, 6 * (-1) ** (k - m) * factorial(m - 1) * factorial(k - m))
                  for m, bm in enumerate(table.b, start=1))
    return table._replace(b=b_row)


def _nested_factors(k: int, a: int) -> list[tuple[int, bool]]:
    """Each letter factor j = 1..a-1 followed by k - a + 1 count factors over
    the alphabet [a]; none at all for a = 1."""
    return [f for j in range(1, a) for f in [(j, True), *[(a, False)] * (k - a + 1)]]


def distribution_series(k: int, a: int, order: int) -> series.XSeries:
    """``series.distribution_series`` over the nested factor list."""
    return series._distribution(k, a, order, _nested_factors)


def sep_totals_by_length(k: int, order: int) -> list[int]:
    """``series.sep_totals_by_length`` over the nested factor list."""
    return series._totals(k, order, _nested_factors)


def estimate_ratio(n: int) -> asymptotics.AsymptoticReport:
    """``asymptotics.estimate_ratio`` with the bare term n^3/(3 r^3) times 3."""
    return asymptotics._measured(n, lambda n, r: asymptotics._leading_term(n, r) * 3.0)


def sweep(ns: list[int]) -> list[asymptotics.AsymptoticReport]:
    """``asymptotics.sweep`` of this module's estimate."""
    return asymptotics._swept(ns, estimate_ratio)
