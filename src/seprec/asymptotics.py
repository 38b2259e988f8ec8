"""Floating-point asymptotics of the sep totals against exact Bell-number values.

The growth of the totals is governed by the saddle parameter r, the positive
root of r*e^r = n + 1, through the Bell-number shift approximation

    B_{n+h} ~ B_n * (n+h)! / (n! * r^h)    uniformly for small h.

Feeding that into the Bell-number closed form of the total gives the leading
estimate

    total ~ B_n * n^3 / (3 r^3) * (1 + r/n).

Everything exact is computed exactly first: the only float operations are the
root solve and the final division of two modest-sized numbers.  A Bell number
is never converted to float on its own; ratios like total/B_n (of size
~ n^3/r^3) are int true divisions, which CPython rounds correctly for ints
of any size, so they equal ``float(Fraction(p, q))`` to the last bit.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .counting import bell
from .formulas import total_sep_n

MAX_EXACT_N = 1000

_RESIDUAL_TOL = 1e-12
_MAX_NEWTON_STEPS = 200


def solve_r(n: int) -> float:
    """Positive root of r * e^r = n + 1, to relative residual 1e-12.

    Newton iteration seeded at ln(n+1) - ln(ln(n+1)) (0.5 for n = 1).
    r * e^r - (n+1) is increasing and convex for r > -1, so from a seed left
    of the root the first step lands right of it and the steps after descend
    to it.  It takes at most 5 steps for n = 1..200,000 and for n = 10^k,
    k = 4..300.

    >>> abs(solve_r(1) * math.exp(solve_r(1)) - 2.0) < 2e-12
    True
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    target = float(n + 1)
    r = 0.5 if n == 1 else math.log(target) - math.log(math.log(target))
    for _ in range(_MAX_NEWTON_STEPS):
        e = math.exp(r)
        f = r * e - target
        if abs(f) <= _RESIDUAL_TOL * target:
            return r
        r -= f / (e * (1.0 + r))
    raise RuntimeError(f"root solve for n={n} did not reach residual {_RESIDUAL_TOL}")


class AsymptoticReport(NamedTuple):
    """Exact-to-estimate comparison at one n, as a tuple of the six fields
    below.

    ``ratio`` divides the exact total/B_n by the full estimate
    n^3/(3 r^3) * (1 + r/n); ``bare_ratio`` divides by the bare leading term
    n^3/(3 r^3) without the correction factor, so the two together show
    whether the correction helps.  ``abs_err`` fields are |ratio - 1|.
    """

    n: int
    r: float
    ratio: float
    abs_err: float
    bare_ratio: float
    bare_abs_err: float


def _leading_term(n: int, r: float) -> float:
    """The bare leading term n^3/(3 r^3) of the estimate of total/B_n."""
    return n**3 / (3.0 * r**3)


def estimate_ratio(n: int) -> AsymptoticReport:
    """Measure the asymptotic estimate at ``n``: exact total/B_n (one correctly
    rounded int division) divided by the estimate.

    >>> estimate_ratio(4).n
    4
    """
    return _measured(n, _leading_term)


def _measured(n: int, leading: Callable[[int, float], float]) -> AsymptoticReport:
    """The report of ``estimate_ratio`` at ``n`` with the bare term
    ``leading(n, r)``."""
    if not 1 <= n <= MAX_EXACT_N:
        raise ValueError(f"need 1 <= n <= {MAX_EXACT_N} (exact-computation budget), got {n}")
    r = solve_r(n)
    exact = total_sep_n(n) / bell(n)
    bare = leading(n, r)
    estimate = bare * (1.0 + r / n)
    ratio = exact / estimate
    bare_ratio = exact / bare
    return AsymptoticReport(
        n=n,
        r=r,
        ratio=ratio,
        abs_err=abs(ratio - 1.0),
        bare_ratio=bare_ratio,
        bare_abs_err=abs(bare_ratio - 1.0),
    )


def bell_shift_error(n: int, h: int) -> float:
    """Relative error of the shift approximation
    B_{n+h} ~ B_n * (n+h)!/(n! * r^h), measured as |approx/exact - 1| with the
    exact ratio B_{n+h}/B_n taken by correctly rounded int division.

    >>> bell_shift_error(400, 1) < bell_shift_error(100, 1)
    True
    """
    if not 1 <= h <= 3:
        raise ValueError(f"need 1 <= h <= 3, got h={h}")
    if not 1 <= n <= MAX_EXACT_N:
        raise ValueError(f"need 1 <= n <= {MAX_EXACT_N} (exact-computation budget), got {n}")
    r = solve_r(n)
    approx = math.perm(n + h, h) / r**h
    exact = bell(n + h) / bell(n)
    return abs(approx / exact - 1.0)


# sweep([1000] * 100) takes 4.6-5.3 s of CPU: each estimate at n = 1000
# computes its Bell numbers afresh, about 0.06 s.
MAX_SWEEP_LEN = 100


def sweep(ns: list[int]) -> list[AsymptoticReport]:
    """Reports for each n in ``ns``, in the given order; at most
    ``MAX_SWEEP_LEN`` values of n."""
    return _swept(ns, estimate_ratio)


def _swept(ns: list[int], estimate: Callable[[int], AsymptoticReport]) -> list[AsymptoticReport]:
    """``estimate(n)`` for each n in ``ns``, in the budget of ``sweep``."""
    if len(ns) > MAX_SWEEP_LEN:
        raise ValueError(f"need at most {MAX_SWEEP_LEN} values of n (sweep budget), got {len(ns)}")
    return [estimate(n) for n in ns]


TABLE_HEADER = ("n", "r", "ratio", "abs_err")


def table_row(rep: AsymptoticReport) -> tuple[int, str, str, str]:
    """The fields of ``TABLE_HEADER`` of one report, each float at 12
    significant digits: one row of the ``seprec asym`` table."""
    return rep.n, f"{rep.r:.12g}", f"{rep.ratio:.12g}", f"{rep.abs_err:.12g}"


def sweep_csv(ns: list[int]) -> str:
    """CSV table ``n,r,ratio,abs_err`` of ``table_row`` rows.

    It stays as the table that ``seprec asym --format csv`` prints (a CLI
    test checks that the two agree), for demo 06, and for
    ``perfbench/layers.py``, which times it by name.
    """
    rows = [TABLE_HEADER, *map(table_row, sweep(ns))]
    return "".join(",".join(map(str, row)) + "\n" for row in rows)
