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

A widely quoted variant of the estimate omits the 1/3; it is available as
``literal=True`` and demonstrably does not converge (the measured ratio tends
to 1/3, see the README section on formula variants).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .counting import bell
from .formulas import total_sep_n

MAX_EXACT_N = 1000

_RESIDUAL_TOL = 1e-12
_MAX_NEWTON_STEPS = 200


def solve_r(n: int) -> float:
    """Positive root of r * e^r = n + 1, to relative residual 1e-12.

    Newton iteration seeded at ln(n+1) - ln(ln(n+1)) (0.5 for n = 1), with a
    bisection fallback on the bracket [1e-9, ln(n+2)] that guarantees
    convergence regardless of seed quality.

    >>> abs(solve_r(1) * math.exp(solve_r(1)) - 2.0) < 2e-12
    True
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    target = float(n + 1)
    lo, hi = 1e-9, math.log(n + 2)
    r = 0.5 if n == 1 else math.log(target) - math.log(math.log(target))
    for _ in range(_MAX_NEWTON_STEPS):
        e = math.exp(r)
        f = r * e - target
        if abs(f) <= _RESIDUAL_TOL * target:
            return r
        if f > 0:
            hi = min(hi, r)
        else:
            lo = max(lo, r)
        step = f / (e * (1.0 + r))
        r -= step
        if not lo < r < hi:
            r = 0.5 * (lo + hi)
    raise RuntimeError(f"root solve for n={n} did not reach residual {_RESIDUAL_TOL}")


@dataclass(frozen=True)
class AsymptoticReport:
    """Exact-to-estimate comparison at one n.

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


def estimate_ratio(n: int, literal: bool = False) -> AsymptoticReport:
    """Measure the asymptotic estimate at ``n``: exact total/B_n (one correctly
    rounded int division) divided by the estimate.

    ``literal=True`` drops the 1/3 from the estimate (the non-validated
    variant); the default is the form consistent with the Bell-number closed
    form, whose ratio tends to 1.

    >>> estimate_ratio(4).n
    4
    """
    if not 1 <= n <= MAX_EXACT_N:
        raise ValueError(f"need 1 <= n <= {MAX_EXACT_N} (exact-computation budget), got {n}")
    r = solve_r(n)
    exact = total_sep_n(n) / bell(n)
    bare = n**3 / (3.0 * r**3)
    if literal:
        bare *= 3.0
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
    rising = 1
    for i in range(1, h + 1):
        rising *= n + i
    approx = rising / r**h
    exact = bell(n + h) / bell(n)
    return abs(approx / exact - 1.0)


def sweep(ns: list[int], literal: bool = False) -> list[AsymptoticReport]:
    """Reports for each n in ``ns``, in the given order."""
    return [estimate_ratio(n, literal=literal) for n in ns]


def sweep_csv(ns: list[int], literal: bool = False) -> str:
    """CSV table ``n,r,ratio,abs_err`` with 12 significant digits per float.

    It stays as the table that ``seprec asym --format csv`` prints (a CLI
    test checks that the two agree), for demo 06, and for
    ``perfbench/layers.py``, which times it by name.
    """
    lines = ["n,r,ratio,abs_err"]
    for rep in sweep(ns, literal=literal):
        lines.append(f"{rep.n},{rep.r:.12g},{rep.ratio:.12g},{rep.abs_err:.12g}")
    return "\n".join(lines) + "\n"
