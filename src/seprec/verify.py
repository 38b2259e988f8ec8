"""Verification suites: every closed form against an independent route.

Each suite takes ``max_n`` and returns ``(ok, detail)``; the detail is one
line naming the range checked, or the first disagreement.
``SUITES`` maps the suite names to the suites in the order ``seprec verify``
runs them:

* ``counts``       stream lengths of ``iterate_all`` and ``iterate_with_k``
  equal B_n and S(n, k), for 1 <= k <= n <= max_n;
* ``roundtrip``    blocks -> word -> blocks is exact on every word;
* ``stats_dual``   ``sep`` equals ``sep_by_positions`` and the record values
  are 1..k on every word with k blocks;
* ``totals``       closed form, rational expansion, q-derivative series and
  enumeration agree on every cell 1 <= k <= n <= max_n;
* ``bell_total``   the Bell-number closed form equals enumeration, n <= max_n;
* ``distribution`` series coefficients equal the enumerated ``sep_a``
  distributions, 1 <= a <= k <= n;
* ``pfd``          partial fractions equal the residue oracle and reconstruct
  the target at 2k + 1 probe points, k <= 15;
* ``egf``          n! e_n equals the Bell-number total, 1 <= n <= 30, and the
  Bell shift identities hold;
* ``integrality``  the Bell combination of the totals is divisible by 12, n <= 200;
* ``rowsum``       the per-k totals sum to the Bell-number total, n <= 40.

Every suite refuses a ``max_n`` outside 1..``oracle.MAX_TOTAL_N`` before
any work.  The six word suites, ``counts`` to ``distribution``, walk the
words of each n up to max_n or their own cap: ``MAX_WORD_CHECK_N`` for
``roundtrip`` and ``stats_dual``, ``oracle.MAX_DIST_N`` for
``distribution``.  The four fixed-range suites otherwise ignore
``max_n``.  ``totals`` and ``bell_total`` read the oracle's census, which
runs once per n in a process, so the second of them walks no word again;
``distribution`` reads one joint walk of the words of [n] per n.  ``pfd``
evaluates its probes in integers.  Every CLI start imports this module,
so heavy modules are imported in the suite that runs them.  Dependencies
are called through their modules, so patching a module attribute reaches
the suites.
"""
from __future__ import annotations

from math import factorial

from . import counting, oracle, setpart, stats

MAX_WORD_CHECK_N = 9


def _check_max_n(max_n: int) -> None:
    if not 1 <= max_n <= oracle.MAX_TOTAL_N:
        raise ValueError(f"need 1 <= max_n <= {oracle.MAX_TOTAL_N}, got {max_n}")


def counts(max_n: int) -> tuple[bool, str]:
    _check_max_n(max_n)
    cells = 0
    for n in range(1, max_n + 1):
        if sum(1 for _ in setpart.iterate_all(n)) != counting.bell(n):
            return False, f"iterate_all({n}) count != B_{n}"
        for k in range(1, n + 1):
            if sum(1 for _ in setpart.iterate_with_k(n, k)) != counting.stirling2(n, k):
                return False, f"iterate_with_k({n},{k}) count != S({n},{k})"
            cells += 1
    return True, f"stream counts match Bell and Stirling numbers on {cells} cells (n <= {max_n})"


def roundtrip(max_n: int) -> tuple[bool, str]:
    _check_max_n(max_n)
    top = min(max_n, MAX_WORD_CHECK_N)
    total = 0
    for n in range(1, top + 1):
        for w in setpart.iterate_all(n):
            if setpart.from_blocks(setpart.to_blocks(w)) != w:
                return False, f"block round trip failed for {setpart.format_word(w)}"
            total += 1
    return True, f"block round trip exact on {total} words (n <= {top})"


def stats_dual(max_n: int) -> tuple[bool, str]:
    _check_max_n(max_n)
    top = min(max_n, MAX_WORD_CHECK_N)
    total = 0
    # the words come by block count k, which the record values must count
    # out, so a records that drops or adds a record cannot pass
    for n in range(1, top + 1):
        for k in range(1, n + 1):
            blocks = list(range(1, k + 1))
            for w in setpart.iterate_with_k(n, k):
                if stats.sep(w) != stats.sep_by_positions(w):
                    return False, f"sep dual formulas differ on {setpart.format_word(w)}"
                if [v for v, _ in stats.records(w)] != blocks:
                    return False, f"record values are not 1..k on {setpart.format_word(w)}"
                total += 1
    return True, f"sep dual formula and record structure hold on {total} words (n <= {top})"


def totals(max_n: int) -> tuple[bool, str]:
    from . import formulas, series
    _check_max_n(max_n)
    # each series route gives the totals of every n <= max_n for its k at once
    rationals = {k: formulas.rational_series_totals(k, max_n) for k in range(1, max_n + 1)}
    qderivs = {k: series.sep_totals_by_length(k, max_n) for k in range(1, max_n + 1)}
    cells = 0
    for n in range(1, max_n + 1):
        brute = oracle.brute_totals_by_k(n)
        for k in range(1, n + 1):
            want = brute[k]
            closed = formulas.total_sep_nk(n, k)
            rational = rationals[k][n]
            qderiv = qderivs[k][n]
            if not closed == rational == qderiv == want:
                return False, (
                    f"totals disagree at n={n} k={k}: brute={want} closed={closed} "
                    f"rational={rational} series={qderiv}"
                )
            cells += 1
    return True, f"four total routes agree on {cells} cells (n <= {max_n})"


def bell_total(max_n: int) -> tuple[bool, str]:
    from . import formulas
    _check_max_n(max_n)
    for n in range(1, max_n + 1):
        if formulas.total_sep_n(n) != oracle.brute_total(n):
            return False, f"Bell-number total differs from enumeration at n={n}"
    return True, f"Bell-number closed form matches enumeration (n <= {max_n})"


def distribution(max_n: int) -> tuple[bool, str]:
    from . import series
    _check_max_n(max_n)
    top = min(max_n, oracle.MAX_DIST_N)
    cells = 0
    for n in range(1, top + 1):
        for (k, a), brute in oracle.brute_distributions(n).items():
            expanded = series.distribution_series(k, a, n).coefficient(n).to_dict()
            if expanded != brute:
                return False, f"distribution mismatch at n={n} k={k} a={a}"
            cells += 1
    return True, f"series coefficients match enumerated distributions on {cells} cells (n <= {top})"


def pfd(max_n: int) -> tuple[bool, str]:
    from fractions import Fraction

    from . import formulas
    _check_max_n(max_n)
    for k in range(1, 16):
        closed = formulas.pfd_coeffs(k)
        oracle_table = formulas.pfd_oracle(k)
        if closed != oracle_table:
            return False, f"partial fraction closed form differs from residue oracle at k={k}"
        for t in range(2 * k + 1):
            y = Fraction(2 * k + 3 + 2 * t, 2)
            if formulas.pfd_value(closed, y) != formulas.pfd_target_value(k, y):
                return False, f"partial fraction reconstruction fails at k={k}, y={y}"
    return True, "partial fractions match the residue oracle and reconstruct exactly (k <= 15)"


def egf(max_n: int) -> tuple[bool, str]:
    from . import formulas
    _check_max_n(max_n)
    coeffs = formulas.egf_coeffs(30)
    for n in range(1, 31):
        if coeffs[n] * factorial(n) != formulas.total_sep_n(n):
            return False, f"exponential series coefficient wrong at n={n}"
    shifts = formulas.bell_shift_identities_check(30)
    bad = sorted(name for name, ok in shifts.items() if not ok)
    if bad:
        return False, f"Bell shift identities fail: {', '.join(bad)}"
    return True, "exponential series and Bell shift identities exact (n <= 30)"


def integrality(max_n: int) -> tuple[bool, str]:
    from . import formulas
    _check_max_n(max_n)
    b = counting.bell_numbers(203)
    for n in range(1, 201):
        value = sum(c * b[n + h] for h, c in enumerate(formulas.bell_total_row(n)))
        if value % 12 != 0:
            return False, f"integrality combination not divisible by 12 at n={n}"
    return True, "Bell combination divisible by 12 (n <= 200)"


def rowsum(max_n: int) -> tuple[bool, str]:
    from . import formulas
    _check_max_n(max_n)
    for n in range(1, 41):
        by_k = sum(formulas.total_sep_nk(n, k) for k in range(1, n + 1))
        if by_k != formulas.total_sep_n(n):
            return False, f"row sum differs from Bell-number total at n={n}"
    return True, "per-k totals sum to the Bell-number total (n <= 40)"


SUITES = {
    "counts": counts,
    "roundtrip": roundtrip,
    "stats_dual": stats_dual,
    "totals": totals,
    "bell_total": bell_total,
    "distribution": distribution,
    "pfd": pfd,
    "egf": egf,
    "integrality": integrality,
    "rowsum": rowsum,
}
