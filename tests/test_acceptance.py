"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 01-08 run the ``seprec verify`` suites at the top of their
ranges and add a few spot values and witnesses.  The ``totals_12`` fixture
behind 01 and 04 runs the oracle's census over the words of [n], n <= 12, in
about a second.  Criterion 02 reads the same census, which the oracle walks
once per n in a process, so it walks no word again.
"""
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from seprec import verify
from seprec.asymptotics import estimate_ratio, solve_r
from seprec.formulas import egf_coeffs, pfd_coeffs, total_sep_n, total_sep_nk


def _report(num: int, result: tuple[bool, str], failures=()) -> None:
    ok, detail = result
    ok = ok and not failures
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail} {list(failures)[:5]}"


@pytest.fixture(scope="module")
def totals_12():
    """Closed form == rational expansion == q-derivative series ==
    enumeration on all 78 cells 1 <= k <= n <= 12."""
    return verify.totals(12)


def test_criterion_01_per_block_totals_match_enumeration(totals_12):
    spots = [(n, k, want) for n, k, want in ((3, 2, 4), (4, 2, 11), (4, 3, 29), (4, 4, 10))
             if total_sep_nk(n, k) != want]
    _report(1, totals_12, spots)


def test_criterion_02_bell_number_totals_match_enumeration():
    spots = [(n, want) for n, want in ((2, 1), (3, 8), (4, 50)) if total_sep_n(n) != want]
    _report(2, verify.bell_total(12), spots)


def test_criterion_03_distribution_series_match_enumeration():
    _report(3, verify.distribution(12))


def test_criterion_04_three_total_routes_agree(totals_12):
    _report(4, totals_12)


def test_criterion_05_partial_fractions():
    witness = pfd_coeffs(2)
    ok = witness.b == (Fraction(-2), Fraction(2)) and witness.a == (Fraction(-1), Fraction(0))
    _report(5, verify.pfd(12), [] if ok else [("witness", witness)])


def test_criterion_06_exponential_series():
    constant = egf_coeffs(30)[0]  # the suite checks n >= 1
    _report(6, verify.egf(12), [("coeff", 0, constant)] if constant else [])


def test_criterion_07_integrality():
    _report(7, verify.integrality(12))


def test_criterion_08_row_sums():
    _report(8, verify.rowsum(12))


def test_criterion_09_asymptotics():
    failures = []
    errs = [estimate_ratio(n).abs_err for n in (50, 100, 200, 400)]
    if not all(a > b for a, b in zip(errs, errs[1:])):
        failures.append(("not decreasing", errs))
    if errs[-1] > 0.15:
        failures.append(("final error", errs[-1]))
    for n in (1, 10, 100, 1000):
        r = solve_r(n)
        if abs(r * math.exp(r) - (n + 1)) > 1e-12 * (n + 1):
            failures.append(("residual", n))
    _report(9, (True, "estimate error strictly decreasing on {50,100,200,400}, <= 0.15 at 400; "
                      "root residuals <= 1e-12"), failures)


def test_criterion_10_verify_is_deterministic():
    failures = []
    cmd = [sys.executable, "-m", "seprec.cli", "verify", "--max-n", "10"]
    first = subprocess.run(cmd, capture_output=True, timeout=600)
    second = subprocess.run(cmd, capture_output=True, timeout=600)
    if first.returncode != 0:
        failures.append(("exit", first.returncode, first.stdout[-300:]))
    if second.returncode != 0:
        failures.append(("exit", second.returncode))
    if first.stdout != second.stdout:
        failures.append(("stdout differs",))
    if not first.stdout.startswith(b"PASS"):
        failures.append(("unexpected output", first.stdout[:80]))
    _report(10, (True, "two runs of `verify --max-n 10` exit 0 with byte-identical reports"), failures)
