import math
from fractions import Fraction

import mpmath
import pytest

from seprec import asymptotics
from seprec.asymptotics import (
    MAX_EXACT_N,
    AsymptoticReport,
    bell_shift_error,
    estimate_ratio,
    solve_r,
    sweep,
    sweep_csv,
)
from seprec.counting import bell
from seprec.formulas import total_sep_n


def test_solve_r_residuals(monkeypatch):
    # Newton from the seed converges within 10 of the 200 loop passes (at
    # most 5 steps measured) far past MAX_EXACT_N, up to n = 10^300
    monkeypatch.setattr(asymptotics, "_MAX_NEWTON_STEPS", 10)
    for n in [*range(1, 5001), *(10**k for k in range(4, 301))]:
        r = solve_r(n)
        assert r > 0
        assert abs(r * math.exp(r) - (n + 1)) <= 1e-12 * (n + 1)


def test_solve_r_matches_lambert_w():
    for n in (1, 5, 42, 300, 1000):
        want = float(mpmath.lambertw(n + 1))
        assert solve_r(n) == pytest.approx(want, rel=1e-12)


def test_solve_r_monotone():
    assert solve_r(200) > solve_r(100) > solve_r(10) > solve_r(1)


def test_solve_r_argument_guard():
    with pytest.raises(ValueError):
        solve_r(0)


def test_estimate_ratio_exact_part():
    rep = estimate_ratio(4)
    assert isinstance(rep, AsymptoticReport)
    exact = float(Fraction(total_sep_n(4), bell(4)))
    assert Fraction(total_sep_n(4), bell(4)) == Fraction(50, 15)
    assert rep.ratio * (4**3 / (3 * rep.r**3)) * (1 + rep.r / 4) == pytest.approx(exact, rel=1e-12)
    assert rep.bare_ratio * (4**3 / (3 * rep.r**3)) == pytest.approx(exact, rel=1e-12)


def test_estimate_ratio_positive():
    for n in (2, 10, 50):
        assert estimate_ratio(n).ratio > 0


def test_estimate_ratio_budget_guard():
    with pytest.raises(ValueError):
        estimate_ratio(MAX_EXACT_N + 1)
    with pytest.raises(ValueError):
        estimate_ratio(0)


def test_convergence_sweep():
    errs = [estimate_ratio(n).abs_err for n in (50, 100, 200, 400)]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] <= 0.15


def test_correction_factor_report():
    # the bare leading term is currently the closer one; the report carries
    # both so the comparison stays visible
    rep = estimate_ratio(400)
    assert rep.bare_abs_err < rep.abs_err


def test_bell_shift_error_decreases():
    assert bell_shift_error(400, 1) < bell_shift_error(100, 1)
    assert bell_shift_error(400, 2) < bell_shift_error(100, 2)


def test_bell_shift_error_basics():
    for n, h in ((10, 1), (100, 2), (200, 3)):
        err = bell_shift_error(n, h)
        assert err >= 0
        assert math.isfinite(err)
    with pytest.raises(ValueError):
        bell_shift_error(10, 4)
    with pytest.raises(ValueError):
        bell_shift_error(MAX_EXACT_N + 1, 1)


def test_sweep_preserves_order():
    ns = [100, 50]
    assert [rep.n for rep in sweep(ns)] == ns


def test_sweep_csv_format():
    text = sweep_csv([50, 100])
    lines = text.splitlines()
    assert lines[0] == "n,r,ratio,abs_err"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "50"
    assert float(first[1]) == pytest.approx(solve_r(50), rel=1e-12)
    # 12 significant digits, deterministic across runs
    assert text == sweep_csv([50, 100])
