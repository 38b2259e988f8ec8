"""The refuted formula variants of ``seprec.variants``: each one's
refutation, as data checked against the oracle it fails, and the validated
modules free of any switch to them."""
import inspect
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from seprec import asymptotics, formulas, series, variants
from seprec.oracle import brute_distribution_a

# (variant's value, oracle's value, what the variant gives, what the oracle gives)
REFUTATIONS = {
    # simple-pole coefficients at k = 1
    "pfd": (lambda: variants.pfd_coeffs(1).b, lambda: formulas.pfd_oracle(1).b,
            (Fraction(1, 6),), (Fraction(0),)),
    # x^4 coefficient of (k, a) = (3, 2): q^2 + 4q against q^2 + 5q
    "series": (lambda: variants.distribution_series(3, 2, 4).coefficient(4).to_dict(),
               lambda: brute_distribution_a(4, 3, 2), {1: 4, 2: 1}, {1: 5, 2: 1}),
    # exact total/B_400 over the estimate, to two places
    "asym": (lambda: round(variants.estimate_ratio(400).ratio, 2),
             lambda: round(asymptotics.estimate_ratio(400).ratio, 2), 0.30, 0.91),
}


@pytest.mark.parametrize("name", sorted(REFUTATIONS))
def test_variant_fails_its_oracle(name):
    variant, oracle, variant_value, oracle_value = REFUTATIONS[name]
    assert variant() == variant_value
    assert oracle() == oracle_value


def test_pfd_variant_fails_the_residue_oracle_for_every_small_k():
    for k in range(1, 7):
        assert variants.pfd_coeffs(k) != formulas.pfd_oracle(k), k


def test_pfd_variant_is_the_table_with_plus_k_cubed_over_12():
    # the textbook reading written out in full, against the difference form
    for k in range(1, 31):
        k_terms = k**3 + 2 * k * (k + 1) * (k - 1)
        b_row = []
        for m in range(1, k + 1):
            denom = (-1) ** (k - m) * factorial(m - 1) * factorial(k - m)
            b_numer = k_terms - 3 * k * k * (m + 1) + k * (6 * m * m + 21 * m + 10) - 18 * m * m - 12 * m
            b_row.append(Fraction(b_numer, 12 * denom))
        table = variants.pfd_coeffs(k)
        assert table.b == tuple(b_row), k
        assert table.a == formulas.pfd_coeffs(k).a, k


def test_series_variant_at_a_1_is_the_bare_monomial():
    bare = variants.distribution_series(3, 1, 5)
    assert [c.to_dict() for c in bare.coeffs] == [{}, {}, {}, {0: 1}, {}, {}]


def test_estimate_variant_tends_to_a_third():
    reports = [variants.estimate_ratio(n) for n in (100, 400, 1000)]
    gaps = [1 / 3 - rep.ratio for rep in reports]
    assert all(gap > 0 for gap in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.02
    for rep in reports:
        assert rep.abs_err > 0.5
        assert rep.ratio == pytest.approx(asymptotics.estimate_ratio(rep.n).ratio / 3, rel=1e-12)


@pytest.mark.parametrize("module", [formulas, series, asymptotics], ids=lambda m: m.__name__)
def test_validated_modules_have_no_literal_switch(module):
    for name, fn in inspect.getmembers(module, inspect.isfunction):
        if not name.startswith("_") and fn.__module__ == module.__name__:
            assert "literal" not in inspect.signature(fn).parameters, name
    assert "literal" not in Path(module.__file__).read_text()


def test_the_package_exports_no_variant():
    import seprec
    assert "variants" not in seprec._EXPORTS
