"""Exact enumeration and record statistics for set partitions in canonical word form.

The package computes the "sum of elements preceding records" statistic (sep)
and its relatives on set partitions encoded as restricted growth strings, and
verifies every closed form it ships (per-block-count totals, Bell-number
totals, distribution series, partial fraction tables, exponential generating
series, and the Bell asymptotics of the totals) against independent
brute-force and residue oracles.

Each export is imported from its home module on first access (PEP 562), so
``import seprec`` and a CLI command load only the modules they use.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "asymptotics": ("AsymptoticReport", "bell_shift_error", "estimate_ratio", "solve_r", "sweep", "sweep_csv"),
    "counting": ("bell", "stirling2"),
    "formulas": ("PfdCoefficients", "bell_shift_identities_check", "egf_coeffs", "pfd_coeffs", "pfd_oracle",
                 "pfd_target_value", "pfd_value", "rational_series_totals", "total_sep_n", "total_sep_nk"),
    "oracle": ("brute_distribution_a", "brute_total", "brute_total_nk", "brute_totals_by_k"),
    "series": ("QPoly", "XSeries", "distribution_series", "format_series", "sep_totals_by_length"),
    "setpart": ("Word", "complete_prefix", "format_word", "from_blocks", "iterate_all", "iterate_with_k",
                "parse_word", "split_by_prefix", "to_blocks", "validate"),
    "stats": ("records", "sep", "sep_a", "sep_by_positions", "srec", "swrec"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
