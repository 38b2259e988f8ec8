"""Exact enumeration and record statistics for set partitions in canonical word form.

The package computes the "sum of elements preceding records" statistic (sep)
and its relatives on set partitions encoded as restricted growth strings, and
verifies every closed form it ships (per-block-count totals, Bell-number
totals, distribution series, partial fraction tables, exponential generating
series, and the Bell asymptotics of the totals) against independent
brute-force and residue oracles.
"""
from .asymptotics import AsymptoticReport, bell_shift_error, estimate_ratio, solve_r, sweep, sweep_csv
from .counting import bell, stirling2
from .formulas import (
    PfdCoefficients,
    bell_shift_identities_check,
    egf_coeffs,
    pfd_coeffs,
    pfd_oracle,
    pfd_target_value,
    pfd_value,
    rational_series_totals,
    total_sep_n,
    total_sep_nk,
)
from .oracle import brute_distribution_a, brute_total, brute_total_nk, brute_totals_by_k
from .series import QPoly, XSeries, distribution_series, format_series, sep_totals_by_length
from .setpart import (
    Word,
    complete_prefix,
    format_word,
    from_blocks,
    iterate_all,
    iterate_with_k,
    parse_word,
    split_by_prefix,
    to_blocks,
    validate,
)
from .stats import records, sep, sep_a, sep_by_positions, srec, swrec

__version__ = "0.1.0"

__all__ = [
    "AsymptoticReport",
    "PfdCoefficients",
    "QPoly",
    "Word",
    "XSeries",
    "bell",
    "bell_shift_error",
    "bell_shift_identities_check",
    "brute_distribution_a",
    "brute_total",
    "brute_total_nk",
    "brute_totals_by_k",
    "complete_prefix",
    "distribution_series",
    "egf_coeffs",
    "estimate_ratio",
    "format_series",
    "format_word",
    "from_blocks",
    "iterate_all",
    "iterate_with_k",
    "parse_word",
    "pfd_coeffs",
    "pfd_oracle",
    "pfd_target_value",
    "pfd_value",
    "rational_series_totals",
    "records",
    "sep",
    "sep_a",
    "sep_by_positions",
    "sep_totals_by_length",
    "solve_r",
    "split_by_prefix",
    "srec",
    "stirling2",
    "sweep",
    "sweep_csv",
    "swrec",
    "to_blocks",
    "total_sep_n",
    "total_sep_nk",
    "validate",
]
