"""Command line interface.

Subcommands: enumerate, stat, total, verify, pfd, series, asym.  Every
command supports ``--format plain|json|csv`` where it makes sense; identical
inputs produce byte-identical output (no timestamps, stable ordering).

Exit codes: 0 success, 1 verification failure, 2 usage error.  The worker
count for verification sweeps comes from the SEPREC_WORKERS environment
variable (default 1).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from math import factorial

from . import asymptotics, counting, formulas, oracle, series, setpart, stats

LITERAL_WARNING = (
    "warning: --literal uses the non-validated textbook variant of the formula; "
    "its output fails the brute-force checks and is shown for comparison only"
)


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _dump_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _envelope(command: str, params: dict, result) -> dict:
    return {"command": command, "params": params, "result": result}


def _int_text(value: int) -> str:
    """Decimal text of an int the command computed, past CPython's limit on
    int-to-str digits (Python 3.11+).  Parsing argv keeps the default limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _workers() -> int:
    value = os.environ.get("SEPREC_WORKERS", "1")
    try:
        workers = int(value)
    except ValueError:
        raise ValueError(f"SEPREC_WORKERS must be an integer, got {value!r}") from None
    if workers < 1:
        raise ValueError(f"SEPREC_WORKERS must be >= 1, got {workers}")
    return workers


# ---------------------------------------------------------------- enumerate

def _cmd_enumerate(args) -> int:
    n, k = args.n, args.k
    words = setpart.iterate_all(n) if k is None else setpart.iterate_with_k(n, k)
    if args.format == "plain":
        for w in words:
            print(setpart.format_word(w))
        return 0
    formatted = [setpart.format_word(w) for w in words]
    if args.format == "json":
        params = {"n": n, "k": k}
        result = {"count": len(formatted), "words": formatted}
        sys.stdout.write(_dump_json(_envelope("enumerate", params, result)))
    else:
        sys.stdout.write(_dump_csv(["word"], [[w] for w in formatted]))
    return 0


# --------------------------------------------------------------------- stat

_PLAIN_STATS = {
    "sep": stats.sep,
    "srec": stats.srec,
    "swrec": stats.swrec,
}


def _cmd_stat(args) -> int:
    word = setpart.parse_word(args.word)
    names = [s.strip() for s in args.stats.split(",") if s.strip()]
    if not names:
        raise ValueError("no statistics requested")
    results: list[tuple[str, object]] = []
    for name in names:
        if name in _PLAIN_STATS:
            results.append((name, _PLAIN_STATS[name](word)))
        elif name == "records":
            results.append((name, [[v, p] for v, p in stats.records(word)]))
        elif name == "sep_a":
            if args.a is None:
                raise ValueError("sep_a requires --a")
            results.append((f"sep_a({args.a})", stats.sep_a(word, args.a)))
        else:
            raise ValueError(f"unknown statistic {name!r} (use sep, sep_a, srec, swrec, records)")
    if args.format == "plain":
        for name, value in results:
            if name == "records":
                text = ",".join(f"{v}:{p}" for v, p in value)
                print(f"records {text}")
            else:
                print(f"{name} {value}")
    elif args.format == "json":
        params = {"word": args.word, "stats": args.stats, "a": args.a}
        sys.stdout.write(_dump_json(_envelope("stat", params, dict(results))))
    else:
        rows = [[name, json.dumps(value) if isinstance(value, list) else value]
                for name, value in results]
        sys.stdout.write(_dump_csv(["stat", "value"], rows))
    return 0


# -------------------------------------------------------------------- total

def _total_value(n: int, k, method: str) -> int:
    if k is None:
        if method == "formula":
            return formulas.total_sep_n(n)
        if method == "brute":
            return oracle.brute_total(n)
        if method == "series":
            return sum(series.sep_totals_by_length(k2, n)[n] for k2 in range(1, n + 1))
        if method == "egf":
            total = formulas.egf_coeffs(n)[n] * factorial(n)
            if total.denominator != 1:
                raise ArithmeticError(f"exponential-series total for n={n} is not an integer: {total}")
            return total.numerator
        if method == "literal":
            return sum(
                series.sep_totals_by_length(k2, n, literal=True)[n] for k2 in range(1, n + 1)
            )
    else:
        if method == "formula":
            return formulas.total_sep_nk(n, k)
        if method == "brute":
            return oracle.brute_total_nk(n, k)
        if method == "series":
            return series.sep_totals_by_length(k, n)[n]
        if method == "egf":
            raise ValueError("method 'egf' computes the all-partitions total; drop --k")
        if method == "literal":
            return series.sep_totals_by_length(k, n, literal=True)[n]
    raise ValueError(f"unknown method {method!r}")


def _cmd_total(args) -> int:
    if args.method == "literal":
        print(LITERAL_WARNING, file=sys.stderr)
    value = _total_value(args.n, args.k, args.method)
    text = _int_text(value)
    if args.format == "plain":
        print(text)
    elif args.format == "json":
        params = {"n": args.n, "k": args.k, "method": args.method}
        sys.stdout.write(_dump_json(_envelope("total", params, text)))
    else:
        sys.stdout.write(_dump_csv(["n", "k", "method", "total"],
                                   [[args.n, "" if args.k is None else args.k,
                                     args.method, text]]))
    return 0


# ---------------------------------------------------------------------- pfd

def _pfd_table(k: int, use_oracle: bool, literal: bool) -> formulas.PfdCoefficients:
    if use_oracle:
        return formulas.pfd_oracle(k)
    return formulas.pfd_coeffs(k, literal=literal)


def _cmd_pfd(args) -> int:
    if args.literal:
        if args.oracle:
            raise ValueError("--literal applies to the closed form, not the oracle")
        print(LITERAL_WARNING, file=sys.stderr)
    table = _pfd_table(args.k, args.oracle, args.literal)
    rows = []
    for m in range(1, args.k + 1):
        am, bm = table.row(m)
        rows.append((m, am, bm))
    if args.format == "plain":
        for m, am, bm in rows:
            print(f"{args.k} {m} {am} {bm}")
    elif args.format == "json":
        params = {"k": args.k, "oracle": args.oracle, "literal": args.literal}
        result = [
            {"m": m, "a": [am.numerator, am.denominator], "b": [bm.numerator, bm.denominator]}
            for m, am, bm in rows
        ]
        sys.stdout.write(_dump_json(_envelope("pfd", params, result)))
    else:
        sys.stdout.write(_dump_csv(
            ["k", "m", "a_num", "a_den", "b_num", "b_den"],
            [[args.k, m, am.numerator, am.denominator, bm.numerator, bm.denominator]
             for m, am, bm in rows],
        ))
    return 0


# ------------------------------------------------------------------- series

def _cmd_series(args) -> int:
    if args.literal:
        print(LITERAL_WARNING, file=sys.stderr)
    xs = series.distribution_series(args.k, args.a, args.order, literal=args.literal)
    if args.format == "plain":
        print(series.format_series(xs))
    elif args.format == "json":
        params = {"k": args.k, "a": args.a, "order": args.order, "literal": args.literal}
        result = [[n, sorted(c.to_dict().items())] for n, c in enumerate(xs.coeffs)]
        sys.stdout.write(_dump_json(_envelope("series", params, result)))
    else:
        rows = []
        for n, c in enumerate(xs.coeffs):
            for s, count in sorted(c.to_dict().items()):
                rows.append([n, s, count])
        sys.stdout.write(_dump_csv(["n", "s", "count"], rows))
    return 0


# --------------------------------------------------------------------- asym

def _cmd_asym(args) -> int:
    if args.literal:
        print(LITERAL_WARNING, file=sys.stderr)
    ns = [int(part) for part in args.n_list.split(",") if part.strip()]
    if not ns:
        raise ValueError("empty --n-list")
    if args.format == "csv":
        sys.stdout.write(asymptotics.sweep_csv(ns, literal=args.literal))
        return 0
    reports = asymptotics.sweep(ns, literal=args.literal)
    if args.format == "json":
        params = {"n_list": args.n_list, "literal": args.literal}
        result = [
            {
                "n": rep.n,
                "r": rep.r,
                "ratio": rep.ratio,
                "abs_err": rep.abs_err,
                "bare_ratio": rep.bare_ratio,
                "bare_abs_err": rep.bare_abs_err,
            }
            for rep in reports
        ]
        sys.stdout.write(_dump_json(_envelope("asym", params, result)))
    else:
        print(f"{'n':>6} {'r':>16} {'ratio':>16} {'abs_err':>16}")
        for rep in reports:
            print(f"{rep.n:>6} {rep.r:>16.12g} {rep.ratio:>16.12g} {rep.abs_err:>16.12g}")
    return 0


# ------------------------------------------------------------------- verify

def _suite_counts(max_n: int, workers: int) -> tuple[bool, str]:
    cells = 0
    for n in range(1, max_n + 1):
        if sum(1 for _ in setpart.iterate_all(n)) != counting.bell(n):
            return False, f"iterate_all({n}) count != B_{n}"
        for k in range(1, n + 1):
            if sum(1 for _ in setpart.iterate_with_k(n, k)) != counting.stirling2(n, k):
                return False, f"iterate_with_k({n},{k}) count != S({n},{k})"
            cells += 1
    return True, f"stream counts match Bell and Stirling numbers on {cells} cells (n <= {max_n})"


def _suite_roundtrip(max_n: int, workers: int) -> tuple[bool, str]:
    top = min(max_n, 9)
    total = 0
    for n in range(1, top + 1):
        for w in setpart.iterate_all(n):
            if setpart.from_blocks(setpart.to_blocks(w)) != w:
                return False, f"block round trip failed for {setpart.format_word(w)}"
            total += 1
    return True, f"block round trip exact on {total} words (n <= {top})"


def _suite_stats_dual(max_n: int, workers: int) -> tuple[bool, str]:
    top = min(max_n, 9)
    total = 0
    for n in range(1, top + 1):
        for w in setpart.iterate_all(n):
            if stats.sep(w) != stats.sep_by_positions(w):
                return False, f"sep dual formulas differ on {setpart.format_word(w)}"
            recs = stats.records(w)
            if [v for v, _ in recs] != list(range(1, max(w) + 1)):
                return False, f"record values are not 1..k on {setpart.format_word(w)}"
            total += 1
    return True, f"sep dual formula and record structure hold on {total} words (n <= {top})"


def _suite_totals(max_n: int, workers: int) -> tuple[bool, str]:
    cells = 0
    for n in range(1, max_n + 1):
        brute = oracle.brute_totals_by_k(n, workers=workers)
        for k in range(1, n + 1):
            want = brute[k]
            closed = formulas.total_sep_nk(n, k)
            rational = formulas.rational_series_totals(k, n)[n]
            qderiv = series.sep_totals_by_length(k, n)[n]
            if not closed == rational == qderiv == want:
                return False, (
                    f"totals disagree at n={n} k={k}: brute={want} closed={closed} "
                    f"rational={rational} series={qderiv}"
                )
            cells += 1
    return True, f"four total routes agree on {cells} cells (n <= {max_n})"


def _suite_bell_total(max_n: int, workers: int) -> tuple[bool, str]:
    for n in range(1, max_n + 1):
        brute = sum(oracle.brute_totals_by_k(n, workers=workers).values())
        if formulas.total_sep_n(n) != brute:
            return False, f"Bell-number total differs from enumeration at n={n}"
    return True, f"Bell-number closed form matches enumeration (n <= {max_n})"


def _suite_distribution(max_n: int, workers: int) -> tuple[bool, str]:
    top = min(max_n, oracle.MAX_DIST_N)
    cells = 0
    for n in range(1, top + 1):
        for k in range(1, n + 1):
            expanded = {
                a: series.distribution_series(k, a, n).coefficient(n).to_dict()
                for a in range(1, k + 1)
            }
            for a in range(1, k + 1):
                if expanded[a] != oracle.brute_distribution_a(n, k, a):
                    return False, f"distribution mismatch at n={n} k={k} a={a}"
                cells += 1
    return True, f"series coefficients match enumerated distributions on {cells} cells (n <= {top})"


def _suite_pfd(max_n: int, workers: int) -> tuple[bool, str]:
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


def _suite_egf(max_n: int, workers: int) -> tuple[bool, str]:
    coeffs = formulas.egf_coeffs(30)
    for n in range(1, 31):
        if coeffs[n] * factorial(n) != formulas.total_sep_n(n):
            return False, f"exponential series coefficient wrong at n={n}"
    shifts = formulas.bell_shift_identities_check(30)
    bad = sorted(name for name, ok in shifts.items() if not ok)
    if bad:
        return False, f"Bell shift identities fail: {', '.join(bad)}"
    return True, "exponential series and Bell shift identities exact (n <= 30)"


def _suite_integrality(max_n: int, workers: int) -> tuple[bool, str]:
    for n in range(1, 201):
        value = (
            4 * counting.bell(n + 3)
            - 3 * counting.bell(n + 2)
            - (6 * n + 13) * counting.bell(n + 1)
            - (6 * n + 1) * counting.bell(n)
        )
        if value % 12 != 0:
            return False, f"integrality combination not divisible by 12 at n={n}"
    return True, "Bell combination divisible by 12 (n <= 200)"


def _suite_rowsum(max_n: int, workers: int) -> tuple[bool, str]:
    for n in range(1, 41):
        by_k = sum(formulas.total_sep_nk(n, k) for k in range(1, n + 1))
        if by_k != formulas.total_sep_n(n):
            return False, f"row sum differs from Bell-number total at n={n}"
    return True, "per-k totals sum to the Bell-number total (n <= 40)"


_SUITES = {
    "counts": _suite_counts,
    "roundtrip": _suite_roundtrip,
    "stats_dual": _suite_stats_dual,
    "totals": _suite_totals,
    "bell_total": _suite_bell_total,
    "distribution": _suite_distribution,
    "pfd": _suite_pfd,
    "egf": _suite_egf,
    "integrality": _suite_integrality,
    "rowsum": _suite_rowsum,
}


def _cmd_verify(args) -> int:
    max_n = args.max_n
    if not 1 <= max_n <= oracle.MAX_TOTAL_N:
        raise ValueError(f"need 1 <= --max-n <= {oracle.MAX_TOTAL_N}, got {max_n}")
    if args.suites:
        names = [s.strip() for s in args.suites.split(",") if s.strip()]
        unknown = sorted(set(names) - set(_SUITES))
        if unknown:
            raise ValueError(f"unknown suites: {', '.join(unknown)}")
    else:
        names = list(_SUITES)
    workers = _workers()
    results = []
    for name in names:
        ok, detail = _SUITES[name](max_n, workers)
        results.append({"name": name, "ok": ok, "detail": detail})
    failed = [r for r in results if not r["ok"]]
    if args.format == "json":
        payload = _envelope(
            "verify",
            {"max_n": max_n, "suites": ",".join(names)},
            {"ok": not failed, "suites": results},
        )
        sys.stdout.write(_dump_json(payload))
    else:
        for r in results:
            print(f"{'PASS' if r['ok'] else 'FAIL'} {r['name']}: {r['detail']}")
        print(f"RESULT {'PASS' if not failed else 'FAIL'} ({len(results) - len(failed)}/{len(results)} suites)")
    return 1 if failed else 0


# --------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seprec",
        description="Exact record statistics on set partitions in canonical word form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream canonical words")
    p.add_argument("--n", type=int, required=True, help="word length")
    p.add_argument("--k", type=int, default=None, help="restrict to exactly k blocks")
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("stat", help="record statistics of one word")
    p.add_argument("--word", required=True, help="bare digits, or comma-separated letters")
    p.add_argument("--stats", default="sep", help="comma list: sep,sep_a,srec,swrec,records")
    p.add_argument("--a", type=int, default=None, help="record value for sep_a")
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=_cmd_stat)

    p = sub.add_parser("total", help="total of sep over all partitions of [n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="restrict to exactly k blocks")
    p.add_argument("--method", choices=("formula", "brute", "series", "egf", "literal"),
                   default="formula")
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=_cmd_total)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--max-n", type=int, default=10, dest="max_n")
    p.add_argument("--suites", default=None,
                   help=f"comma list from: {','.join(_SUITES)} (default all)")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("pfd", help="partial fraction coefficient table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="use the residue oracle route")
    p.add_argument("--literal", action="store_true",
                   help="non-validated closed-form variant (+k^3/12)")
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=_cmd_pfd)

    p = sub.add_parser("series", help="distribution series for one record value")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--order", type=int, required=True, help="truncation order in x")
    p.add_argument("--literal", action="store_true", help="non-validated variant")
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("asym", help="asymptotic estimate quality report")
    p.add_argument("--n-list", default="50,100,200,400", dest="n_list",
                   help="comma list of n values")
    p.add_argument("--literal", action="store_true",
                   help="non-validated estimate without the 1/3")
    p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.set_defaults(func=_cmd_asym)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"seprec: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
