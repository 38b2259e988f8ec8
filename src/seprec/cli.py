"""Command line interface.

Subcommands: enumerate, stat, total, verify, pfd, series, asym.  Every
command supports ``--format plain|json|csv`` where it makes sense; identical
inputs produce byte-identical output (no timestamps, stable ordering).  All
stdout streams through one sink, ``_Stdout``; warnings and errors go to stderr.

A command computes its result and hands it to ``_render`` in three shapes:
the json result, csv header and rows, and plain lines.  ``_render`` alone
picks the one that ``--format`` asks for and writes it; the json envelope
carries the command name and its parsed arguments as ``params``.  Only
``enumerate`` writes its own output: it streams the text chunks of
``setpart.lines`` (a run of digit words that differ only in their last
letter, or one comma word) as they are in plain, inside the same json
envelope, or as csv rows, which quote only the comma words.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 stdout
closed by its reader (as a shell reports for ``yes | head -1``).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from math import factorial

from . import asymptotics, counting, formulas, oracle, series, setpart, stats, verify

LITERAL_WARNING = (
    "warning: --literal uses the non-validated textbook variant of the formula; "
    "its output fails the brute-force checks and is shown for comparison only"
)


# Characters gathered per write: short lines share a write, a longer line
# goes out alone, so a streamed listing holds little.
_CHARS_PER_WRITE = 1 << 16


class _Stdout:
    """The one stdout path: json.dump, csv.writer and plain lines write here."""

    def __init__(self):
        self._parts, self._size = [], 0

    def write(self, text: str) -> None:
        self._parts.append(text)
        self._size += len(text)
        if self._size >= _CHARS_PER_WRITE:
            self.flush()

    def flush(self) -> None:
        """Write the gathered text to stdout in full, then flush stdout.

        Unbuffered stdout (``python -u``, PYTHONUNBUFFERED) writes through to a
        raw file, which takes only part of a large write when the reader leaves,
        and the text layer drops the rest.  Writing the bytes until all are taken
        makes the next write after the reader has gone raise BrokenPipeError.
        """
        data = memoryview("".join(self._parts).encode(sys.stdout.encoding, sys.stdout.errors))
        self._parts, self._size = [], 0
        while data:
            data = data[sys.stdout.buffer.write(data):]
        sys.stdout.flush()


def _envelope(args, result) -> dict:
    """The json document of a command: its name, its arguments and its result."""
    params = {key: value for key, value in vars(args).items() if key not in ("command", "format", "func")}
    return {"command": args.command, "params": params, "result": result}


def _render(args, out: _Stdout, result, header, rows, lines) -> None:
    """Write a command's result in the format it was asked for: ``result``
    inside the json envelope, ``header`` and ``rows`` as csv, or ``lines`` as
    plain text.  Only that format's part is read, so ``rows`` and ``lines``
    may be generators."""
    if args.format == "json":
        json.dump(_envelope(args, result), out, sort_keys=True, indent=2)
        out.write("\n")
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in lines:
            out.write(line + "\n")


# ---------------------------------------------------------------- enumerate

def _cmd_enumerate(args, out: _Stdout) -> int:
    n, k = args.n, args.k
    chunks = setpart.lines(n, k)
    if args.format == "plain":
        for chunk in chunks:
            out.write(chunk)
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["word"])
        for chunk in chunks:
            # a digit word needs no quotes, so only a comma word goes to the writer
            if "," in chunk:
                writer.writerows(zip(chunk.splitlines()))
            else:
                out.write(chunk)
    else:
        count = counting.bell(n) if k is None else counting.stirling2(n, k)
        frame = json.dumps(_envelope(args, {"count": count, "words": ["@", "@"]}), sort_keys=True, indent=2)
        # json's own text around and between two placeholder words; a word holds
        # only digits and commas, so f'"{w}"' is json.dumps(w)
        head, between, tail = frame.split('"@"')
        separator = '"' + between + '"'
        out.write(head + '"')
        text = ""
        for chunk in chunks:
            out.write(text)
            text = chunk.replace("\n", separator)
        out.write(text[:1 - len(separator)] + tail + "\n")
    return 0


# --------------------------------------------------------------------- stat

_PLAIN_STATS = {
    "sep": stats.sep,
    "srec": stats.srec,
    "swrec": stats.swrec,
}


def _cmd_stat(args, out: _Stdout) -> int:
    word = setpart.parse_word(args.word)
    # a repeated name is computed and printed once, at its first place
    names = dict.fromkeys(s.strip() for s in args.stats.split(",") if s.strip())
    if not names:
        raise ValueError("no statistics requested")
    results: dict[str, object] = {}
    for name in names:
        if name in _PLAIN_STATS:
            results[name] = _PLAIN_STATS[name](word)
        elif name == "records":
            results[name] = [[v, p] for v, p in stats.records(word)]
        elif name == "sep_a":
            if args.a is None:
                raise ValueError("sep_a requires --a")
            results[f"sep_a({args.a})"] = stats.sep_a(word, args.a)
        else:
            raise ValueError(f"unknown statistic {name!r} (use sep, sep_a, srec, swrec, records)")
    lines = []
    for name, value in results.items():
        if name == "records":
            value = ",".join(f"{v}:{p}" for v, p in value)
        lines.append(f"{name} {value}")
    rows = ([name, json.dumps(value) if isinstance(value, list) else value] for name, value in results.items())
    _render(args, out, results, ["stat", "value"], rows, lines)
    return 0


# -------------------------------------------------------------------- total

def _total_value(n: int, k, method: str) -> int:
    if n < 1:
        raise ValueError(f"need --n >= 1, got {n}")
    literal = method == "literal"
    if k is None:
        if method == "formula":
            return formulas.total_sep_n(n)
        if method == "brute":
            return oracle.brute_total(n)
        if method in ("series", "literal"):
            return sum(series.sep_totals_by_length(k2, n, literal=literal)[n]
                       for k2 in range(1, n + 1))
        if method == "egf":
            total = formulas.egf_coeffs(n)[n] * factorial(n)
            if total.denominator != 1:
                raise ArithmeticError(f"exponential-series total for n={n} is not an integer: {total}")
            return total.numerator
    else:
        if method == "formula":
            return formulas.total_sep_nk(n, k)
        if method == "brute":
            return oracle.brute_total_nk(n, k)
        if method in ("series", "literal"):
            return series.sep_totals_by_length(k, n, literal=literal)[n]
        if method == "egf":
            raise ValueError("method 'egf' computes the all-partitions total; drop --k")
    raise ValueError(f"unknown method {method!r}")


def _cmd_total(args, out: _Stdout) -> int:
    if args.method == "literal":
        print(LITERAL_WARNING, file=sys.stderr)
    text = str(_total_value(args.n, args.k, args.method))
    _render(args, out, text, ["n", "k", "method", "total"],
            [[args.n, "" if args.k is None else args.k, args.method, text]], [text])
    return 0


# ---------------------------------------------------------------------- pfd

def _cmd_pfd(args, out: _Stdout) -> int:
    if args.literal:
        if args.oracle:
            raise ValueError("--literal applies to the closed form, not the oracle")
        print(LITERAL_WARNING, file=sys.stderr)
    if args.oracle:
        table = formulas.pfd_oracle(args.k)
    else:
        table = formulas.pfd_coeffs(args.k, literal=args.literal)
    entries = [(m, *table.row(m)) for m in range(1, args.k + 1)]
    result = [{"m": m, "a": [am.numerator, am.denominator], "b": [bm.numerator, bm.denominator]}
              for m, am, bm in entries]
    rows = ([args.k, m, am.numerator, am.denominator, bm.numerator, bm.denominator] for m, am, bm in entries)
    lines = (f"{args.k} {m} {am} {bm}" for m, am, bm in entries)
    _render(args, out, result, ["k", "m", "a_num", "a_den", "b_num", "b_den"], rows, lines)
    return 0


# ------------------------------------------------------------------- series

def _cmd_series(args, out: _Stdout) -> int:
    if args.literal:
        print(LITERAL_WARNING, file=sys.stderr)
    xs = series.distribution_series(args.k, args.a, args.order, literal=args.literal)
    result = [[n, sorted(c.to_dict().items())] for n, c in enumerate(xs.coeffs)]
    rows = ([n, s, count] for n, terms in result for s, count in terms)
    _render(args, out, result, ["n", "s", "count"], rows, [series.format_series(xs)])
    return 0


# --------------------------------------------------------------------- asym

def _cmd_asym(args, out: _Stdout) -> int:
    if args.literal:
        print(LITERAL_WARNING, file=sys.stderr)
    ns = [int(part) for part in args.n_list.split(",") if part.strip()]
    if not ns:
        raise ValueError("empty --n-list")
    reports = asymptotics.sweep(ns, literal=args.literal)
    result = [dataclasses.asdict(rep) for rep in reports]
    rows = ([rep.n, f"{rep.r:.12g}", f"{rep.ratio:.12g}", f"{rep.abs_err:.12g}"] for rep in reports)
    lines = [f"{'n':>6} {'r':>16} {'ratio':>16} {'abs_err':>16}"]
    lines += (f"{rep.n:>6} {rep.r:>16.12g} {rep.ratio:>16.12g} {rep.abs_err:>16.12g}" for rep in reports)
    _render(args, out, result, ["n", "r", "ratio", "abs_err"], rows, lines)
    return 0


# ------------------------------------------------------------------- verify

# perfbench/layers.py wraps the entries of this dict in place, so
# _cmd_verify looks each suite up here at call time.
_SUITES = verify.SUITES


def _cmd_verify(args, out: _Stdout) -> int:
    max_n = args.max_n
    if not 1 <= max_n <= oracle.MAX_TOTAL_N:
        raise ValueError(f"need 1 <= --max-n <= {oracle.MAX_TOTAL_N}, got {max_n}")
    if args.suites is None:
        names = list(_SUITES)
    else:
        # a repeated suite runs once, at its first place
        names = list(dict.fromkeys(s.strip() for s in args.suites.split(",") if s.strip()))
        if not names:
            raise ValueError("no suites requested")
        unknown = sorted(set(names) - set(_SUITES))
        if unknown:
            raise ValueError(f"unknown suites: {', '.join(unknown)}")
    args.suites = ",".join(names)
    results = []
    for name in names:
        ok, detail = _SUITES[name](max_n)
        results.append({"name": name, "ok": ok, "detail": detail})
    failed = [r for r in results if not r["ok"]]
    lines = [f"{'PASS' if r['ok'] else 'FAIL'} {r['name']}: {r['detail']}" for r in results]
    lines.append(f"RESULT {'PASS' if not failed else 'FAIL'} ({len(results) - len(failed)}/{len(results)} suites)")
    _render(args, out, {"ok": not failed, "suites": results}, None, None, lines)
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
    out = _Stdout()
    # Lift CPython's limit on int-to-str digits (Python 3.11+) while the
    # command runs: the numbers it writes may be longer.  argparse reads the
    # int options under the default limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args, out)
        out.flush()
        return code
    except (ValueError, ArithmeticError) as exc:
        print(f"seprec: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout.  Point it at the null device so that the
        # flush at exit cannot fail again and print a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
