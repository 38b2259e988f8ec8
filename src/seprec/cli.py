"""Command line interface.

Subcommands: enumerate, stat, total, verify, pfd, series, asym.  Every
command supports ``--format plain|json|csv`` where it makes sense; identical
inputs produce byte-identical output (no timestamps, stable ordering).  All
stdout goes through one buffered text stream made in ``main`` (or straight to
a text stdout that has no bytes below it); warnings and errors go to stderr.

A command computes its result and hands it to ``_render`` in three shapes:
the json result, csv header and rows, and plain lines.  ``_render`` alone
picks the one that ``--format`` asks for and writes it; the json envelope
carries the command name and its parsed arguments as ``params``.  Only
``enumerate`` writes its own output: it streams the text chunks of
``setpart.lines`` (the digit words after one prefix, or one word that may
hold commas) as they are in plain, as csv rows, which quote only the comma
words, or inside the same json envelope, for which ``lines`` ends each word
with json's separator instead of a newline.

Heavy modules are imported in the branch that runs them, so a CLI start
loads and compiles only what its command runs.  A ``--literal`` command (or
``total --method literal``) calls the same function of ``variants``, the
module of the refuted formula variants, in place of the validated one.

Exit codes: 0 success, 1 verification failure, 2 usage error or a failed
write to stdout, 141 stdout closed by its reader (as a shell reports for
``yes | head -1``).
"""
from __future__ import annotations

import argparse
import io
import os
import sys
from math import factorial
from typing import TextIO

from . import counting, setpart, stats, verify

LITERAL_WARNING = (
    "warning: --literal uses the non-validated textbook variant of the formula; "
    "its output fails the brute-force checks and is shown for comparison only"
)


# Bytes the stdout stream gathers per write: short lines share a write, a
# longer line goes out alone, so a streamed listing holds little.
_CHARS_PER_WRITE = 1 << 16


def _envelope(args, result) -> dict:
    """The json document of a command: its name, its arguments and its result."""
    params = {key: value for key, value in vars(args).items() if key not in ("command", "format", "func")}
    return {"command": args.command, "params": params, "result": result}


def _render(args, out: TextIO, result, header, rows, lines) -> None:
    """Write a command's result in the format it was asked for: ``result``
    inside the json envelope, ``header`` and ``rows`` as csv, or ``lines`` as
    plain text.  Only that format's part is read, so ``rows`` and ``lines``
    may be generators."""
    if args.format == "json":
        import json
        json.dump(_envelope(args, result), out, sort_keys=True, indent=2)
        out.write("\n")
    elif args.format == "csv":
        import csv
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in lines:
            out.write(line + "\n")


def _route(module, literal: bool):
    """``module``, or for a literal command the ``variants`` module, which
    names each variant as ``module`` names the function it varies."""
    if literal:
        from . import variants
        return variants
    return module


def _name_list(text: str, what: str, known) -> list[str]:
    """The names of a comma list, stripped, without empty names, each once
    at its first place.  Raises ValueError naming ``what`` when none is
    left or when a name is not in ``known``."""
    names = list(dict.fromkeys(s.strip() for s in text.split(",") if s.strip()))
    if not names:
        raise ValueError(f"no {what} requested")
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown {what}: {', '.join(unknown)} (use {', '.join(known)})")
    return names


# ---------------------------------------------------------------- enumerate

def _cmd_enumerate(args, out: TextIO) -> int:
    n, k = args.n, args.k
    # lines checks n and k when called, before json counts the words
    chunks = setpart.lines(n, k)
    # A word holds only digits and commas, so f'"{w}"' is both its json
    # string and its quoted csv field; a digit word needs no csv quotes, and
    # a comma word is a chunk of its own.
    if args.format == "plain":
        for chunk in chunks:
            out.write(chunk)
    elif args.format == "csv":
        out.write("word\n")
        for chunk in chunks:
            out.write(f'"{chunk[:-1]}"\n' if "," in chunk else chunk)
    else:
        import json
        count = counting.bell(n) if k is None else counting.stirling2(n, k)
        frame = json.dumps(_envelope(args, {"count": count, "words": ["@", "@"]}), sort_keys=True, indent=2)
        # json's own text around and between two placeholder words
        head, between, tail = frame.split('"@"')
        separator = '"' + between + '"'
        out.write(head + '"')
        # every word ends with the separator; the last one's is cut back
        # to its closing quote
        text = ""
        for chunk in setpart.lines(n, k, end=separator):
            out.write(text)
            text = chunk
        out.write(text[:1 - len(separator)] + tail + "\n")
    return 0


# --------------------------------------------------------------------- stat

_STATS = ("sep", "sep_a", "srec", "swrec", "records")

# The statistics of the word alone; perfbench/layers.py counts the calls of
# stats.sep by wrapping it in this dict.
_PLAIN_STATS = {
    "sep": stats.sep,
    "srec": stats.srec,
    "swrec": stats.swrec,
}


def _cmd_stat(args, out: TextIO) -> int:
    word = setpart.parse_word(args.word)
    names = _name_list(args.stats, "statistics", _STATS)
    args.stats = ",".join(names)
    results: dict[str, object] = {}
    lines = []
    for name in names:
        if name in _PLAIN_STATS:
            value = text = _PLAIN_STATS[name](word)
        elif name == "records":
            value = [[v, p] for v, p in stats.records(word)]
            text = ",".join(f"{v}:{p}" for v, p in value)
        else:
            if args.a is None:
                raise ValueError("sep_a requires --a")
            name = f"sep_a({args.a})"
            value = text = stats.sep_a(word, args.a)
        results[name] = value
        lines.append(f"{name} {text}")
    # csv writes a list of int pairs as str(value), which is also its json text
    _render(args, out, results, ["stat", "value"], results.items(), lines)
    return 0


# -------------------------------------------------------------------- total

def _total_value(n: int, k, method: str) -> int:
    if n < 1:
        raise ValueError(f"need --n >= 1, got {n}")
    if method == "formula":
        from . import formulas
        return formulas.total_sep_n(n) if k is None else formulas.total_sep_nk(n, k)
    if method == "brute":
        from . import oracle
        return oracle.brute_total(n) if k is None else oracle.brute_total_nk(n, k)
    if method in ("series", "literal"):
        from . import series
        ks = range(1, n + 1) if k is None else [k]
        totals = _route(series, method == "literal").sep_totals_by_length
        return sum(totals(j, n)[n] for j in ks)
    # method "egf"; argparse admits no other
    if k is not None:
        raise ValueError("method 'egf' computes the all-partitions total; drop --k")
    from . import formulas
    total = formulas.egf_coeffs(n)[n] * factorial(n)
    if total.denominator != 1:
        raise ArithmeticError(f"exponential-series total for n={n} is not an integer: {total}")
    return total.numerator


def _cmd_total(args, out: TextIO) -> int:
    text = str(_total_value(args.n, args.k, args.method))
    _render(args, out, text, ["n", "k", "method", "total"],
            [[args.n, "" if args.k is None else args.k, args.method, text]], [text])
    return 0


# ---------------------------------------------------------------------- pfd

def _cmd_pfd(args, out: TextIO) -> int:
    if args.literal and args.oracle:
        raise ValueError("--literal applies to the closed form, not the oracle")
    from . import formulas
    if args.oracle:
        table = formulas.pfd_oracle(args.k)
    else:
        table = _route(formulas, args.literal).pfd_coeffs(args.k)
    entries = [(m, *table.row(m)) for m in range(1, args.k + 1)]
    result = [{"m": m, "a": [am.numerator, am.denominator], "b": [bm.numerator, bm.denominator]}
              for m, am, bm in entries]
    rows = ([args.k, m, am.numerator, am.denominator, bm.numerator, bm.denominator] for m, am, bm in entries)
    lines = (f"{args.k} {m} {am} {bm}" for m, am, bm in entries)
    _render(args, out, result, ["k", "m", "a_num", "a_den", "b_num", "b_den"], rows, lines)
    return 0


# ------------------------------------------------------------------- series

def _cmd_series(args, out: TextIO) -> int:
    from . import series
    xs = _route(series, args.literal).distribution_series(args.k, args.a, args.order)
    result = [[n, list(c.to_dict().items())] for n, c in enumerate(xs.coeffs)]
    rows = ([n, s, count] for n, terms in result for s, count in terms)
    _render(args, out, result, ["n", "s", "count"], rows, [series.format_series(xs)])
    return 0


# --------------------------------------------------------------------- asym

def _cmd_asym(args, out: TextIO) -> int:
    ns = []
    for part in filter(None, map(str.strip, args.n_list.split(","))):
        try:
            ns.append(int(part))
        except ValueError:
            raise ValueError(f"--n-list: not an integer: {part!r}") from None
    if not ns:
        raise ValueError("empty --n-list")
    from . import asymptotics
    reports = _route(asymptotics, args.literal).sweep(ns)
    result = [rep._asdict() for rep in reports]
    rows = [asymptotics.table_row(rep) for rep in reports]
    line = "{:>6} {:>16} {:>16} {:>16}".format
    lines = (line(*row) for row in [asymptotics.TABLE_HEADER, *rows])
    _render(args, out, result, asymptotics.TABLE_HEADER, rows, lines)
    return 0


# ------------------------------------------------------------------- verify

# perfbench/layers.py wraps the entries of this dict in place, so
# _cmd_verify looks each suite up here at call time.
_SUITES = verify.SUITES


def _cmd_verify(args, out: TextIO) -> int:
    names = _name_list(args.suites, "suites", _SUITES)
    args.suites = ",".join(names)
    results = []
    for name in names:
        # each suite refuses a --max-n out of its range before any work
        ok, detail = _SUITES[name](args.max_n)
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

    def command(name, func, help, formats=("plain", "json", "csv")):
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=formats, default="plain")
        p.set_defaults(func=func)
        return p

    p = command("enumerate", _cmd_enumerate, "stream canonical words")
    p.add_argument("--n", type=int, required=True, help="word length")
    p.add_argument("--k", type=int, default=None, help="restrict to exactly k blocks")

    p = command("stat", _cmd_stat, "record statistics of one word")
    p.add_argument("--word", required=True, help="bare digits, or comma-separated letters")
    p.add_argument("--stats", default="sep", help=f"comma list: {','.join(_STATS)}")
    p.add_argument("--a", type=int, default=None, help="record value for sep_a")

    p = command("total", _cmd_total, "total of sep over all partitions of [n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="restrict to exactly k blocks")
    p.add_argument("--method", choices=("formula", "brute", "series", "egf", "literal"),
                   default="formula")

    p = command("verify", _cmd_verify, "run the verification suites", formats=("plain", "json"))
    p.add_argument("--max-n", type=int, default=10, dest="max_n")
    p.add_argument("--suites", default=",".join(_SUITES),
                   help=f"comma list from: {','.join(_SUITES)} (default all)")

    p = command("pfd", _cmd_pfd, "partial fraction coefficient table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--oracle", action="store_true", help="use the residue oracle route")
    p.add_argument("--literal", action="store_true",
                   help="non-validated closed-form variant (+k^3/12)")

    p = command("series", _cmd_series, "distribution series for one record value")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--order", type=int, required=True, help="truncation order in x")
    p.add_argument("--literal", action="store_true", help="non-validated variant")

    p = command("asym", _cmd_asym, "asymptotic estimate quality report")
    p.add_argument("--n-list", default="50,100,200,400", dest="n_list",
                   help="comma list of n values")
    p.add_argument("--literal", action="store_true",
                   help="non-validated estimate without the 1/3")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # The one stdout stream.  BufferedWriter writes each chunk until all of it
    # is taken, also to the raw file of an unbuffered stdout (python -u), so the
    # next write after the reader has gone raises BrokenPipeError.  A text
    # stdout without bytes below it, as io.StringIO under
    # contextlib.redirect_stdout, takes the text itself.
    wrapped = hasattr(sys.stdout, "buffer")
    out = (io.TextIOWrapper(io.BufferedWriter(sys.stdout.buffer, _CHARS_PER_WRITE),
                            encoding=sys.stdout.encoding, errors=sys.stdout.errors, newline="\n")
           if wrapped else sys.stdout)
    # Lift CPython's limit on int-to-str digits (Python 3.11+) while the
    # command runs: the numbers it writes may be longer.  argparse reads the
    # int options under the default limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            code = args.func(args, out)
        except (ValueError, ArithmeticError) as exc:
            print(f"seprec: error: {exc}", file=sys.stderr)
            code = 2
        if code == 0 and (vars(args).get("literal") or vars(args).get("method") == "literal"):
            print(LITERAL_WARNING, file=sys.stderr)
        out.flush()
        sys.stdout.flush()
        return code
    except OSError as exc:
        # The reader closed stdout, or its file refused a write.  Point stdout
        # at the null device, so that the flushes still to come, in detach and
        # at exit, cannot fail again and print a traceback.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        if isinstance(exc, BrokenPipeError):
            return 141
        print(f"seprec: error: cannot write stdout: {exc}", file=sys.stderr)
        return 2
    finally:
        # Detach both layers, so that the stream never closes sys.stdout.buffer.
        if wrapped:
            out.detach().detach()
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
