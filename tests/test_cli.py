import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from itertools import chain, islice
from math import factorial
from pathlib import Path

import pytest

from seprec import asymptotics, cli, counting, formulas, oracle, series, setpart, stats, variants, verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_plain(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["111", "112", "121", "122", "123"]


def test_enumerate_with_k(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--k", "2")
    assert code == 0
    assert out.splitlines() == ["112", "121", "122"]


def test_enumerate_single(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "1")
    assert code == 0
    assert out == "1\n"


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["word"]
    assert len(rows) == 6


def test_enumerate_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "3", "--k", "5")
    assert code == 2
    assert "error" in err


def test_enumerate_listing_budget_counts_the_words_listed(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "20", "--k", "20", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["words"] == [",".join(map(str, range(1, 21)))]


def test_enumerate_json_count_builds_no_stirling_table(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "1000", "--k", "1000", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["count"] == 1
    code, out, err = run_cli(capsys, "enumerate", "--n", str(counting.MAX_STIRLING_N + 1), "--k", "2",
                             "--format", "json")
    assert (code, out) == (2, "")
    assert "budget" in err and err.count("\n") == 1


@pytest.mark.listings(*((n, k, fmt) for n, k in ((300, 300), (12, 10)) for fmt in ("plain", "json", "csv")))
def test_enumerate_one_long_word(capsys, reference):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "1000", "--k", "1000")
    assert code == 0
    assert out == ",".join(map(str, range(1, 1001))) + "\n"
    # letters past 255 do not fit a byte, and letters past 9 are not one digit
    for n, k in ((300, 300), (12, 10)):
        for fmt in ("plain", "json", "csv"):
            code, out, _ = run_cli(capsys, "enumerate", "--n", str(n), "--k", str(k), "--format", fmt)
            assert code == 0
            assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == reference.listing(n)[k][fmt], (n, k, fmt)


_WRITE_CHUNK_CASES = [
    (9, None, None),  # the plain B_9 listing makes 211,470 characters, four writes
    (9, 4, None),
    (8, None, 5),  # every write is longer than a chunk and goes out alone
    (8, 4, 5),
    (10, None, None),  # words with a letter 10 print with commas
    (10, 10, 5),  # csv quotes the one word, 1,2,...,10
    (11, 10, 5),  # comma words only, one per chunk
    (12, None, None),  # digit words then comma words, within and across the chunks of one prefix
]


@pytest.mark.listings(*((n, k, fmt) for n, k, _ in _WRITE_CHUNK_CASES for fmt in ("plain", "json", "csv")))
@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("n, k, chars_per_write", _WRITE_CHUNK_CASES)
def test_enumerate_across_write_chunks(monkeypatch, reference, fmt, n, k, chars_per_write):
    if chars_per_write is not None:
        monkeypatch.setattr(cli, "_CHARS_PER_WRITE", chars_per_write)
    argv = ["enumerate", "--n", str(n), "--format", fmt] + ([] if k is None else ["--k", str(k)])

    def run(stream):
        # the listings of B_12 words make 55-93 MB, so they are hashed as they come
        monkeypatch.setattr(sys, "stdout", stream)
        return cli.main(argv)

    code, size, sha = reference.digest(run)
    assert code == 0
    assert size > cli._CHARS_PER_WRITE
    assert (size, sha) == reference.listing(n)[k][fmt]


# Runs the CLI in a child that prints its peak RSS in KiB to stderr after the
# command's own output.  The peak is VmHWM, which exec resets; ru_maxrss would
# carry over the peak of the pytest process that started the child.
_MEASURED_CLI = ("import sys\nfrom seprec import cli\ncode = cli.main(sys.argv[1:])\n"
                 "with open('/proc/self/status') as status:\n"
                 "    peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
                 "print(peak, file=sys.stderr)\nsys.exit(code)\n")


def _start_measured_cli(*argv):
    return subprocess.Popen([sys.executable, "-c", _MEASURED_CLI, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.parametrize("argv, head", [
    # each word of length 200,000 makes a 200 KB line; plain output must write
    # the first one at once, not gather many lines before a write
    (("--n", "200000"), [b"1" * 200000 + b"\n", b"1" * 199999 + b"2\n"]),
    # B_13 = 27,644,437 words make about 400 MB of text; json and csv stream it
    (("--n", "13", "--format", "json"), [b"{\n", b'  "command": "enumerate",\n']),
    (("--n", "13", "--format", "csv"), [b"word\n", b"1111111111111\n"]),
    # the count B_2100 has more digits than CPython's default int-to-str limit
    (("--n", "2100", "--format", "json"), [b"{\n", b'  "command": "enumerate",\n']),
], ids=["plain_long_words", "json", "csv", "json_past_the_int_digit_limit"])
def test_enumerate_streams(argv, head):
    proc = _start_measured_cli("enumerate", *argv)
    try:
        assert [proc.stdout.readline(), proc.stdout.readline()] == head
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert int(err) < 100 * 1024  # peak RSS in KiB
    finally:
        proc.kill()
        proc.wait()


def test_enumerate_at_the_word_length_budget_stays_small():
    # the one word 1,2,...,10**6 is formatted beside no copy of its prefix
    proc = _start_measured_cli("enumerate", "--n", str(setpart.MAX_WORD_LENGTH), "--k", str(setpart.MAX_WORD_LENGTH))
    try:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert out == ",".join(map(str, range(1, setpart.MAX_WORD_LENGTH + 1))).encode() + b"\n"
        assert int(err) < 140 * 1024  # peak RSS in KiB
    finally:
        proc.kill()
        proc.wait()


@pytest.mark.parametrize("k", [2, 500])
def test_total_by_k_at_the_stirling_budget_stays_small(k):
    proc = _start_measured_cli("total", "--n", str(counting.MAX_STIRLING_N), "--k", str(k))
    try:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert out.endswith(b"\n") and out[:-1].isdigit()
        assert int(err) < 64 * 1024  # peak RSS in KiB
    finally:
        proc.kill()
        proc.wait()


def _loaded_by_a_fresh_cli(*argv) -> set[str]:
    """The names in sys.modules after a fresh process imports seprec.cli
    and, given an argv, runs that command (``--help`` included)."""
    script = ("import sys\nfrom seprec import cli\n"
              "try:\n    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
              "except SystemExit as exc:\n    code = exc.code\n"
              "sys.stdout.flush()\nprint(code, *sorted(sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *names = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return set(names)


def test_importing_the_cli_loads_no_process_pool():
    assert not {"multiprocessing", "concurrent.futures.process", "dataclasses", "inspect"} & _loaded_by_a_fresh_cli()


# A CLI start compiles every module it imports, so each command loads
# exactly the seprec modules it runs, and fractions, json and csv only where
# it builds a Fraction or writes through json or the csv module.
_WATCHED = ("fractions", "json", "csv")
_FORMULAS = {"seprec.formulas", "seprec.counting"}
_WORDS = {"seprec.setpart", "seprec.stats"}


@pytest.mark.parametrize("argv, loaded", [
    # the import alone binds no seprec module
    ((), set()),
    (("stat", "--word", "121132"), _WORDS),
    (("stat", "--word", "121132", "--stats", "sep,sep_a,srec,swrec,records", "--a", "2"), _WORDS),
    (("enumerate", "--n", "4"), {"seprec.setpart"}),
    (("enumerate", "--n", "12", "--k", "11"), {"seprec.setpart"}),
    (("enumerate", "--n", "5", "--k", "3", "--format", "csv"), {"seprec.setpart"}),
    (("enumerate", "--n", "5", "--format", "json"), {"seprec.setpart", "seprec.counting", "json"}),
    (("total", "--n", "10"), _FORMULAS),
    (("total", "--n", "6", "--method", "brute"), {"seprec.oracle", *_WORDS}),
    (("total", "--n", "10", "--method", "series"), {"seprec.series"}),
    (("total", "--n", "30", "--method", "egf"), {*_FORMULAS, "fractions"}),
    (("pfd", "--k", "3"), {*_FORMULAS, "fractions"}),
    (("pfd", "--k", "3", "--oracle"), {*_FORMULAS, "fractions"}),
    (("series", "--k", "3", "--a", "2", "--order", "6"), {"seprec.series"}),
    (("asym", "--n-list", "50"), {"seprec.asymptotics", *_FORMULAS}),
    (("verify", "--max-n", "3"), {"seprec.verify", "seprec.oracle", "seprec.series", *_WORDS, *_FORMULAS,
                                  "fractions"}),
    # the help lists the suites without importing them
    (("verify", "--help"), set()),
], ids=["import", "stat", "stat-all", "enumerate", "enumerate-k", "enumerate-csv", "enumerate-json", "total",
        "total-brute", "total-series", "total-egf", "pfd", "pfd-oracle", "series", "asym", "verify",
        "verify-help"])
def test_a_command_loads_only_the_modules_it_runs(argv, loaded):
    got = {name for name in _loaded_by_a_fresh_cli(*argv) if name.split(".")[0] == "seprec" or name in _WATCHED}
    assert got == {"seprec", "seprec.cli", *loaded}


def test_stat_sep(capsys):
    code, out, _ = run_cli(capsys, "stat", "--word", "121132", "--stats", "sep")
    assert code == 0
    assert out == "sep 6\n"


def test_stat_swrec(capsys):
    code, out, _ = run_cli(capsys, "stat", "--word", "122313", "--stats", "swrec")
    assert code == 0
    assert out == "swrec 17\n"


def test_stat_multiple(capsys):
    code, out, _ = run_cli(capsys, "stat", "--word", "1", "--stats", "sep,srec")
    assert code == 0
    assert out.splitlines() == ["sep 0", "srec 1"]


def test_stat_sep_a_and_records(capsys):
    code, out, _ = run_cli(
        capsys, "stat", "--word", "121132", "--stats", "records,sep_a", "--a", "3"
    )
    assert code == 0
    assert out.splitlines() == ["records 1:1,2:2,3:5", "sep_a(3) 5"]
    # csv writes the record pairs as their json text, quoted for its commas
    code, out, _ = run_cli(capsys, "stat", "--word", "121132", "--stats", "records,sep", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["stat,value", 'records,"[[1, 1], [2, 2], [3, 5]]"', "sep,6"]


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_stat_repeated_name_prints_once(capsys, fmt):
    _, once, _ = run_cli(capsys, "stat", "--word", "121132", "--stats", "sep,srec", "--format", fmt)
    for stats_arg in ("sep,srec,sep", "sep, srec,sep"):
        code, out, _ = run_cli(capsys, "stat", "--word", "121132", "--stats", stats_arg, "--format", fmt)
        assert code == 0
        # the json envelope echoes the normalised request, as verify's does
        assert out == once
    if fmt == "json":
        doc = json.loads(out)
        assert doc["params"]["stats"] == "sep,srec"
        assert doc["result"] == {"sep": 6, "srec": 8}
    else:
        assert out.count("sep") == 1


def test_stat_sep_a_requires_a(capsys):
    code, _, err = run_cli(capsys, "stat", "--word", "121132", "--stats", "sep_a")
    assert code == 2
    assert "requires --a" in err


def test_stat_unknown_statistic(capsys):
    code, out, err = run_cli(capsys, "stat", "--word", "12", "--stats", "sep,nope,records,zz")
    assert (code, out) == (2, "")
    assert err == "seprec: error: unknown statistics: nope, zz (use sep, sep_a, srec, swrec, records)\n"


def test_stat_computes_every_listed_name(capsys):
    for name in cli._STATS:
        code, out, _ = run_cli(capsys, "stat", "--word", "121132", "--stats", name, "--a", "2")
        assert code == 0 and out.startswith(name) and out.count("\n") == 1, name


def test_stat_bad_word(capsys):
    code, _, err = run_cli(capsys, "stat", "--word", "10", "--stats", "sep")
    assert code == 2


def test_total_default(capsys):
    code, out, _ = run_cli(capsys, "total", "--n", "4")
    assert (code, out) == (0, "50\n")


def test_total_brute_with_k(capsys):
    code, out, _ = run_cli(capsys, "total", "--n", "4", "--k", "2", "--method", "brute")
    assert (code, out) == (0, "11\n")


def test_total_n1(capsys):
    code, out, _ = run_cli(capsys, "total", "--n", "1")
    assert (code, out) == (0, "0\n")


def test_total_methods_agree(capsys):
    values = {}
    for method in ("formula", "brute", "series", "egf"):
        code, out, _ = run_cli(capsys, "total", "--n", "6", "--method", method)
        assert code == 0
        values[method] = int(out)
    assert len(set(values.values())) == 1
    for method in ("formula", "brute", "series"):
        code, out, _ = run_cli(capsys, "total", "--n", "6", "--k", "3", "--method", method)
        assert code == 0
        assert int(out) == formulas.total_sep_nk(6, 3)


def test_total_literal_warns_and_differs(capsys):
    code, out, err = run_cli(capsys, "total", "--n", "6", "--k", "4", "--method", "literal")
    assert code == 0
    assert err == cli.LITERAL_WARNING + "\n"
    assert int(out) != formulas.total_sep_nk(6, 4)


def test_total_egf_rejects_k(capsys):
    code, _, err = run_cli(capsys, "total", "--n", "5", "--k", "2", "--method", "egf")
    assert code == 2


@pytest.mark.parametrize("method", ["formula", "brute", "series", "egf", "literal"])
@pytest.mark.parametrize("n", [0, -5])
def test_total_refuses_n_below_1(capsys, method, n):
    code, out, err = run_cli(capsys, "total", "--n", str(n), "--method", method)
    assert (code, out) == (2, "")
    assert err.endswith("\n") and err.splitlines()[-1].startswith("seprec: error: ")
    assert err.count("seprec: error: ") == 1


def test_total_brute_cap(capsys):
    code, _, err = run_cli(capsys, "total", "--n", "13", "--method", "brute")
    assert code == 2


# Every Stirling caller reads the one message of counting.stirling2_column.
_STIRLING_BUDGET_ERROR = (f"seprec: error: need n <= {counting.MAX_STIRLING_N} for S(n, k) "
                          f"(Stirling number budget), got n={counting.MAX_STIRLING_N + 1}\n")


@pytest.mark.parametrize("argv, want_err", [
    (("total", "--n", formulas.MAX_BELL_TOTAL_N + 1), None),
    (("total", "--n", counting.MAX_STIRLING_N + 1, "--k", 2), _STIRLING_BUDGET_ERROR),
    (("enumerate", "--n", counting.MAX_STIRLING_N + 1, "--k", 3, "--format", "json"), _STIRLING_BUDGET_ERROR),
    (("total", "--n", oracle.MAX_TOTAL_N + 1, "--method", "brute"), None),
    (("total", "--n", series.MAX_TOTALS_ORDER + 1, "--method", "series"), None),
    (("total", "--n", series.MAX_TOTALS_ORDER + 1, "--k", 2, "--method", "series"), None),
    (("total", "--n", formulas.MAX_EGF_ORDER + 1, "--method", "egf"), None),
    (("series", "--k", 1, "--a", 1, "--order", series.MAX_ORDER + 1), None),
    (("pfd", "--k", formulas.MAX_PFD_K + 1), None),
    (("pfd", "--k", formulas.MAX_PFD_ORACLE_K + 1, "--oracle"), None),
    (("enumerate", "--n", setpart.MAX_WORD_LENGTH + 1), None),
    (("asym", "--n-list", ",".join([str(asymptotics.MAX_EXACT_N)] * (asymptotics.MAX_SWEEP_LEN + 1))), None),
], ids=["total", "total_k", "enumerate_json_k", "brute", "series", "series_k", "egf", "series_order", "pfd",
        "pfd_oracle", "enumerate_length", "asym_length"])
def test_one_past_a_size_budget_exits_2_at_once(capsys, argv, want_err):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *map(str, argv))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("seprec: error: ") and err.count("\n") == 1
    if want_err is not None:
        assert err == want_err


def test_total_prints_past_the_int_digit_limit(capsys):
    # total_sep_n(2000) has more digits than CPython's default int-to-str
    # limit; Decimal converts it without that limit
    want = str(Decimal(formulas.total_sep_n(2000)))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, _ = run_cli(capsys, "total", "--n", "2000")
    assert (code, out) == (0, want + "\n")
    code, out, _ = run_cli(capsys, "total", "--n", "2000", "--format", "json")
    assert code == 0
    assert f'"result": "{want}"' in out
    code, out, _ = run_cli(capsys, "total", "--n", "2000", "--format", "csv")
    assert (code, out) == (0, f"n,k,method,total\n2000,,formula,{want}\n")
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_pfd_prints_past_the_int_digit_limit(capsys):
    # the factorial denominators of pfd_coeffs(1600) pass CPython's default
    # int-to-str limit; Decimal converts them without that limit
    table = formulas.pfd_coeffs(1600)
    want = {m: [str(Decimal(part)) for q in table.row(m) for part in (q.numerator, q.denominator)]
            for m in (1, 1600)}
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, _ = run_cli(capsys, "pfd", "--k", "1600")
    assert code == 0
    lines = out.splitlines()
    for m, line in ((1, lines[0]), (1600, lines[-1])):
        a_num, a_den, b_num, b_den = want[m]
        a = a_num if a_den == "1" else f"{a_num}/{a_den}"
        b = b_num if b_den == "1" else f"{b_num}/{b_den}"
        assert line == f"1600 {m} {a} {b}"
    code, out, _ = run_cli(capsys, "pfd", "--k", "1600", "--format", "json")
    assert code == 0
    rows = json.loads(out, parse_int=str)["result"]
    assert [rows[0]["a"] + rows[0]["b"], rows[-1]["a"] + rows[-1]["b"]] == [want[1], want[1600]]
    code, out, _ = run_cli(capsys, "pfd", "--k", "1600", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [rows[1][2:], rows[-1][2:]] == [want[1], want[1600]]
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("argv, unbuffered, head", [
    (("--n", "10"), False, [b"1111111111\n", b"1111111112\n"]),
    (("--n", "10"), True, [b"1111111111\n", b"1111111112\n"]),
    # unbuffered stdout takes a short write of a chunk when the reader leaves;
    # B_9 words make 200-400 KB, several times the 64 KiB pipe buffer
    (("--n", "9", "--format", "json"), True, [b"{\n", b'  "command": "enumerate",\n']),
    (("--n", "9", "--format", "csv"), True, [b"word\n", b"111111111\n"]),
], ids=["plain", "plain_unbuffered", "json_unbuffered", "csv_unbuffered"])
def test_closed_stdout_exits_141_without_traceback(argv, unbuffered, head):
    # the buffered cases must not inherit PYTHONUNBUFFERED from the caller
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "seprec.cli", "enumerate", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert [proc.stdout.readline(), proc.stdout.readline()] == head
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert err == b""
    finally:
        proc.kill()
        proc.wait()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_stdout_leaves_no_file_open():
    # each call finds stdout a pipe whose reader has gone, and points it at
    # the null device; the descriptor it opens for that must not stay open
    script = ("import os, sys\nfrom seprec import cli\ncodes, fds = [], []\n"
              "for _ in range(3):\n"
              "    read, write = os.pipe()\n"
              "    os.dup2(write, sys.stdout.fileno())\n"
              "    os.close(read)\n"
              "    os.close(write)\n"
              "    fds.append(len(os.listdir('/proc/self/fd')))\n"
              "    codes.append(cli.main(['total', '--n', '4']))\n"
              "fds.append(len(os.listdir('/proc/self/fd')))\n"
              "print(codes, len(set(fds)), file=sys.stderr)\n")
    # stdout starts as a pipe too: a stream that found it seekable would not
    # take the pipes put below it
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == ("", "[141, 141, 141] 1\n")


def test_stdout_has_one_path():
    # every print goes to stderr, nothing writes to sys.stdout itself, and
    # sys.stdout.buffer is named only in the one stream that main makes
    tree = ast.parse(Path(cli.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            assert [ast.unparse(kw.value) for kw in node.keywords if kw.arg == "file"] == ["sys.stderr"]
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    stream, = (node for node in ast.walk(main) if isinstance(node, ast.Call)
               and ast.unparse(node.func) == "io.TextIOWrapper")

    def named(root, names):
        return [node for node in ast.walk(root) if isinstance(node, ast.Attribute) and ast.unparse(node) in names]

    assert not named(tree, ("sys.stdout.write", "sys.stdout.writelines", "sys.stdout.buffer.write"))
    assert named(tree, ("sys.stdout.buffer",)) == named(stream, ("sys.stdout.buffer",)) != []


def test_main_writes_to_a_text_stdout_without_bytes_below_it():
    # io.StringIO has no .buffer; main writes the text to it directly
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["total", "--n", "4"])
    assert (code, out.getvalue()) == (0, "50\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("total", "--n", "5"),  # the one write fails at the final flush
    ("enumerate", "--n", "9"),  # a write fails while the command runs
], ids=["total", "enumerate"])
def test_full_stdout_exits_2_with_one_line(argv, unbuffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "seprec.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"seprec: error: cannot write stdout: ")
    assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")


# The sha256 of each benchmark command's stdout as perfbench/freeze_digests.py
# froze it, so that a change of output bytes fails here, not only in the benchmark.
_BENCH_DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text())


@pytest.mark.parametrize("command", sorted(_BENCH_DIGESTS))
def test_output_matches_the_benchmark_digest(monkeypatch, reference, command):
    def run(stream):
        monkeypatch.setattr(sys, "stdout", stream)
        return cli.main(command.split())

    code, _, sha = reference.digest(run)
    assert (code, sha) == (0, _BENCH_DIGESTS[command])


def test_only_the_renderer_and_enumerate_read_the_format():
    tree = ast.parse(Path(cli.__file__).read_text())
    readers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Attribute) and ast.unparse(node) == "args.format"}
    assert readers == {"_render", "_cmd_enumerate"}


def test_total_egf_asserts_integrality(capsys, monkeypatch):
    monkeypatch.setattr(formulas, "egf_coeffs", lambda n: [Fraction(1, 2 * factorial(n))] * (n + 1))
    code, out, err = run_cli(capsys, "total", "--n", "3", "--method", "egf")
    assert (code, out) == (2, "")
    assert "not an integer" in err


# Regression pins, not goldens: sha256 digests of outputs that the benchmark
# digests above do not cover, so that a rewrite cannot change their bytes
# unnoticed.  LITERAL_PINS freeze the --literal variant, which has no oracle,
# so they say nothing about whether it is right.  FORMAT_PINS freeze the json
# and csv forms of asym, pfd and series, whose plain forms the benchmark
# digests pin.
LITERAL_PINS = {
    ("series", "--k", "6", "--a", "4", "--order", "15", "--literal"):
        "ee80bbd939a9f36554cd89717af8d8a05069760eba4dc0e2861e7fa36a44eb84",
    ("total", "--n", "14", "--method", "literal"):
        "da552bba47ab657a348e08cd5ec99aee60bf8d024c7ad83e9fd47d2cb51a334b",
    ("pfd", "--k", "20", "--literal", "--format", "json"):
        "78a7a588913afb5e74beb97fc0cd704fedc1e9618efd44037316f73097d0d324",
    # json prints each float in full, so a last-bit change of a ratio shows
    ("asym", "--n-list", "2,4,5,50,400,1000", "--literal", "--format", "json"):
        "3d481f8547c75d6685870ce40a1f4abaa88635e4da578a419709d6f4684c0647",
    ("series", "--k", "6", "--a", "4", "--order", "15", "--literal", "--format", "csv"):
        "50eb6cfdf4f02e560caa8cc228fce888a9eae0059b3cdfa395f71391d6d59463",
}


@pytest.mark.parametrize("argv", sorted(LITERAL_PINS))
def test_literal_output_regression_pin(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, cli.LITERAL_WARNING + "\n")
    assert hashlib.sha256(out.encode()).hexdigest() == LITERAL_PINS[argv]

FORMAT_PINS = {
    ("asym", "--n-list", "50,100", "--format", "json"):
        "f3f5235af7cae130e7ff12e1cea1fb2995555b3d22d190da1674f1d2231d2af4",
    ("asym", "--n-list", "50,100", "--format", "csv"):
        "0dfe3143d25277fb815546e9fbac0a96cdc358084759f3ca75441dcf89c94b23",
    ("pfd", "--k", "20", "--format", "json"):
        "ce889c9b439d186cd36a25f61ae905ddb089bcdc2e2881ab78ddd691a7b8912a",
    ("series", "--k", "4", "--a", "4", "--order", "10", "--format", "json"):
        "78312ad53ddf02d888772ee640c3b6540c0d56e12655200e2836dec7e6094e98",
}


@pytest.mark.parametrize("argv", sorted(FORMAT_PINS))
def test_format_output_regression_pin(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FORMAT_PINS[argv]


def test_json_round_trip(capsys):
    for argv in (
        ["total", "--n", "5", "--format", "json"],
        ["enumerate", "--n", "4", "--format", "json"],
        ["pfd", "--k", "4", "--format", "json"],
        ["series", "--k", "2", "--a", "2", "--order", "4", "--format", "json"],
        ["asym", "--n-list", "10,20", "--format", "json"],
        ["verify", "--max-n", "3", "--format", "json"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out


@pytest.mark.parametrize("argv, params", [
    (("enumerate", "--n", "3"), {"n": 3, "k": None}),
    (("enumerate", "--n", "3", "--k", "2"), {"n": 3, "k": 2}),
    (("stat", "--word", "121132"), {"word": "121132", "stats": "sep", "a": None}),
    (("stat", "--word", "121132", "--stats", "sep_a,records", "--a", "2"),
     {"word": "121132", "stats": "sep_a,records", "a": 2}),
    (("total", "--n", "5"), {"n": 5, "k": None, "method": "formula"}),
    (("total", "--n", "5", "--k", "2", "--method", "brute"), {"n": 5, "k": 2, "method": "brute"}),
    (("pfd", "--k", "3", "--oracle"), {"k": 3, "oracle": True, "literal": False}),
    (("series", "--k", "2", "--a", "2", "--order", "4", "--literal"),
     {"k": 2, "a": 2, "order": 4, "literal": True}),
    (("asym", "--n-list", "10,20"), {"n_list": "10,20", "literal": False}),
    (("verify", "--max-n", "3"), {"max_n": 3, "suites": "counts,roundtrip,stats_dual,totals,bell_total,"
                                                         "distribution,pfd,egf,integrality,rowsum"}),
    (("verify", "--max-n", "3", "--suites", " totals, counts,"), {"max_n": 3, "suites": "totals,counts"}),
])
def test_json_params(capsys, argv, params):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == params


def test_pfd_plain_and_oracle_agree(capsys):
    code, closed, _ = run_cli(capsys, "pfd", "--k", "5")
    code2, via_oracle, _ = run_cli(capsys, "pfd", "--k", "5", "--oracle")
    assert code == code2 == 0
    assert closed == via_oracle
    assert closed.splitlines()[0] == "5 1 1/6 5/12"


def test_pfd_csv(capsys):
    code, out, _ = run_cli(capsys, "pfd", "--k", "2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "m", "a_num", "a_den", "b_num", "b_den"]
    assert rows[1] == ["2", "1", "-1", "1", "-2", "1"]
    assert rows[2] == ["2", "2", "0", "1", "2", "1"]


def test_pfd_literal_warns_and_differs(capsys):
    code, literal, err = run_cli(capsys, "pfd", "--k", "3", "--literal")
    assert code == 0
    assert err == cli.LITERAL_WARNING + "\n"
    code2, validated, _ = run_cli(capsys, "pfd", "--k", "3")
    assert literal != validated


def test_pfd_literal_with_oracle_rejected(capsys):
    code, _, err = run_cli(capsys, "pfd", "--k", "3", "--literal", "--oracle")
    assert code == 2


def test_series_plain(capsys):
    code, out, _ = run_cli(capsys, "series", "--k", "2", "--a", "2", "--order", "3")
    assert code == 0
    assert out.splitlines() == ["0: 0", "1: 0", "2: 1*q^1", "3: 2*q^1 + 1*q^2"]


def test_series_csv(capsys):
    code, out, _ = run_cli(capsys, "series", "--k", "2", "--a", "2", "--order", "3",
                           "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "s", "count"]
    assert rows[1:] == [["2", "1", "1"], ["3", "1", "2"], ["3", "2", "1"]]


def test_asym_csv(capsys):
    code, out, _ = run_cli(capsys, "asym", "--n-list", "50,100", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,r,ratio,abs_err"
    assert len(lines) == 3


def test_asym_csv_sweeps_once(capsys, monkeypatch):
    seen = []
    estimate = asymptotics.estimate_ratio

    def counted(n):
        seen.append(n)
        return estimate(n)

    monkeypatch.setattr(asymptotics, "estimate_ratio", counted)
    code, out, _ = run_cli(capsys, "asym", "--n-list", "50,100", "--format", "csv")
    assert (code, seen) == (0, [50, 100])
    monkeypatch.undo()
    assert out == asymptotics.sweep_csv([50, 100])


@pytest.mark.parametrize("n_list, part", [("x", "x"), ("50, 1e2", "1e2")], ids=["word", "float"])
def test_asym_names_the_option_of_a_bad_n(capsys, n_list, part):
    code, out, err = run_cli(capsys, "asym", "--n-list", n_list)
    assert (code, out) == (2, "")
    assert err == f"seprec: error: --n-list: not an integer: {part!r}\n"


def test_asym_literal_warns(capsys):
    code, _, err = run_cli(capsys, "asym", "--n-list", "50", "--literal")
    assert code == 0
    assert err == cli.LITERAL_WARNING + "\n"


@pytest.mark.parametrize("argv", [
    ("pfd", "--k", "0", "--literal"),
    ("total", "--n", "0", "--method", "literal"),
    ("series", "--k", "3", "--a", "5", "--order", "4", "--literal"),
    ("asym", "--n-list", "x", "--literal"),
], ids=["pfd", "total", "series", "asym"])
def test_literal_failure_writes_only_its_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("seprec: error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_literal_warning_has_one_print():
    tree = ast.parse(Path(cli.__file__).read_text())
    uses = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "LITERAL_WARNING"]
    assert len(uses) == 2  # its definition and the one print in main


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "5")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("RESULT PASS")


def test_verify_suite_selection(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "4", "--suites", "counts,totals")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suites", "bogus,counts")
    assert code == 2
    assert err == f"seprec: error: unknown suites: bogus (use {', '.join(verify.SUITES)})\n"


def test_verify_max_n_guard(capsys):
    # the suites' own rule, also when only fixed-range suites run
    for max_n, suites in [(13, ",".join(verify.SUITES)), (0, "rowsum,pfd"), (13, "rowsum,pfd")]:
        code, out, err = run_cli(capsys, "verify", "--max-n", str(max_n), "--suites", suites)
        assert (code, out) == (2, "")
        assert err == f"seprec: error: need 1 <= max_n <= {oracle.MAX_TOTAL_N}, got {max_n}\n"


# fixed-range suite -> the module and function it calls first
FIRST_WORK = {
    "pfd": (formulas, "pfd_coeffs"),
    "egf": (formulas, "egf_coeffs"),
    "integrality": (counting, "bell_numbers"),
    "rowsum": (formulas, "total_sep_nk"),
}


@pytest.mark.parametrize("max_n", [0, 13])
@pytest.mark.parametrize("suite", list(FIRST_WORK))
def test_fixed_range_suites_refuse_a_bad_max_n_before_any_work(monkeypatch, suite, max_n):
    def work(*args, **kwargs):
        raise AssertionError(f"{suite} did work for max_n={max_n}")

    module, name = FIRST_WORK[suite]
    monkeypatch.setattr(module, name, work)
    with pytest.raises(ValueError, match=f"need 1 <= max_n <= {oracle.MAX_TOTAL_N}, got {max_n}"):
        verify.SUITES[suite](max_n)


def test_verify_runs_the_suites_of_the_verify_module():
    assert cli._SUITES is verify.SUITES
    assert cli._SUITE_NAMES == tuple(verify.SUITES)
    assert list(cli._SUITES) == ["counts", "roundtrip", "stats_dual", "totals", "bell_total",
                                 "distribution", "pfd", "egf", "integrality", "rowsum"]


def _last_into_block_one(to_blocks):
    """``to_blocks`` with position n moved into block 1 and an emptied block
    dropped, which changes every word that does not end in 1; a permutation
    of the blocks would change no word, as ``from_blocks`` sorts them."""
    def moved(word):
        n = len(word)
        blocks = [[i for i in block if i != n] for block in to_blocks(word)]
        blocks[0].append(n)
        return [block for block in blocks if block]
    return moved


# (suite, module, attribute, fault built from the original); each fault must
# make its suite, and with it the exit code, fail
FAULTS = [
    ("counts", counting, "stirling2", lambda f: lambda n, k: f(n, k) + 1),
    ("counts", setpart, "iterate_all", lambda f: lambda n: iter(list(f(n))[:-1])),
    # the first word once more at the end
    ("counts", setpart, "iterate_with_k", lambda f: lambda n, k: chain(f(n, k), islice(f(n, k), 1))),
    ("roundtrip", setpart, "from_blocks", lambda f: lambda blocks: tuple(sorted(f(blocks)))),
    ("roundtrip", setpart, "to_blocks", _last_into_block_one),
    ("stats_dual", stats, "sep_by_positions", lambda f: lambda w: f(w) + 1),
    # the last record of a word with more than one dropped
    ("stats_dual", stats, "records", lambda f: lambda w: f(w)[:-1] or f(w)),
    ("totals", formulas, "total_sep_nk", lambda f: lambda n, k: -f(n, k)),
    ("totals", formulas, "rational_series_totals", lambda f: lambda k, order: [t + 1 for t in f(k, order)]),
    ("totals", series, "sep_totals_by_length", lambda f: lambda k, order: [t + 1 for t in f(k, order)]),
    # one more in the census cell k = n
    ("totals", oracle, "brute_totals_by_k", lambda f: lambda n: {k: t + (k == n) for k, t in f(n).items()}),
    ("bell_total", formulas, "total_sep_n", lambda f: lambda n: f(n) + 1),
    ("bell_total", oracle, "brute_total", lambda f: lambda n: f(n) + 1),
    # the refuted variants in place of the validated routes
    ("distribution", series, "distribution_series", lambda f: variants.distribution_series),
    # one more word in the cell k = a = n
    ("distribution", oracle, "brute_distributions",
     lambda f: lambda n: {ka: {s: c + (ka == (n, n)) for s, c in d.items()} for ka, d in f(n).items()}),
    ("pfd", formulas, "pfd_coeffs", lambda f: variants.pfd_coeffs),
    ("pfd", formulas, "pfd_oracle", lambda f: variants.pfd_coeffs),
    ("pfd", formulas, "pfd_target_value", lambda f: lambda k, y: 2 * f(k, y)),
    ("pfd", formulas, "pfd_value", lambda f: lambda coeffs, y: 2 * f(coeffs, y)),
    ("egf", formulas, "total_sep_n", lambda f: lambda n: f(n) + 1),
    ("egf", formulas, "egf_coeffs", lambda f: lambda order: [2 * e for e in f(order)]),
    ("egf", formulas, "bell_shift_identities_check", lambda f: lambda order: {**f(order), "x_exp_2x": False}),
    ("integrality", counting, "bell_numbers", lambda f: lambda top: [b + 1 for b in f(top)]),
    ("integrality", formulas, "bell_total_row", lambda f: lambda n: (f(n)[0] + 1, *f(n)[1:])),
    ("rowsum", formulas, "total_sep_n", lambda f: lambda n: f(n) + 1),
    ("rowsum", formulas, "total_sep_nk", lambda f: lambda n, k: f(n, k) + (k == n)),
]


def _fault_ids():
    """A suite's first fault is named by the suite, a later one also by its
    attribute."""
    seen = set()
    for suite, _, name, _ in FAULTS:
        yield f"{suite}-{name}" if suite in seen else suite
        seen.add(suite)


@pytest.mark.parametrize("suite, module, name, fault", FAULTS, ids=list(_fault_ids()))
def test_verify_suite_fails_under_injected_fault(capsys, monkeypatch, suite, module, name, fault):
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    code, out, _ = run_cli(capsys, "verify", "--max-n", "4", "--suites", suite)
    assert code == 1
    assert out.startswith(f"FAIL {suite}: ")


def test_verify_totals_and_bell_total_share_one_census(capsys, monkeypatch):
    sizes = []
    census = oracle._census
    monkeypatch.setattr(oracle, "_census", lambda prefix, n: sizes.append(n) or census(prefix, n))
    oracle._totals.cache_clear()  # earlier tests may have walked these n already
    code, _, _ = run_cli(capsys, "verify", "--suites", "totals,bell_total", "--max-n", "6")
    assert code == 0
    assert sizes == [1, 2, 3, 4, 5, 6]


def test_verify_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "verify", "--max-n", "4")
    _, second, _ = run_cli(capsys, "verify", "--max-n", "4")
    assert first == second


def test_verify_ignores_the_workers_env(capsys, monkeypatch):
    _, plain, _ = run_cli(capsys, "verify", "--max-n", "4")
    monkeypatch.setenv("SEPREC_WORKERS", "zero")
    code, out, _ = run_cli(capsys, "verify", "--max-n", "4")
    assert code == 0
    assert out == plain


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_verify_repeated_suite_runs_once(capsys, fmt):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2", "--suites", "counts,rowsum,counts", "--format", fmt)
    assert code == 0
    _, once, _ = run_cli(capsys, "verify", "--max-n", "2", "--suites", "counts,rowsum", "--format", fmt)
    assert out == once
    if fmt == "json":
        assert json.loads(out)["params"]["suites"] == "counts,rowsum"
    else:
        assert out.endswith("RESULT PASS (2/2 suites)\n")


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize("suites", [",", ""], ids=["comma", "empty"])
def test_verify_with_no_suites_is_a_usage_error(capsys, fmt, suites):
    code, out, err = run_cli(capsys, "verify", "--max-n", "3", "--suites", suites, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == "seprec: error: no suites requested\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["total"])  # missing required --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2
