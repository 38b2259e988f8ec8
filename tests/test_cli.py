import ast
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
from math import factorial
from pathlib import Path

import pytest

from seprec import asymptotics, cli, counting, formulas, oracle, series, setpart, stats, verify


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


def test_enumerate_one_long_word(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "1000", "--k", "1000")
    assert code == 0
    assert out == ",".join(map(str, range(1, 1001))) + "\n"
    # letters past 255 do not fit a byte, and letters past 9 are not one digit
    for n, k in ((300, 300), (12, 10)):
        for fmt in ("plain", "json", "csv"):
            code, out, _ = run_cli(capsys, "enumerate", "--n", str(n), "--k", str(k), "--format", fmt)
            assert code == 0
            assert out == _listing(fmt, n, k), (n, k, fmt)


def _word_text(word):
    """Text form of a word, built apart from setpart.format_word."""
    if max(word) <= 9:
        return "%d" * len(word) % word
    return ",".join(map(str, word))


def _grown(text, top):
    """Each canonical word one letter longer, as (text, largest letter), given
    a word's text and largest letter: the letters 1..top+1 in order.  The text
    takes commas once a letter passes 9."""
    for a in range(1, top + 2):
        if top > 9:
            yield text + ",%d" % a, max(top, a)
        elif a > 9:
            yield ",".join(text) + ",%d" % a, a
        else:
            yield text + "%d" % a, max(top, a)


def _grown_texts(text, top):
    """The texts alone of the words that ``_grown`` yields."""
    if top < 9:  # no letter passes 9
        return [text + digit for digit in "123456789"[:top + 1]]
    return [longer for longer, _ in _grown(text, top)]


def _canonical_words(n):
    """Functions that count the canonical words of length n >= 2 and stream
    their texts in lexicographic order, built apart from setpart: the
    (text, largest letter) pairs of length n - 2 are kept, and the last two
    letters are streamed."""
    pairs = [("", 0)]
    for _ in range(n - 2):
        pairs = [longer for pair in pairs for longer in _grown(*pair)]

    def count():
        return sum(top + 1 for pair in pairs for _, top in _grown(*pair))

    def texts():
        return (text for pair in pairs for longer in _grown(*pair) for text in _grown_texts(*longer))

    return count, texts


class _Words(list):
    """A list that json encodes from a fresh stream of ``texts()`` (json takes
    no generator), so that a long listing is never held whole."""

    def __init__(self, texts):
        super().__init__()
        self._texts = texts

    def __bool__(self):
        return True

    def __iter__(self):
        return self._texts()


def _write_listing(out, fmt, n, k):
    """Write the enumerate listing to ``out``, composed by json, csv or plain
    lines from each word's text, as a reference for the CLI's listing."""
    if k is None:
        count, texts = _canonical_words(n)
    else:
        def count():
            return sum(1 for _ in setpart.iterate_with_k(n, k))

        def texts():
            return map(_word_text, setpart.iterate_with_k(n, k))

    if fmt == "plain":
        out.writelines(w + "\n" for w in texts())
    elif fmt == "json":
        envelope = {"command": "enumerate", "params": {"n": n, "k": k},
                    "result": {"count": count(), "words": _Words(texts)}}
        json.dump(envelope, out, sort_keys=True, indent=2)
        out.write("\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["word"])
        writer.writerows(zip(texts()))


def _listing(fmt, n, k):
    """The reference listing as one string."""
    buf = io.StringIO()
    _write_listing(buf, fmt, n, k)
    return buf.getvalue()


class _HashSink(io.RawIOBase):
    """Binary sink that keeps only the sha256 and the size of what it takes."""

    def __init__(self):
        self.sha, self.size = hashlib.sha256(), 0

    def writable(self):
        return True

    def write(self, data):
        self.sha.update(data)
        self.size += len(data)
        return len(data)


def _digest(write):
    """The value of ``write(stream)``, and the size and sha256 of the text it
    wrote to the text stream."""
    sink = _HashSink()
    stream = io.TextIOWrapper(io.BufferedWriter(sink), encoding="ascii", newline="\n")
    value = write(stream)
    stream.flush()
    return value, sink.size, sink.sha.hexdigest()


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("n, k, chars_per_write", [
    (9, None, None),  # the plain B_9 listing makes 211,470 characters, four writes
    (9, 4, None),
    (8, None, 5),  # every write is longer than a chunk and goes out alone
    (8, 4, 5),
    (10, None, None),  # words with a letter 10 print with commas
    (10, 10, 5),  # csv quotes the one word, 1,2,...,10
    (11, 10, 5),  # comma words only, one per chunk
    (12, None, None),  # digit words then comma words, within and across last-letter runs
])
def test_enumerate_across_write_chunks(monkeypatch, fmt, n, k, chars_per_write):
    if chars_per_write is not None:
        monkeypatch.setattr(cli, "_CHARS_PER_WRITE", chars_per_write)
    argv = ["enumerate", "--n", str(n), "--format", fmt] + ([] if k is None else ["--k", str(k)])

    def run(stream):
        # the listings of B_12 words make 55-93 MB, so they are hashed as they come
        monkeypatch.setattr(sys, "stdout", stream)
        return cli.main(argv)

    code, size, sha = _digest(run)
    assert code == 0
    assert size > cli._CHARS_PER_WRITE
    assert _digest(lambda stream: _write_listing(stream, fmt, n, k)) == (None, size, sha)


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


def test_importing_the_cli_loads_no_process_pool():
    script = ("import sys\nimport seprec.cli\n"
              "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_stat_repeated_name_prints_once(capsys, fmt):
    code, out, _ = run_cli(capsys, "stat", "--word", "121132", "--stats", "sep,srec,sep", "--format", fmt)
    assert code == 0
    _, once, _ = run_cli(capsys, "stat", "--word", "121132", "--stats", "sep,srec", "--format", fmt)
    if fmt == "json":
        # the envelope echoes the request as given; the result holds each name once
        doc, want = json.loads(out), json.loads(once)
        assert doc["params"]["stats"] == "sep,srec,sep"
        assert doc["result"] == want["result"] == {"sep": 6, "srec": 8}
    else:
        assert out == once
        assert out.count("sep") == 1


def test_stat_sep_a_requires_a(capsys):
    code, _, err = run_cli(capsys, "stat", "--word", "121132", "--stats", "sep_a")
    assert code == 2
    assert "requires --a" in err


def test_stat_unknown_statistic(capsys):
    code, _, err = run_cli(capsys, "stat", "--word", "12", "--stats", "nope")
    assert code == 2


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
    assert "non-validated" in err
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


@pytest.mark.parametrize("argv", [
    ("total", "--n", formulas.MAX_BELL_TOTAL_N + 1),
    ("total", "--n", counting.MAX_STIRLING_N + 1, "--k", 2),
    ("total", "--n", oracle.MAX_TOTAL_N + 1, "--method", "brute"),
    ("total", "--n", series.MAX_TOTALS_ORDER + 1, "--method", "series"),
    ("total", "--n", series.MAX_TOTALS_ORDER + 1, "--k", 2, "--method", "series"),
    ("total", "--n", formulas.MAX_EGF_ORDER + 1, "--method", "egf"),
    ("series", "--k", 1, "--a", 1, "--order", series.MAX_ORDER + 1),
    ("pfd", "--k", formulas.MAX_PFD_K + 1),
    ("pfd", "--k", formulas.MAX_PFD_ORACLE_K + 1, "--oracle"),
    ("enumerate", "--n", setpart.MAX_WORD_LENGTH + 1),
], ids=["total", "total_k", "brute", "series", "series_k", "egf", "series_order", "pfd", "pfd_oracle",
        "enumerate_length"])
def test_one_past_a_size_budget_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *map(str, argv))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("seprec: error: ") and err.count("\n") == 1


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


def test_stdout_has_one_path():
    # every print goes to stderr, and only the sink's flush writes to stdout
    tree = ast.parse(Path(cli.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            assert [ast.unparse(kw.value) for kw in node.keywords if kw.arg == "file"] == ["sys.stderr"]
    sink = next(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == "_Stdout")
    flush = next(node for node in sink.body if isinstance(node, ast.FunctionDef) and node.name == "flush")

    def writes(root):
        return [node for node in ast.walk(root) if isinstance(node, ast.Attribute)
                and ast.unparse(node) in ("sys.stdout.buffer.write", "sys.stdout.write")]

    assert writes(flush) and writes(tree) == writes(flush)


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


# Regression pins, not goldens: the --literal variant has no oracle, so these
# sha256 digests only freeze its output, so that a rewrite of the series code
# cannot change it unnoticed.  They say nothing about whether it is right.
LITERAL_PINS = {
    ("series", "--k", "6", "--a", "4", "--order", "15", "--literal"):
        "ee80bbd939a9f36554cd89717af8d8a05069760eba4dc0e2861e7fa36a44eb84",
    ("total", "--n", "14", "--method", "literal"):
        "da552bba47ab657a348e08cd5ec99aee60bf8d024c7ad83e9fd47d2cb51a334b",
}


@pytest.mark.parametrize("argv", sorted(LITERAL_PINS))
def test_literal_output_regression_pin(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LITERAL_PINS[argv]


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
    assert "non-validated" in err
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

    def counted(n, literal=False):
        seen.append(n)
        return estimate(n, literal=literal)

    monkeypatch.setattr(asymptotics, "estimate_ratio", counted)
    code, out, _ = run_cli(capsys, "asym", "--n-list", "50,100", "--format", "csv")
    assert (code, seen) == (0, [50, 100])
    monkeypatch.undo()
    assert out == asymptotics.sweep_csv([50, 100])


def test_asym_literal_warns(capsys):
    code, _, err = run_cli(capsys, "asym", "--n-list", "50", "--literal")
    assert code == 0
    assert "non-validated" in err


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
    code, _, err = run_cli(capsys, "verify", "--suites", "bogus")
    assert code == 2


def test_verify_max_n_guard(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-n", "13")
    assert code == 2


def test_verify_runs_the_suites_of_the_verify_module():
    assert cli._SUITES is verify.SUITES
    assert list(cli._SUITES) == ["counts", "roundtrip", "stats_dual", "totals", "bell_total",
                                 "distribution", "pfd", "egf", "integrality", "rowsum"]


# suite -> (module, attribute, fault built from the original); one fault each
# must make its suite, and with it the exit code, fail
FAULTS = {
    "counts": (counting, "stirling2", lambda f: lambda n, k: f(n, k) + 1),
    "roundtrip": (setpart, "from_blocks", lambda f: lambda blocks: tuple(sorted(f(blocks)))),
    "stats_dual": (stats, "sep_by_positions", lambda f: lambda w: f(w) + 1),
    "totals": (formulas, "total_sep_nk", lambda f: lambda n, k: -f(n, k)),
    "bell_total": (formulas, "total_sep_n", lambda f: lambda n: f(n) + 1),
    "distribution": (series, "distribution_series",
                     lambda f: lambda k, a, order, literal=False: f(k, a, order, literal=not literal)),
    "pfd": (formulas, "pfd_coeffs", lambda f: lambda k, literal=False: f(k, literal=not literal)),
    "egf": (formulas, "total_sep_n", lambda f: lambda n: f(n) + 1),
    "integrality": (counting, "bell_numbers", lambda f: lambda top: [b + 1 for b in f(top)]),
    "rowsum": (formulas, "total_sep_n", lambda f: lambda n: f(n) + 1),
}


@pytest.mark.parametrize("suite", list(FAULTS))
def test_verify_suite_fails_under_injected_fault(capsys, monkeypatch, suite):
    module, name, fault = FAULTS[suite]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    code, out, _ = run_cli(capsys, "verify", "--max-n", "4", "--suites", suite)
    assert code == 1
    assert out.startswith(f"FAIL {suite}: ")


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
