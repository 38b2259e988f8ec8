import csv
import hashlib
import io
import json
import sys
from decimal import Decimal
from fractions import Fraction
from math import factorial

import pytest

from seprec import asymptotics, cli, formulas


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


def test_total_brute_cap(capsys):
    code, _, err = run_cli(capsys, "total", "--n", "13", "--method", "brute")
    assert code == 2


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


def test_verify_detects_injected_sign_flip(capsys, monkeypatch):
    # a single flipped formula must flip the exit code
    original = formulas.total_sep_nk
    monkeypatch.setattr(formulas, "total_sep_nk", lambda n, k: -original(n, k))
    code, out, _ = run_cli(capsys, "verify", "--max-n", "4", "--suites", "totals")
    assert code == 1
    assert "FAIL" in out


def test_verify_detects_flipped_pfd_sign(capsys, monkeypatch):
    original = formulas.pfd_coeffs
    monkeypatch.setattr(
        formulas, "pfd_coeffs",
        lambda k, literal=False: original(k, literal=not literal),
    )
    code, out, _ = run_cli(capsys, "verify", "--suites", "pfd")
    assert code == 1
    assert "FAIL pfd" in out


def test_verify_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "verify", "--max-n", "4")
    _, second, _ = run_cli(capsys, "verify", "--max-n", "4")
    assert first == second


def test_workers_env_must_be_positive_int(capsys, monkeypatch):
    monkeypatch.setenv("SEPREC_WORKERS", "zero")
    code, _, err = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 2
    monkeypatch.setenv("SEPREC_WORKERS", "0")
    code, _, err = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 2


def test_workers_env_parallel_run(capsys, monkeypatch):
    monkeypatch.setenv("SEPREC_WORKERS", "2")
    code, out, _ = run_cli(capsys, "verify", "--max-n", "5", "--suites", "totals,bell_total")
    assert code == 0
    assert "RESULT PASS" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["total"])  # missing required --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2
