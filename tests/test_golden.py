"""Checks against the frozen golden files.

The files were produced by the oracle routes (enumeration, residue
computation); these tests pin both the oracles and the closed forms to that
frozen output.  Full-depth re-enumeration lives in the acceptance suite; here
the oracle side is re-run only on the cheap prefix of each file.
"""
import importlib.util
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from seprec.formulas import pfd_coeffs, pfd_oracle, total_sep_nk
from seprec.oracle import brute_distribution_a, brute_total_nk
from seprec.series import distribution_series

GOLDEN = Path(__file__).parent / "golden"
REGEN = Path(__file__).resolve().parent.parent / "scripts" / "regen_goldens.py"


def load_lines(name):
    return (Path(GOLDEN) / name).read_text().splitlines()


def test_totals_file_matches_closed_form():
    lines = load_lines("totals_n12.txt")
    assert len(lines) == 78  # one line per cell, 1 <= k <= n <= 12
    seen = set()
    for line in lines:
        n, k, total = map(int, line.split())
        seen.add((n, k))
        assert total_sep_nk(n, k) == total, (n, k)
    assert seen == {(n, k) for n in range(1, 13) for k in range(1, n + 1)}


def test_totals_file_matches_oracle_prefix():
    for line in load_lines("totals_n12.txt"):
        n, k, total = map(int, line.split())
        if n <= 8:
            assert brute_total_nk(n, k) == total


def test_distributions_file_matches_series():
    grouped = defaultdict(dict)
    for line in load_lines("distributions_n9.txt"):
        n, k, a, s, count = map(int, line.split())
        grouped[(n, k, a)][s] = count
    cells = {(n, k, a) for n in range(1, 10) for k in range(1, n + 1) for a in range(1, k + 1)}
    assert set(grouped) == cells
    for (n, k, a), dist in grouped.items():
        assert distribution_series(k, a, n).coefficient(n).to_dict() == dist, (n, k, a)


def test_distributions_file_matches_oracle_prefix():
    for line in load_lines("distributions_n9.txt"):
        n, k, a, s, count = map(int, line.split())
        if n <= 7:
            assert brute_distribution_a(n, k, a).get(s) == count


def test_pfd_file_matches_both_routes():
    lines = load_lines("pfd_k15.txt")
    assert len(lines) == 120  # one line per (k, m), k <= 15
    tables = {k: (pfd_coeffs(k), pfd_oracle(k)) for k in range(1, 16)}
    for line in lines:
        k, m, a_num, a_den, b_num, b_den = map(int, line.split())
        want = (Fraction(a_num, a_den), Fraction(b_num, b_den))
        closed, via_residues = tables[k]
        assert closed.row(m) == want
        assert via_residues.row(m) == want


def _regen_script():
    spec = importlib.util.spec_from_file_location("regen_goldens", REGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_goldens_regenerate_byte_identical(capsys):
    # the oracle routes, run in full, still write every golden file as frozen
    assert _regen_script().main(["--check"]) == 0
    assert capsys.readouterr().out.count("unchanged: ") == 3


def test_regen_check_names_each_golden_that_would_change_and_writes_nothing(tmp_path, monkeypatch, capsys):
    script = _regen_script()
    monkeypatch.setattr(script, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(script, "targets", lambda: {"same.txt": ["1 1 0"], "edited.txt": ["1 1 0"], "missing.txt": ["1"]})
    (tmp_path / "same.txt").write_text("1 1 0\n")
    (tmp_path / "edited.txt").write_text("1 1 1\n")
    assert script.main(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        f"unchanged: {tmp_path / 'same.txt'} (1 lines)",
        f"would change: {tmp_path / 'edited.txt'} (1 lines)",
        f"would change: {tmp_path / 'missing.txt'} (1 lines)",
    ]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["edited.txt", "same.txt"]
    assert (tmp_path / "edited.txt").read_text() == "1 1 1\n"
