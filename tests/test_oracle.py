from collections import Counter

import pytest

from seprec import cli, oracle, setpart
from seprec.counting import bell, stirling2
from seprec.oracle import (
    MAX_DIST_N,
    MAX_TOTAL_N,
    brute_distribution_a,
    brute_total,
    brute_total_nk,
    brute_totals_by_k,
    distributions_golden_lines,
    totals_golden_lines,
)


def test_total_nk_spot_values():
    assert brute_total_nk(3, 2) == 4
    assert brute_total_nk(4, 3) == 29
    assert brute_total_nk(4, 2) == 11
    assert brute_total_nk(4, 4) == 10
    for n in range(1, 7):
        assert brute_total_nk(n, 1) == 0


def test_total_spot_values():
    assert brute_total(1) == 0
    assert brute_total(2) == 1
    assert brute_total(3) == 8
    assert brute_total(4) == 50


def test_total_is_sum_over_block_counts():
    for n in range(1, 9):
        assert brute_total(n) == sum(brute_total_nk(n, k) for k in range(1, n + 1))


def test_totals_by_k_matches_per_cell():
    for n in range(1, 9):
        by_k = brute_totals_by_k(n)
        assert set(by_k) == set(range(1, n + 1))
        for k, total in by_k.items():
            assert total == brute_total_nk(n, k)


def test_totals_by_k_parallel_matches_sequential(monkeypatch):
    monkeypatch.setattr(oracle, "_totals_memo", {})
    fanouts = []
    split = setpart.split_by_prefix

    def counted(n, depth):
        fanouts.append(n)
        return split(n, depth)

    monkeypatch.setattr(setpart, "split_by_prefix", counted)
    for n in (5, 7):
        serial = brute_totals_by_k(n)
        assert brute_totals_by_k(n, workers=2) == serial
    # a serial result in the memo does not stand in for the two-worker pass
    assert fanouts == [5, 7]


def test_totals_by_k_returns_a_fresh_dict():
    first = brute_totals_by_k(6)
    want = dict(first)
    first[2] += 1
    del first[3]
    assert brute_totals_by_k(6) == want


def test_verify_totals_suites_enumerate_each_n_once(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "_totals_memo", {})
    words = Counter()
    iterate_all = setpart.iterate_all

    def counted(n):
        for w in iterate_all(n):
            words[n] += 1
            yield w

    monkeypatch.setattr(setpart, "iterate_all", counted)
    assert cli.main(["verify", "--suites", "totals,bell_total", "--max-n", "6"]) == 0
    assert capsys.readouterr().out.endswith("RESULT PASS (2/2 suites)\n")
    assert words == {n: bell(n) for n in range(1, 7)}


def test_range_guards():
    with pytest.raises(ValueError):
        brute_total(MAX_TOTAL_N + 1)
    with pytest.raises(ValueError):
        brute_total(0)
    with pytest.raises(ValueError):
        brute_total_nk(MAX_TOTAL_N + 1, 2)
    with pytest.raises(ValueError):
        brute_total_nk(4, 5)
    with pytest.raises(ValueError):
        brute_distribution_a(MAX_DIST_N + 1, 2, 1)
    with pytest.raises(ValueError):
        brute_distribution_a(4, 2, 3)


def test_distribution_spot_values():
    assert brute_distribution_a(3, 2, 2) == {1: 2, 2: 1}
    assert brute_distribution_a(2, 2, 2) == {1: 1}
    # only the word 12...k when n = k: all mass at the record offset
    for k in range(1, 6):
        assert brute_distribution_a(k, k, k) == {k * (k - 1) // 2: 1}


def test_distribution_counts_sum_to_stirling():
    for n in range(1, 8):
        for k in range(1, n + 1):
            for a in range(1, k + 1):
                dist = brute_distribution_a(n, k, a)
                assert sum(dist.values()) == stirling2(n, k)
                assert all(s >= 0 for s in dist)


def test_distribution_keys_sorted():
    dist = brute_distribution_a(6, 3, 3)
    assert list(dist) == sorted(dist)


def test_totals_golden_format():
    lines = totals_golden_lines(4)
    assert lines[0] == "1 1 0"
    assert "3 2 4" in lines
    assert "4 3 29" in lines
    assert len(lines) == 1 + 2 + 3 + 4


def test_distributions_golden_format():
    lines = distributions_golden_lines(3)
    assert "3 2 2 1 2" in lines
    assert "3 2 2 2 1" in lines
    for line in lines:
        n, k, a, s, count = map(int, line.split())
        assert 1 <= a <= k <= n <= 3
        assert count > 0 and s >= 0
