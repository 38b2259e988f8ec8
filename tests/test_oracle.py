import concurrent.futures

import pytest

from seprec import oracle, setpart, stats
from seprec.counting import stirling2
from seprec.oracle import (
    MAX_DIST_N,
    MAX_TOTAL_N,
    brute_distribution_a,
    brute_distributions,
    brute_total,
    brute_total_nk,
    brute_totals_by_k,
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


def test_totals_by_k_match_per_word_statistics():
    for n in range(1, 10):
        by_sep = [0] * (n + 1)
        by_positions = [0] * (n + 1)
        for w in setpart.iterate_all(n):
            by_sep[max(w)] += stats.sep(w)
            by_positions[max(w)] += stats.sep_by_positions(w)
        assert by_sep == by_positions
        assert brute_totals_by_k(n) == dict(enumerate(by_sep[1:], start=1))


def test_totals_by_k_parallel_matches_sequential():
    for n in (5, 7):
        assert brute_totals_by_k(n, workers=2) == brute_totals_by_k(n)


def test_totals_by_k_pool_has_at_most_one_worker_per_prefix(monkeypatch):
    sizes = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    for n in (3, 4, 8):
        assert brute_totals_by_k(n, workers=10**6) == brute_totals_by_k(n)
    # depth-2, depth-3 and depth-4 prefixes: B_2, B_3 and B_4 chunks
    assert sizes == [2, 5, 15]


def test_census_from_prefixes_partitions_the_census():
    # depth n gives whole-word prefixes, each one leaf of its own
    for n in range(1, 8):
        whole = oracle._census((1,), n)
        for d in range(1, n + 1):
            parts = [oracle._census(p, n) for p in setpart.iterate_all(d)]
            assert [sum(col) for col in zip(*parts)] == whole, (n, d)


def test_totals_by_k_returns_a_fresh_dict():
    first = brute_totals_by_k(6)
    want = dict(first)
    first[2] += 1
    del first[3]
    assert brute_totals_by_k(6) == want


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


def test_distributions_match_per_cell():
    for n in range(1, MAX_DIST_N + 1):
        table = brute_distributions(n)
        assert list(table) == [(k, a) for k in range(1, n + 1) for a in range(1, k + 1)]
        for (k, a), dist in table.items():
            assert dist == brute_distribution_a(n, k, a), (n, k, a)
            assert list(dist) == sorted(dist)
            assert sum(dist.values()) == stirling2(n, k)


def test_distributions_range_guard():
    with pytest.raises(ValueError):
        brute_distributions(MAX_DIST_N + 1)
    with pytest.raises(ValueError):
        brute_distributions(0)


def test_distribution_keys_sorted():
    dist = brute_distribution_a(6, 3, 3)
    assert list(dist) == sorted(dist)

