"""Brute-force ground truth for the record statistics, by full enumeration.

Every closed form and series identity in this package is tested against the
totals and distributions computed here.  Enumeration is capped (n <= 12 for
totals, n <= 9 for distributions); the caps guard against runaway runtime,
not correctness.  On a 2-vCPU machine with Python 3.11 the census takes
0.02, 0.1 and 0.4-0.6 s at n = 10, 11, 12, and the ``sep_a`` table 0.01 s
at n = 9; past its cap it would take 0.04-0.08, 0.3-0.5 and 2.0-2.9 s.

Totals over all partitions of [n] reach ~1.9e8 already at n = 12, hence all
accumulators are plain Python ints.

``brute_totals_by_k`` (which ``brute_total`` reads) and
``brute_distributions`` are two tables filled from the leaves of one
depth-first walk over the words of [n], ``_record_walk``.  It counts the
words that share their letter sums before each record, and sums nothing in
closed form.  The one-worker census runs once per n in a process and is
cached as a tuple; every call still returns a fresh dict.  The walk uses no
``setpart`` generator.  ``brute_total_nk`` and ``brute_distribution_a`` keep
their pruned per-cell streams through ``stats``: they are the references
for the walk per cell.
"""
from __future__ import annotations

from functools import cache

from . import setpart, stats

MAX_TOTAL_N = 12
MAX_DIST_N = 9


def brute_total_nk(n: int, k: int) -> int:
    """Sum of ``sep`` over all partitions of [n] with exactly ``k`` blocks,
    by enumerating them.

    >>> brute_total_nk(3, 2)
    4
    >>> brute_total_nk(4, 3)
    29
    >>> brute_total_nk(5, 1)
    0
    """
    if not 1 <= k <= n <= MAX_TOTAL_N:
        raise ValueError(f"need 1 <= k <= n <= {MAX_TOTAL_N}, got k={k}, n={n}")
    return sum(map(stats.sep, setpart.iterate_with_k(n, k)))


def brute_total(n: int) -> int:
    """Sum of ``sep`` over all set partitions of [n], by enumeration.

    >>> [brute_total(n) for n in range(1, 5)]
    [0, 1, 8, 50]
    """
    return sum(brute_totals_by_k(n).values())


def brute_totals_by_k(n: int, workers: int = 1) -> dict[int, int]:
    """Per-block-count totals {k: sum of sep over partitions with k blocks}
    computed in a single pass over all partitions of [n].

    ``workers > 1`` hands the depth-4 prefixes to a process pool, at most one
    worker per prefix; the reduction is exact integer addition, so the result
    does not depend on the worker count.  The pool path is not cached.
    """
    if not 1 <= n <= MAX_TOTAL_N:
        raise ValueError(f"need 1 <= n <= {MAX_TOTAL_N}, got n={n}")
    if workers > 1 and n > 2:
        from concurrent.futures import ProcessPoolExecutor  # imported here: it costs every CLI start

        prefixes = list(setpart.iterate_all(min(4, n - 1)))  # B_4 = 15 at full depth
        with ProcessPoolExecutor(max_workers=min(workers, len(prefixes))) as pool:
            totals = [sum(col) for col in zip(*pool.map(_census, prefixes, [n] * len(prefixes)))]
    else:
        totals = _totals(n)
    return dict(enumerate(totals[1:], start=1))


@cache
def _totals(n: int) -> tuple[int, ...]:
    """The one-worker census of [n], walked once per n in a process."""
    return tuple(_census((1,), n))


def _census(prefix: tuple[int, ...], n: int) -> list[int]:
    """Sep totals by block count over the length-``n`` restricted growth
    strings that start with ``prefix``: the record walk's leaves, each sep
    weighted by its count of words."""
    totals = [0] * (n + 1)

    def leaf(seps: tuple[int, ...], sep: int, count: int) -> None:
        totals[len(seps)] += count * sep

    _record_walk(prefix, n, leaf)
    return totals


def _record_walk(prefix: tuple[int, ...], n: int, leaf) -> None:
    """Depth-first walk over the length-``n`` restricted growth strings that
    start with ``prefix``, calling ``leaf(seps, sep, count)`` for ``count``
    words with the same letter sum before each record, ``seps``, and their
    total, sep.

    A node carries (length, letter sum, seps, sep): a letter up to the max
    keeps the records, and the record max + 1 appends the letter sum before
    it.  At the last letter the k words that repeat one of 1..k share one
    leaf, and the word that ends in record k + 1 gets its own.
    """
    def walk(i: int, letters: int, seps: tuple[int, ...], sep: int) -> None:
        biggest = len(seps)
        if i == n - 1:
            leaf(seps, sep, biggest)  # the words whose last letter repeats one
            leaf(seps + (letters,), sep + letters, 1)  # the word ending in a record
            return
        for v in range(1, biggest + 1):
            walk(i + 1, letters + v, seps, sep)
        walk(i + 1, letters + biggest + 1, seps + (letters,), sep + letters)

    seps = tuple(stats.sep_a(prefix, a) for a in range(1, max(prefix) + 1))
    if len(prefix) == n:
        leaf(seps, sum(seps), 1)
    else:
        walk(len(prefix), sum(prefix), seps, sum(seps))


def brute_distribution_a(n: int, k: int, a: int) -> dict[int, int]:
    """Distribution {s: count} of ``sep_a`` over all partitions of [n] with
    exactly ``k`` blocks.  The counts sum to S(n, k).

    >>> brute_distribution_a(3, 2, 2)
    {1: 2, 2: 1}
    >>> brute_distribution_a(2, 2, 2)
    {1: 1}
    """
    if not 1 <= a <= k <= n <= MAX_DIST_N:
        raise ValueError(f"need 1 <= a <= k <= n <= {MAX_DIST_N}, got a={a}, k={k}, n={n}")
    counts: dict[int, int] = {}
    sep_a = stats.sep_a
    for w in setpart.iterate_with_k(n, k):
        s = sep_a(w, a)
        counts[s] = counts.get(s, 0) + 1
    return dict(sorted(counts.items()))


def brute_distributions(n: int) -> dict[tuple[int, int], dict[int, int]]:
    """Every ``sep_a`` distribution of [n] from one walk over its words:
    ``{(k, a): brute_distribution_a(n, k, a)}`` for 1 <= a <= k <= n.  Each
    leaf of the record walk adds its count of words to the k cells its
    ``seps`` name.

    >>> brute_distributions(3)[2, 2]
    {1: 2, 2: 1}
    """
    if not 1 <= n <= MAX_DIST_N:
        raise ValueError(f"need 1 <= n <= {MAX_DIST_N}, got n={n}")
    # cells[k][a - 1] counts sep_a over the words with k blocks
    cells: list[list[dict[int, int]]] = [[{} for _ in range(k)] for k in range(n + 1)]

    def leaf(seps: tuple[int, ...], sep: int, count: int) -> None:
        for cell, s in zip(cells[len(seps)], seps):
            cell[s] = cell.get(s, 0) + count

    _record_walk((1,), n, leaf)
    return {(k, a): dict(sorted(cell.items()))
            for k in range(1, n + 1) for a, cell in enumerate(cells[k], start=1)}
