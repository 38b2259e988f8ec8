"""Brute-force ground truth for the record statistics, by full enumeration.

Every closed form and series identity in this package is tested against the
totals and distributions computed here.  Enumeration is capped (n <= 12 for
totals, n <= 9 for distributions) to keep a full verification sweep on a
desktop within a minute-scale budget; the caps guard against runaway runtime,
not correctness.

Totals over all partitions of [n] reach ~1.9e8 already at n = 12, hence all
accumulators are plain Python ints.

Golden text formats (stable, whitespace-separated, sorted):

* totals:        ``n k total`` per line,
* distributions: ``n k a s count`` per line.

``brute_totals_by_k`` is the one pass over all words of [n] behind the sep
totals (``brute_total`` and ``totals_golden_lines`` read it): a depth-first
census with one leaf per word, which sums nothing in closed form.  The
one-worker census runs once per n in a process and is cached as a tuple;
every call still returns a fresh dict.  ``brute_distributions`` is the one
pass behind the ``sep_a`` distributions: a depth-first walk that carries the
letter sum before each record, again with one leaf per word.  Neither walk
uses ``setpart``'s generators.  ``brute_total_nk`` and
``brute_distribution_a`` keep their pruned per-cell streams through
``stats``: they are the references for the two walks per cell.
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
    strings that start with ``prefix``.

    A node carries (length, running max, letter sum, sep): a letter up to the
    max keeps sep, and the record max + 1 adds the letter sum before it.  The
    last letter is chosen in a loop, one leaf per word.
    """
    totals = [0] * (n + 1)

    def walk(i: int, biggest: int, letters: int, sep: int) -> None:
        if i == n - 1:
            for _ in range(biggest):  # the words whose last letter repeats one
                totals[biggest] += sep
            totals[biggest + 1] += sep + letters  # the word ending in a record
            return
        for v in range(1, biggest + 1):
            walk(i + 1, biggest, letters + v, sep)
        walk(i + 1, biggest + 1, letters + biggest + 1, sep + letters)

    if len(prefix) == n:
        totals[max(prefix)] += stats.sep(prefix)
    else:
        walk(len(prefix), max(prefix), sum(prefix), stats.sep(prefix))
    return totals


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
    ``{(k, a): brute_distribution_a(n, k, a)}`` for 1 <= a <= k <= n.

    A node carries (length, letter sum, the letter sum before each record so
    far): a letter up to the max keeps the records, and the record max + 1
    appends the letter sum before it.  The last letter is chosen in a loop,
    one leaf per word, and each leaf counts its k values of ``sep_a``.

    >>> brute_distributions(3)[2, 2]
    {1: 2, 2: 1}
    """
    if not 1 <= n <= MAX_DIST_N:
        raise ValueError(f"need 1 <= n <= {MAX_DIST_N}, got n={n}")
    # cells[k][a - 1] counts sep_a over the words with k blocks
    cells: list[list[dict[int, int]]] = [[{} for _ in range(k)] for k in range(n + 1)]

    def tally(seps: tuple[int, ...]) -> None:
        for cell, s in zip(cells[len(seps)], seps):
            cell[s] = cell.get(s, 0) + 1

    def walk(i: int, letters: int, seps: tuple[int, ...]) -> None:
        biggest = len(seps)
        if i == n - 1:
            for _ in range(biggest):  # the words whose last letter repeats one
                tally(seps)
            tally(seps + (letters,))  # the word ending in a record
            return
        for v in range(1, biggest + 1):
            walk(i + 1, letters + v, seps)
        walk(i + 1, letters + biggest + 1, seps + (letters,))

    walk(0, 0, ())  # from the empty word, whose first letter is its record 1
    return {(k, a): dict(sorted(cell.items()))
            for k in range(1, n + 1) for a, cell in enumerate(cells[k], start=1)}


def totals_golden_lines(max_n: int = MAX_TOTAL_N) -> list[str]:
    """Frozen-format total lines ``n k total`` for 1 <= k <= n <= max_n."""
    lines = []
    for n in range(1, max_n + 1):
        by_k = brute_totals_by_k(n)
        for k in range(1, n + 1):
            lines.append(f"{n} {k} {by_k[k]}")
    return lines


def distributions_golden_lines(max_n: int = MAX_DIST_N) -> list[str]:
    """Frozen-format distribution lines ``n k a s count`` for
    1 <= a <= k <= n <= max_n, with s ascending within each (n, k, a)."""
    lines = []
    for n in range(1, max_n + 1):
        for (k, a), dist in brute_distributions(n).items():
            for s, count in dist.items():
                lines.append(f"{n} {k} {a} {s} {count}")
    return lines
