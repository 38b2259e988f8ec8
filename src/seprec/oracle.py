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
totals (``brute_total`` and ``totals_golden_lines`` read it).  Its per-k
totals are kept in one process-wide memo keyed ``(n, workers)``, so the
``totals`` and ``bell_total`` verify suites enumerate each n once; the key
includes ``workers`` so that a call with another worker count runs its own
path.  Each call returns a fresh dict.  ``brute_total_nk`` keeps its pruned per-cell
stream and no memo: it is the reference for ``brute_totals_by_k`` per cell.
Two threads that miss the same key both enumerate it, which wastes work but
stores equal tuples.  The memo keeps what the enumeration produced, so a test
that patches ``setpart`` or ``stats`` to fault the enumeration must first
swap in an empty memo: ``monkeypatch.setattr(oracle, "_totals_memo", {})``.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from . import setpart, stats

MAX_TOTAL_N = 12
MAX_DIST_N = 9

# (n, workers) -> (total for k = 1, ..., total for k = n)
_totals_memo: dict[tuple[int, int], tuple[int, ...]] = {}


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
    computed in a single pass over all partitions of [n], memoized.

    ``workers > 1`` fans the pass out over depth-4 prefix sub-streams; the
    reduction is exact integer addition, so the result does not depend on the
    worker count.
    """
    if not 1 <= n <= MAX_TOTAL_N:
        raise ValueError(f"need 1 <= n <= {MAX_TOTAL_N}, got n={n}")
    key = (n, workers)
    if key not in _totals_memo:
        if workers > 1 and n > 2:
            depth = min(4, n - 1)  # B_4 = 15 chunks at full depth, enough to balance
            chunks = [(tuple(p), n) for p, _ in setpart.split_by_prefix(n, depth)]
            totals = [0] * (n + 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for part in pool.map(_prefix_totals, chunks):
                    for k, t in enumerate(part):
                        totals[k] += t
        else:
            totals = _stream_totals(setpart.iterate_all(n), n)
        _totals_memo[key] = tuple(totals[1:])
    return dict(enumerate(_totals_memo[key], start=1))


def _stream_totals(words, n: int) -> list[int]:
    sep = stats.sep
    totals = [0] * (n + 1)
    for w in words:
        totals[max(w)] += sep(w)
    return totals


def _prefix_totals(chunk: tuple[tuple[int, ...], int]) -> list[int]:
    prefix, n = chunk
    return _stream_totals(setpart.complete_prefix(prefix, n), n)


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
        for k in range(1, n + 1):
            for a in range(1, k + 1):
                for s, count in brute_distribution_a(n, k, a).items():
                    lines.append(f"{n} {k} {a} {s} {count}")
    return lines
