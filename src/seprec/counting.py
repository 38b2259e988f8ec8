"""Exact counting kernels: binomials, Stirling numbers of the second kind, Bell numbers.

All values are plain Python integers, so they stay exact at any size.  The
Stirling and Bell tables are memoized module-level triangles that grow on
demand.  Growth holds ``_grow_lock`` and re-checks the length under it, so
threads that grow a table at once append each row exactly once; a row is
complete before it is appended and never mutated after, so a lookup in a
table that is already long enough takes no lock.

Both tables have a size budget.  The Stirling rows up to n hold O(n^3) bits
(at n = 1000, about 230 MiB, built in 0.4 s); B_3003, the Bell number that
``formulas.total_sep_n`` reads at its budget n = 3000, takes about 4 s cold.
"""
from __future__ import annotations

import threading
from math import comb

_grow_lock = threading.Lock()

MAX_STIRLING_N = 1000
MAX_BELL_N = 3003

# Stirling triangle rows: _stirling[n][k] = S(n, k) for 0 <= k <= n.
_stirling: list[list[int]] = [[1]]

# Bell numbers B_0, B_1, ... and the last computed row of the Bell triangle,
# kept so the triangle can be extended incrementally.
_bell: list[int] = [1]
_bell_row: list[int] = [1]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k > n.

    >>> binomial(5, 0)
    1
    >>> binomial(4, 2)
    6
    >>> binomial(3, 7)
    0
    """
    if n < 0 or k < 0:
        raise ValueError(f"binomial arguments must be nonnegative, got ({n}, {k})")
    return comb(n, k)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k): partitions of [n] into k blocks.

    Values with k > n, or k = 0 with n > 0, are zero.

    >>> stirling2(3, 3)
    1
    >>> stirling2(3, 2)
    3
    >>> stirling2(4, 2)
    7
    """
    if n < 0 or k < 0:
        raise ValueError(f"stirling2 arguments must be nonnegative, got ({n}, {k})")
    if n > MAX_STIRLING_N:
        raise ValueError(f"need n <= {MAX_STIRLING_N} for S(n, k) (Stirling table budget), got n={n}")
    if k > n:
        return 0
    if len(_stirling) <= n:
        with _grow_lock:
            while len(_stirling) <= n:
                prev = _stirling[-1]
                m = len(_stirling)
                # S(m, k) = k*S(m-1, k) + S(m-1, k-1); boundary k=0 and k=m.
                row = [0]
                for j in range(1, m):
                    row.append(j * prev[j] + prev[j - 1])
                row.append(1)
                _stirling.append(row)
    return _stirling[n][k]


def bell(n: int) -> int:
    """Bell number B_n: the number of set partitions of [n], via the Bell triangle.

    >>> [bell(n) for n in range(6)]
    [1, 1, 2, 5, 15, 52]
    """
    if n < 0:
        raise ValueError(f"bell argument must be nonnegative, got {n}")
    if n > MAX_BELL_N:
        raise ValueError(f"need n <= {MAX_BELL_N} for B_n (Bell table budget), got n={n}")
    global _bell_row
    if len(_bell) <= n:
        with _grow_lock:
            while len(_bell) <= n:
                row = [_bell_row[-1]]
                for x in _bell_row:
                    row.append(row[-1] + x)
                _bell.append(row[0])
                _bell_row = row
    return _bell[n]
