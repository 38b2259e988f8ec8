"""Exact counting kernels: binomials, Stirling numbers of the second kind, Bell numbers.

All values are plain Python integers, so they stay exact at any size.  The
Stirling and Bell tables are memoized module-level triangles that grow on
demand.  Growth holds ``_grow_lock`` and re-checks the length under it, so
threads that grow a table at once append each row exactly once; a row is
complete before it is appended and never mutated after, so a lookup in a
table that is already long enough takes no lock.

Both tables have a size budget.  The Stirling rows up to n hold O(n^3) bits
(at n = 1000, about 230 MiB, built in 0.4 s); the Bell triangle up to B_3003
takes about 4 s cold.  Callers that need a few values far up, rather than a
prefix, compute them without a table: :func:`bell_combination` gives a
combination of B_n..B_{n+3} at n = 3000 (what ``formulas.total_sep_n`` reads
at its budget) in about 0.4 s, and :func:`stirling2_single` gives one
S(n, k).  Both are power sums sum_j weight_j * j^n, evaluated by one
least-prime-factor sieve (:func:`_power_sum`).
"""
from __future__ import annotations

import threading
from math import comb, factorial, isqrt

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


def _window_weights(top: int):
    """Yield (j, C(top, j) * D_{top-j}) for j = top, top-1, ..., 0, where D is
    the derangement numbers (D_t = t*D_{t-1} + (-1)^t).

    The weights follow a_top = 1 and a_j = (j+1)*a_{j+1} + (-1)^(top-j) C(top, j),
    so each step costs one small-by-big product instead of C(top, j) * D_{top-j}.
    """
    weight = c = 1
    yield top, weight
    for j in range(top - 1, -1, -1):
        c = c * (j + 1) // (top - j)
        weight = (j + 1) * weight + (c if (top - j) % 2 == 0 else -c)
        yield j, weight


def _least_prime_factors(top: int) -> list[int]:
    """lpf[j] = the least prime factor of j for 2 <= j <= top (lpf[0] = 0,
    lpf[1] = 1), by the sieve of Eratosthenes."""
    lpf = list(range(top + 1))
    for p in range(2, isqrt(top) + 1):
        if lpf[p] == p:
            for m in range(p * p, top + 1, p):
                if lpf[m] == m:
                    lpf[m] = p
    return lpf


def _power_sum(n: int, top: int, weights) -> int:
    """sum_j weight_j * j^n over the pairs (j, weight_j) that ``weights``
    yields for j = top, top-1, ..., 0 (with 0^0 = 1).

    Each j is split as p * (j/p) with p its least prime factor, and
    j^n = p^n * (j/p)^n: walking j downward, a composite j pushes its
    accumulated weight times p^n onto j/p, which comes later.  For p = 2
    that is a shift; an odd p is at most sqrt(top), so its power is cached.
    Only a prime j pays for a full j^n and one big product.
    """
    lpf = _least_prime_factors(top)
    pending = [0] * (top + 1)
    powers: dict[int, int] = {}
    total = 0
    for j, weight in weights:
        weight += pending[j]
        pending[j] = 0
        if not weight:
            continue
        p = lpf[j]
        if p == j:  # a prime, or j = 0 or 1
            total += weight * j**n
        elif p == 2:
            pending[j >> 1] += weight << n
        else:
            power = powers.get(p)
            if power is None:
                power = powers[p] = p**n
            pending[j // p] += weight * power
    return total


def bell_combination(n: int, coeffs: tuple[int, ...]) -> int:
    """sum_h coeffs[h] * B_{n+h} from one power sum, without a table.

    With M = n + len(coeffs) - 1 and D the derangement numbers,

        M! * B_m = sum_{j=0..M} C(M, j) * D_{M-j} * j^m    for every m <= M,

    since S(m, k) = 0 for k > M.  So the combination is one power sum
    sum_j C(M, j) * D_{M-j} * c(j) * j^n with the small weight
    c(j) = sum_h coeffs[h] * j^h, evaluated by :func:`_power_sum`.  The sum
    is asserted divisible by M! before it is returned.

    >>> bell_combination(3, (0, 0, 0, 1)), bell_combination(3, (1, 1))
    (203, 20)
    """
    if n < 0 or not coeffs:
        raise ValueError(f"need n >= 0 and at least one coefficient, got n={n}, coeffs={coeffs!r}")
    top = n + len(coeffs) - 1
    if top > MAX_BELL_N:
        raise ValueError(f"need n + len(coeffs) - 1 <= {MAX_BELL_N} (Bell number budget), got {top}")
    weights = ((j, weight * sum(a * j**h for h, a in enumerate(coeffs)))
               for j, weight in _window_weights(top))
    value, rest = divmod(_power_sum(n, top, weights), factorial(top))
    if rest:
        raise ArithmeticError(f"power sum for the Bell combination at n={n} is not divisible by {top}!")
    return value


def stirling2_single(n: int, k: int) -> int:
    """One Stirling number S(n, k) from the alternating power sum

        k! * S(n, k) = sum_{j=0..k} (-1)^(k-j) C(k, j) j^n,

    asserted divisible by k!.  It builds no table, and keeps the budget of
    :func:`stirling2`.

    >>> [stirling2_single(4, k) for k in range(6)]
    [0, 1, 7, 6, 1, 0]
    """
    if n < 0 or k < 0:
        raise ValueError(f"stirling2 arguments must be nonnegative, got ({n}, {k})")
    if n > MAX_STIRLING_N:
        raise ValueError(f"need n <= {MAX_STIRLING_N} for S(n, k) (Stirling table budget), got n={n}")
    if k > n:
        return 0
    signed = ((j, comb(k, j) if (k - j) % 2 == 0 else -comb(k, j)) for j in range(k, -1, -1))
    value, rest = divmod(_power_sum(n, k, signed), factorial(k))
    if rest:
        raise ArithmeticError(f"power sum for S({n}, {k}) is not divisible by {k}!")
    return value
