"""Exact counting kernels: Stirling numbers of the second kind, Bell numbers.

All values are plain Python integers, so they stay exact at any size.  Every
function here is pure: nothing is kept between calls.  Stirling numbers come
from one recurrence: :func:`stirling2_column` gives S(0..top, k) from the
Stirling recurrence on the band m - j <= top - k that the column needs, and
:func:`stirling2` reads one entry of that column.  The power sums serve Bell
numbers only: a single Bell value far up is a power sum
sum_j weight_j * j^n, evaluated by one least-prime-factor sieve
(:func:`_power_sum`): :func:`bell` and :func:`bell_combination` sum over
j <= n + 3 at most (a combination of B_n..B_{n+3} at n = 3000, what
``formulas.total_sep_n`` reads at its budget, takes about 0.4 s).  A run of
consecutive values comes from one pass of the Bell triangle:
:func:`bell_numbers` gives B_0..B_top.

Each has a size budget: n <= ``MAX_STIRLING_N`` for Stirling numbers and
n <= ``MAX_BELL_N`` for Bell numbers.  :func:`stirling2_column` alone checks
the Stirling arguments and budget, so every caller reads the same messages.
"""
from __future__ import annotations

from itertools import accumulate
from math import factorial, isqrt

MAX_STIRLING_N = 1000
MAX_BELL_N = 3003


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
    """sum_h coeffs[h] * B_{n+h} from one power sum.

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


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k): partitions of [n] into k
    blocks, as ``stirling2_column(k, n)[n]``, so every Stirling number comes
    from the one recurrence.  Values with k > n, or k = 0 with n > 0, are
    zero.

    >>> [stirling2(4, k) for k in range(6)]
    [0, 1, 7, 6, 1, 0]
    """
    return stirling2_column(k, n)[n]


def bell(n: int) -> int:
    """Bell number B_n: the number of set partitions of [n], as
    ``bell_combination(n, (1,))``.

    >>> [bell(n) for n in range(6)]
    [1, 1, 2, 5, 15, 52]
    """
    if n < 0:
        raise ValueError(f"bell argument must be nonnegative, got {n}")
    if n > MAX_BELL_N:
        raise ValueError(f"need n <= {MAX_BELL_N} for B_n (Bell number budget), got n={n}")
    return bell_combination(n, (1,))


def bell_numbers(top: int) -> list[int]:
    """B_0, ..., B_top from one pass of the Bell triangle: each row starts
    with the last entry of the row above and adds that row's entries one by
    one, and B_m is the first entry of row m.

    >>> bell_numbers(6)
    [1, 1, 2, 5, 15, 52, 203]
    """
    if top < 0:
        raise ValueError(f"bell_numbers argument must be nonnegative, got {top}")
    if top > MAX_BELL_N:
        raise ValueError(f"need top <= {MAX_BELL_N} for B_0..B_top (Bell number budget), got top={top}")
    out = [1]
    row = [1]
    for _ in range(top):
        row = list(accumulate(row, initial=row[-1]))
        out.append(row[0])
    return out


def stirling2_column(k: int, top: int) -> list[int]:
    """S(0, k), ..., S(top, k) from one pass of the recurrence
    S(m, j) = j S(m-1, j) + S(m-1, j-1) over j = 1..k.

    Only the entries with m - j <= top - k feed the column, so the pass keeps
    col[d] = S(j + d, j) for d = 0..top-k, and step j is
    col[d] += j * col[d - 1]: k passes of length top - k + 1.  The checks of
    the arguments and of ``MAX_STIRLING_N`` name S(top, k) as S(n, k).

    >>> stirling2_column(2, 6)
    [0, 0, 1, 3, 7, 15, 31]
    >>> stirling2_column(3, 2)
    [0, 0, 0]
    """
    if k < 0 or top < 0:
        raise ValueError(f"need n >= 0 and k >= 0 for S(n, k), got n={top}, k={k}")
    if top > MAX_STIRLING_N:
        raise ValueError(f"need n <= {MAX_STIRLING_N} for S(n, k) (Stirling number budget), got n={top}")
    if k > top:
        return [0] * (top + 1)
    col = [1] + [0] * (top - k)
    for j in range(1, k + 1):
        for d in range(1, len(col)):
            col[d] += j * col[d - 1]
    return [0] * k + col
