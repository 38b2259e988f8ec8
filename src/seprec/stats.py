"""Record statistics on words over the positive integers.

A letter of a word is a *record* (left-to-right maximum) when it is strictly
greater than every letter before it; the first letter is always a record.
Besides record detection this module computes:

* ``sep_a(word, a)``: the sum of all letters strictly before the record ``a``,
* ``sep(word)``: the total of ``sep_a`` over all records,
* ``srec(word)``: the sum of the record positions,
* ``swrec(word)``: the sum of position * value over the records.

Positions are 1-based throughout.  Letters are assumed to be positive
integers; totals are plain Python ints and therefore exact at any size.
"""
from __future__ import annotations

from typing import Sequence


def records(word: Sequence[int]) -> list[tuple[int, int]]:
    """All records of ``word`` as (value, position) pairs, in order.

    >>> records((1, 2, 2, 6, 3, 4))
    [(1, 1), (2, 2), (6, 4)]
    >>> records((1, 2, 1, 1, 3, 2))
    [(1, 1), (2, 2), (3, 5)]
    >>> records((4, 4, 4))
    [(4, 1)]
    """
    if not word:
        raise ValueError("records of an empty word are undefined")
    out = []
    biggest = 0
    for pos, v in enumerate(word, start=1):
        if v < 1:
            raise ValueError(f"letters must be positive integers, got {v} at position {pos}")
        if v > biggest:
            out.append((v, pos))
            biggest = v
    return out


def sep_a(word: Sequence[int], a: int) -> int:
    """Sum of the letters strictly before the position of record ``a``.

    ``a`` must occur as a record value of ``word``.

    >>> sep_a((1, 2, 1, 1, 3, 2), 3)
    5
    >>> sep_a((1, 2, 1, 1, 3, 2), 2)
    1
    >>> sep_a((1, 2, 1, 1, 3, 2), 1)
    0
    """
    if not word:
        raise ValueError("sep_a of an empty word is undefined")
    prefix = 0
    biggest = 0
    for v in word:
        if v > biggest:
            if v == a:
                return prefix
            if v > a:
                break
            biggest = v
        prefix += v
    raise ValueError(f"{a} is not a record value of the word")


def sep(word: Sequence[int]) -> int:
    """Total of ``sep_a`` over all records: each record adds the sum of the
    letters before it.

    >>> sep((1, 2, 1, 1, 3, 2))
    6
    >>> sep((1, 1, 1, 1))
    0
    >>> sep((1, 2, 3, 4))
    10
    """
    if not word:
        raise ValueError("sep of an empty word is undefined")
    total = 0
    prefix = 0
    biggest = 0
    for v in word:
        if v > biggest:
            total += prefix
            biggest = v
        prefix += v
    return total


def sep_by_positions(word: Sequence[int]) -> int:
    """``sep`` computed by the dual formula: each letter counts once for every
    record strictly after it.  With r(p) the number of records at positions
    <= p and k the number of records, the letter at p counts k - r(p) times,
    so the total is k * sum(word) - sum over p of word[p] * r(p), taken in
    one left-to-right pass.

    An independent implementation for cross-checking ``sep``: it counts
    records after each letter where ``sep`` sums the letters before each
    record, and it calls neither ``sep`` nor ``sep_a``.

    >>> sep_by_positions((1, 2, 1, 1, 3, 2))
    6
    """
    if not word:
        raise ValueError("records of an empty word are undefined")
    k = 0  # records so far, r(p)
    biggest = 0
    letters = 0  # sum of the letters so far
    weighted = 0  # sum of word[q] * r(q) over the positions q so far
    for pos, v in enumerate(word, start=1):
        if v < 1:
            raise ValueError(f"letters must be positive integers, got {v} at position {pos}")
        if v > biggest:
            biggest = v
            k += 1
        letters += v
        weighted += v * k
    return k * letters - weighted


def srec(word: Sequence[int]) -> int:
    """Sum of the positions of the records.

    >>> srec((1, 2, 2, 6, 3, 4))
    7
    >>> srec((5, 5, 5))
    1
    """
    return sum(pos for _, pos in records(word))


def swrec(word: Sequence[int]) -> int:
    """Sum of position * value over the records.

    >>> swrec((1, 2, 2, 3, 1, 3))
    17
    """
    return sum(pos * v for v, pos in records(word))
