"""Set partitions of [n] in canonical word form (restricted growth strings).

A set partition of [n] with blocks ordered by increasing minima is encoded by
the word w[1..n] where w[i] is the index of the block containing i.  Such
words are exactly the restricted growth strings: w[1] = 1 and every later
letter is at most one more than the running maximum.  The number of blocks is
the maximum letter.

Words are represented as tuples of ints.  Enumeration is streaming and
lexicographic; generators yield fresh tuples, so yielded words may be stored
without copying.

Text form: a word prints as a bare digit string when its largest letter is at
most 9 (e.g. ``12231``) and as comma-separated integers otherwise.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]


def validate(word: Iterable[int]) -> Word:
    """Check that ``word`` is a restricted growth string and return it as a tuple.

    Raises ValueError naming the first offending 1-based position.

    >>> validate([1, 2, 2, 3, 1])
    (1, 2, 2, 3, 1)
    >>> validate([1, 3])
    Traceback (most recent call last):
        ...
    ValueError: not a restricted growth string at position 2: 3 exceeds running maximum 1 + 1
    """
    w = tuple(word)
    if not w:
        raise ValueError("empty word is not a canonical form")
    biggest = 0
    for i, v in enumerate(w, start=1):
        # bool is an int subclass, and True would pass for the letter 1
        if type(v) is not int or v < 1:
            raise ValueError(f"not a restricted growth string at position {i}: letters must be positive integers, got {v!r}")
        if v > biggest + 1:
            if i == 1:
                raise ValueError(f"not a restricted growth string at position 1: first letter must be 1, got {v}")
            raise ValueError(
                f"not a restricted growth string at position {i}: {v} exceeds running maximum {biggest} + 1"
            )
        if v > biggest:
            biggest = v
    return w


def num_blocks(word: Sequence[int]) -> int:
    """Number of blocks of the encoded partition (the maximum letter)."""
    return max(word)


def to_blocks(word: Sequence[int]) -> list[list[int]]:
    """Blocks of the partition encoded by ``word``, ordered by increasing minima.

    >>> to_blocks((1, 2, 2, 3, 1))
    [[1, 5], [2, 3], [4]]
    >>> to_blocks((1, 2, 1, 1, 3, 2))
    [[1, 3, 4], [2, 6], [5]]
    """
    w = validate(word)
    blocks: list[list[int]] = [[] for _ in range(max(w))]
    for i, v in enumerate(w, start=1):
        blocks[v - 1].append(i)
    return blocks


def from_blocks(blocks: Sequence[Iterable[int]]) -> Word:
    """Canonical word of a partition given as blocks.

    The blocks may be given in any order and need not be sorted internally;
    they must be nonempty, disjoint, and cover [n] exactly.

    >>> from_blocks([{1, 5}, {2, 3}, {4}])
    (1, 2, 2, 3, 1)
    >>> from_blocks([[3], [1, 2]])
    (1, 1, 2)
    """
    groups = [sorted(b) for b in blocks]
    if any(not g for g in groups):
        raise ValueError("blocks must be nonempty")
    groups.sort(key=lambda g: g[0])
    n = sum(len(g) for g in groups)
    word = [0] * n
    for idx, g in enumerate(groups, start=1):
        for i in g:
            if not 1 <= i <= n:
                raise ValueError(f"element {i} outside 1..{n}")
            if word[i - 1]:
                raise ValueError(f"element {i} appears in more than one block")
            word[i - 1] = idx
    # every slot filled iff blocks cover [n]
    return validate(word)


def _completions(word: list[int], i: int, biggest: int) -> Iterator[Word]:
    """Every completion of ``word[:i]``, whose running maximum is ``biggest``,
    to a restricted growth string of length ``len(word)``, in lexicographic
    order.  Each yield is a fresh tuple of the shared buffer ``word``."""
    n = len(word)

    def extend(i: int, biggest: int) -> Iterator[Word]:
        if i == n:
            yield tuple(word)
            return
        for v in range(1, biggest + 2):
            word[i] = v
            yield from extend(i + 1, biggest if v <= biggest else v)

    return extend(i, biggest)


def iterate_all(n: int) -> Iterator[Word]:
    """All restricted growth strings of length ``n`` in lexicographic order.

    The stream has exactly B_n elements (the Bell number).

    >>> list(iterate_all(3))
    [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]
    """
    if n < 1:
        raise ValueError(f"word length must be positive, got {n}")
    return _completions([1] * n, 1, 1)


def iterate_with_k(n: int, k: int) -> Iterator[Word]:
    """Restricted growth strings of length ``n`` with maximum letter exactly ``k``,
    in lexicographic order.  The stream has S(n, k) elements.

    >>> list(iterate_with_k(3, 2))
    [(1, 1, 2), (1, 2, 1), (1, 2, 2)]
    >>> list(iterate_with_k(4, 4))
    [(1, 2, 3, 4)]
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    word = [1] * n

    def extend(i: int, biggest: int) -> Iterator[Word]:
        if i == n:
            yield tuple(word)
            return
        rest = n - i - 1
        for v in range(1, min(biggest + 1, k) + 1):
            new_biggest = biggest if v <= biggest else v
            # prune branches that cannot reach maximum k in the remaining slots
            if k - new_biggest <= rest:
                word[i] = v
                yield from extend(i + 1, new_biggest)

    return extend(1, 1)


def complete_prefix(prefix: Sequence[int], n: int) -> Iterator[Word]:
    """All length-``n`` restricted growth strings starting with ``prefix``,
    in lexicographic order.
    """
    p = validate(prefix)
    if len(p) > n:
        raise ValueError(f"prefix of length {len(p)} cannot start a word of length {n}")
    return _completions(list(p) + [1] * (n - len(p)), len(p), max(p))


def split_by_prefix(n: int, depth: int) -> list[tuple[Word, Iterator[Word]]]:
    """Partition the ``iterate_all(n)`` stream by its length-``depth`` prefixes.

    Returns (prefix, sub-stream) pairs in prefix order; concatenating the
    sub-streams reproduces ``iterate_all(n)`` exactly.  Distinct sub-streams
    share no state, so they may be consumed concurrently.

    >>> [(p, sum(1 for _ in s)) for p, s in split_by_prefix(3, 2)]
    [((1, 1), 2), ((1, 2), 3)]
    """
    if not 1 <= depth <= n:
        raise ValueError(f"need 1 <= depth <= n, got depth={depth}, n={n}")
    return [(p, complete_prefix(p, n)) for p in iterate_all(depth)]


def format_word(word: Sequence[int]) -> str:
    """Text form of a word: bare digits when all letters are <= 9, else
    comma-separated.

    >>> format_word((1, 2, 2, 3, 1))
    '12231'
    >>> format_word((1, 2, 10))
    '1,2,10'
    """
    if max(word) <= 9:
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


def parse_word(text: str) -> Word:
    """Inverse of :func:`format_word`.  Accepts any word over the positive
    integers, not only canonical forms.

    >>> parse_word("12231")
    (1, 2, 2, 3, 1)
    >>> parse_word("1,2,10")
    (1, 2, 10)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty word")
    parts = [part.strip() for part in text.split(",")] if "," in text else list(text)
    # int() alone would also take signs, underscores and non-ASCII digits
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"cannot parse word {text!r}")
    letters = tuple(int(part) for part in parts)
    if any(v < 1 for v in letters):
        raise ValueError(f"letters must be positive integers, got {text!r}")
    return letters
