"""Set partitions of [n] in canonical word form (restricted growth strings).

A set partition of [n] with blocks ordered by increasing minima is encoded by
the word w[1..n] where w[i] is the index of the block containing i.  Such
words are exactly the restricted growth strings: w[1] = 1 and every later
letter is at most one more than the running maximum.  The number of blocks is
the maximum letter.

Words are tuples of ints.  Enumeration is iterative, streaming and
lexicographic, with word length bound by ``MAX_WORD_LENGTH``, not by the
recursion limit; generators yield fresh tuples, storable without copying.

Text form: a word prints as a bare digit string when its largest letter is at
most 9 (e.g. ``12231``) and as comma-separated integers otherwise.
:func:`lines` streams that text for a whole listing from the same walk,
without tuples: consecutive words that differ only in their last letter
share the rest of their text, so a run of digit words is formatted once.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]

# At the budget the first word comes in about 0.2 s with a 40 MiB peak.
MAX_WORD_LENGTH = 1_000_000


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


def _walk(word: list[int], i: int, biggest: int, low: int, high: int, block=None) -> Iterator:
    """Completions of ``word[:i]`` (maximum ``biggest``) to restricted growth
    strings with largest letter in ``low..high``, in lexicographic order; one
    must exist.  Each yield is a fresh tuple of the shared buffer ``word``.

    With ``block`` given, the walk yields from ``block(word, first, stop)``
    instead, once per run of words that differ only in their last letter:
    ``word[:-1]`` followed by each of ``first..stop-1``.  ``block`` may
    change ``word[-1]`` and no other letter."""
    last = len(word) - 1
    if i > last:
        if block is None:
            yield tuple(word)
        else:
            yield from block(word, word[last], word[last] + 1)
        return
    top = [biggest] * (last + 1)  # top[t] = max(word[:t]) for t >= i
    t = i
    while True:
        # fill word[t:last] with the smallest letters that can still reach low
        for t in range(t, last):
            b = top[t]
            word[t] = v = 1 if low - b <= last - t else b + 1
            top[t + 1] = b if v <= b else v
        b = top[last]
        first, stop = 1 if b >= low else low, (b + 1 if b < high else high) + 1
        if block is None:
            for v in range(first, stop):
                word[last] = v
                yield tuple(word)
        else:
            yield from block(word, first, stop)
        # carry: the rightmost letter before the last that can still grow
        t = last - 1
        while t >= i and (word[t] > top[t] or word[t] >= high):
            t -= 1
        if t < i:
            return
        word[t] = v = word[t] + 1
        top[t + 1] = top[t] if v <= top[t] else v
        t += 1


def _letter_range(n: int, k: int | None) -> tuple[int, int]:
    """Bounds on the largest letter of the length-``n`` words with ``k``
    blocks, or with any number of blocks when ``k`` is None."""
    if k is None:
        if not 1 <= n <= MAX_WORD_LENGTH:
            raise ValueError(f"need 1 <= n <= {MAX_WORD_LENGTH} (word-length budget), got {n}")
        return 1, n
    if not 1 <= k <= n <= MAX_WORD_LENGTH:
        raise ValueError(f"need 1 <= k <= n <= {MAX_WORD_LENGTH} (word-length budget), got k={k}, n={n}")
    return k, k


def iterate_all(n: int) -> Iterator[Word]:
    """All restricted growth strings of length ``n`` in lexicographic order.

    The stream has exactly B_n elements (the Bell number).

    >>> list(iterate_all(3))
    [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]
    """
    return _walk([1] * n, 1, 1, *_letter_range(n, None))


def iterate_with_k(n: int, k: int) -> Iterator[Word]:
    """Restricted growth strings of length ``n`` with maximum letter exactly ``k``,
    in lexicographic order.  The stream has S(n, k) elements.

    >>> list(iterate_with_k(3, 2))
    [(1, 1, 2), (1, 2, 1), (1, 2, 2)]
    >>> list(iterate_with_k(4, 4))
    [(1, 2, 3, 4)]
    """
    return _walk([1] * n, 1, 1, *_letter_range(n, k))


def complete_prefix(prefix: Sequence[int], n: int) -> Iterator[Word]:
    """All length-``n`` restricted growth strings starting with ``prefix``,
    in lexicographic order.
    """
    p = validate(prefix)
    if not len(p) <= n <= MAX_WORD_LENGTH:
        raise ValueError(f"need len(prefix) <= n <= {MAX_WORD_LENGTH} (word-length budget), got len(prefix)={len(p)}, n={n}")
    return _walk(list(p) + [1] * (n - len(p)), len(p), max(p), 1, n)


def split_by_prefix(n: int, depth: int) -> list[tuple[Word, Iterator[Word]]]:
    """Partition the ``iterate_all(n)`` stream by its length-``depth`` prefixes.

    Returns (prefix, sub-stream) pairs in prefix order; concatenating the
    sub-streams reproduces ``iterate_all(n)`` exactly.  Distinct sub-streams
    share no state, so they may be consumed concurrently.  It stays for demo 01,
    which shows the split, and ``perfbench/layers.py``, which times it by name.

    >>> [(p, sum(1 for _ in s)) for p, s in split_by_prefix(3, 2)]
    [((1, 1), 2), ((1, 2), 3)]
    """
    if not 1 <= depth <= n:
        raise ValueError(f"need 1 <= depth <= n, got depth={depth}, n={n}")
    return [(p, complete_prefix(p, n)) for p in iterate_all(depth)]


# Letters 0-9 to their ASCII digits, every other byte to 0x80, which ASCII refuses.
_DIGITS = b"0123456789" + b"\x80" * 246


def format_word(word: Sequence[int]) -> str:
    """Text form of a word: bare digits when all letters are <= 9, else
    comma-separated.

    Defined for nonempty words of positive int letters, as every word this
    module yields or parses; an empty word raises ValueError.  A digit word
    goes through the byte table ``_DIGITS``; a letter past 9 fails the ASCII
    decode and a letter past 255 fails ``bytes()``, both with ValueError,
    and either falls back to joining the letters with commas.

    >>> format_word((1, 2, 2, 3, 1))
    '12231'
    >>> format_word((1, 2, 10))
    '1,2,10'
    """
    if not word:
        raise ValueError("empty word")
    try:
        return bytes(word).translate(_DIGITS).decode("ascii")
    except ValueError:
        return ",".join(map(str, word))


# The last letters 1-9 of a digit block with their newlines.
_LAST_DIGITS = [f"{v}\n" for v in range(1, 10)]


def _block_lines(word: list[int], first: int, stop: int) -> Iterator[str]:
    """Newline-terminated text of the words ``word[:-1]`` + (v,) for v in
    ``first..stop-1``: one chunk when every letter is at most 9, else one
    chunk per word.

    Every run that ``_walk`` hands over for :func:`lines` has
    stop >= max(word[:-1]) + 1, so stop <= 10 means the head holds only
    digits."""
    if stop <= 10:
        head = bytes(word[:-1]).translate(_DIGITS).decode("ascii")
        yield head + head.join(_LAST_DIGITS[first - 1:stop - 1])
        return
    for v in range(first, stop):
        word[-1] = v
        yield format_word(word) + "\n"


def lines(n: int, k: int | None = None) -> Iterator[str]:
    """Text of the listing ``iterate_all(n)``, or ``iterate_with_k(n, k)``
    when ``k`` is given, in chunks of newline-terminated :func:`format_word`
    lines.  A chunk holds either the digit words that differ only in their
    last letter, at most nine, or one comma-separated word.  Sizes are
    checked at call time, with the messages of the tuple generators.

    >>> list(lines(3))
    ['111\\n112\\n', '121\\n122\\n123\\n']
    >>> list(lines(3, 3))
    ['123\\n']
    """
    return _walk([1] * n, 1, 1, *_letter_range(n, k), _block_lines)


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
