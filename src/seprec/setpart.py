"""Set partitions of [n] in canonical word form (restricted growth strings).

A set partition of [n] with blocks ordered by increasing minima is encoded by
the word w[1..n] where w[i] is the index of the block containing i.  Such
words are exactly the restricted growth strings: w[1] = 1 and every later
letter is at most one more than the running maximum.  The number of blocks is
the maximum letter.

Words are tuples of ints.  Enumeration is iterative, streaming and
lexicographic, with word length bound by ``MAX_WORD_LENGTH``, not by the
recursion limit; generators yield fresh tuples, storable without copying.
The last three letters of a word (the last one once n > 120, so that long
words still stream) depend only on the largest letter before them (Knuth,
TAOCP 4A, 7.2.1.5).  So every stream walks the prefixes before them, each
with its largest letter, which the walk tracks anyway, and walks those
letters, the tails, apart.  Each stream keeps the tails after each largest
letter up to 9, once per call, and walks them afresh past it; the tuple
generators keep tuples, and make a word as one tuple addition.

Text form: a word prints as a bare digit string when its largest letter is at
most 9 (e.g. ``12231``) and as comma-separated integers otherwise.
:func:`lines` streams that text for a whole listing from the same prefixes
and tails: it keeps them as text, in runs of digit tails, and formats each
run after one prefix as one chunk; past 9 every word prints with commas.
Each word ends with a newline, or with the text the caller asks for (json
asks for its separator), so the chunks come in the form they are written.
"""
from __future__ import annotations

from itertools import chain, groupby, starmap
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

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
    blocks: list[list[int]] = []
    for i, v in enumerate(validate(word), start=1):
        # a restricted growth string opens block v at the first letter past
        # the blocks so far
        if v > len(blocks):
            blocks.append([i])
        else:
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
    if not groups:
        raise ValueError("empty word is not a canonical form")
    if any(not g for g in groups):
        raise ValueError("blocks must be nonempty")
    groups.sort(key=itemgetter(0))
    n = sum(map(len, groups))
    word = [0] * n
    for idx, g in enumerate(groups, start=1):
        for i in g:
            if not 1 <= i <= n:
                raise ValueError(f"element {i} outside 1..{n}")
            if word[i - 1]:
                raise ValueError(f"element {i} appears in more than one block")
            word[i - 1] = idx
    # n distinct elements of 1..n fill all n slots, and blocks numbered by
    # increasing minima give a restricted growth string, so the word needs
    # no second check
    return tuple(word)


def _walk(word: list[int], i: int, biggest: int, low: int, high: int) -> Iterator[tuple[Word, int]]:
    """Completions of a prefix with largest letter ``biggest``, written over
    ``word[i:]``, to restricted growth strings with largest letter in
    ``low..high``, in lexicographic order; one must exist.  ``word[:i]`` is
    only copied into the yields, and may be empty.  Each yield is a pair: a
    fresh tuple of the shared buffer ``word`` and the largest letter of the
    completed word, ``biggest`` included, which the walk tracks anyway."""
    last = len(word) - 1
    if i > last:
        yield tuple(word), biggest
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
        for v in range(1 if b >= low else low, (b + 1 if b < high else high) + 1):
            word[last] = v
            yield tuple(word), b if v <= b else v
        # carry: the rightmost letter before the last that can still grow
        t = last - 1
        while t >= i and (word[t] > top[t] or word[t] >= high):
            t -= 1
        if t < i:
            return
        word[t] = v = word[t] + 1
        top[t + 1] = top[t] if v <= top[t] else v
        t += 1


# Largest letter b of a prefix whose tails _words keeps.  About b**3
# three-letter tails follow such a prefix; for all b <= 9 they number at
# most 3,195, where keeping them for b = 100 would take a million tuples.
_TABLE_MAX = 9


def _split(word: list[int], i: int, biggest: int, low: int,
           high: int) -> tuple[Iterator[tuple[Word, int]], Callable[[int], Iterator[tuple[Word, int]]]]:
    """The completions that ``_walk(word, i, biggest, low, high)`` yields, as
    prefixes followed by tails.

    Cuts the buffer ``word`` to the prefix length n - depth, where depth is
    3 letters (1 once n > 120, so that long words still stream) but never
    reaches into ``word[:i]``, and returns ``(prefixes, tails)``:
    ``prefixes`` walks the prefixes in ``word``, each with its largest
    letter b, and ``tails(b)`` walks, in order, the depth-letter completions
    of a prefix whose largest letter is b, which depend on nothing else
    (Knuth, TAOCP 4A, 7.2.1.5): the pairs of ``_walk([1] * depth, 0, b, low,
    high)``, walked afresh on each call.
    """
    n = len(word)
    depth = min(3 if n <= 120 else 1, n - i)
    del word[n - depth:]

    def tails(b: int) -> Iterator[tuple[Word, int]]:
        return _walk([1] * depth, 0, b, low, high)

    # a prefix may miss low by as many letters as its tail adds
    return _walk(word, i, biggest, max(low - depth, 1), high), tails


def _words(word: list[int], i: int, biggest: int, low: int, high: int) -> Iterator[Word]:
    """The words that ``_walk(word, i, biggest, low, high)`` yields, each one
    tuple addition of a prefix and a tail, which is kept once per call for
    each largest letter of a prefix up to ``_TABLE_MAX``."""
    prefixes, tails = _split(word, i, biggest, low, high)
    table: dict[int, list[Word]] = {}

    def after(prefix: Word, b: int) -> Iterator[Word]:
        found = table.get(b)
        if found is None:
            found = (tail for tail, _ in tails(b))
            if b <= _TABLE_MAX:
                found = table[b] = list(found)
        return map(prefix.__add__, found)

    return chain.from_iterable(starmap(after, prefixes))


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
    return _words([1] * n, 1, 1, *_letter_range(n, None))


def iterate_with_k(n: int, k: int) -> Iterator[Word]:
    """Restricted growth strings of length ``n`` with maximum letter exactly ``k``,
    in lexicographic order.  The stream has S(n, k) elements.

    >>> list(iterate_with_k(3, 2))
    [(1, 1, 2), (1, 2, 1), (1, 2, 2)]
    >>> list(iterate_with_k(4, 4))
    [(1, 2, 3, 4)]
    """
    return _words([1] * n, 1, 1, *_letter_range(n, k))


def complete_prefix(prefix: Sequence[int], n: int) -> Iterator[Word]:
    """All length-``n`` restricted growth strings starting with ``prefix``,
    in lexicographic order.
    """
    p = validate(prefix)
    if not len(p) <= n <= MAX_WORD_LENGTH:
        raise ValueError(f"need len(prefix) <= n <= {MAX_WORD_LENGTH} (word-length budget), got len(prefix)={len(p)}, n={n}")
    return _words(list(p) + [1] * (n - len(p)), len(p), max(p), 1, n)


# split_by_prefix(1000, 10) lists its B_10 = 115,975 pieces in about 0.2 s
# with a 62 MiB peak, and then the next() of its first and last piece;
# depth 11 takes 1.8 s and 292 MiB.
_MAX_SPLIT_DEPTH = 10


def split_by_prefix(n: int, depth: int) -> list[tuple[Word, Iterator[Word]]]:
    """Partition the ``iterate_all(n)`` stream by its length-``depth`` prefixes.

    Returns (prefix, sub-stream) pairs in prefix order; concatenating the
    sub-streams reproduces ``iterate_all(n)`` exactly.  Distinct sub-streams
    share no state, so they may be consumed concurrently.  A sub-stream
    starts its :func:`complete_prefix` walk, and its word buffer, on its
    first ``next()``.  Sizes are checked at call time; ``depth`` is at most
    10, as the list holds B_depth pairs.  It stays for demo 01, which shows
    the split, and ``perfbench/layers.py``, which times it by name.

    >>> [(p, sum(1 for _ in s)) for p, s in split_by_prefix(3, 2)]
    [((1, 1), 2), ((1, 2), 3)]
    """
    if not 1 <= depth <= min(n, _MAX_SPLIT_DEPTH) or n > MAX_WORD_LENGTH:
        raise ValueError(f"need 1 <= depth <= min(n, {_MAX_SPLIT_DEPTH}) (prefix-count budget) and "
                         f"n <= {MAX_WORD_LENGTH} (word-length budget), got depth={depth}, n={n}")

    def completions(prefix: Word) -> Iterator[Word]:
        yield from complete_prefix(prefix, n)

    return [(p, completions(p)) for p in iterate_all(depth)]


# Letters 0-9 to their ASCII digits, for the text of the digit prefixes and
# tails in lines, whose letters are 1-9; the other 246 bytes only pad the
# table to the 256 that bytes.translate takes.
_DIGITS = b"0123456789" + b"\x80" * 246


def format_word(word: Sequence[int]) -> str:
    """Text form of a word: bare digits when all letters are <= 9, else
    comma-separated.

    Defined for nonempty words of positive int letters, as every word this
    module yields or parses; an empty word raises ValueError.

    >>> format_word((1, 2, 2, 3, 1))
    '12231'
    >>> format_word((1, 2, 10))
    '1,2,10'
    """
    if not word:
        raise ValueError("empty word")
    return _text(word, max(word))


def _text(word: Sequence[int], biggest: int) -> str:
    """Text form of a word whose largest letter is ``biggest``."""
    return ("" if biggest <= 9 else ",").join(map(str, word))


def _chunks(head: list[int], low: int, high: int, end: str) -> Iterator[str]:
    """The text of :func:`lines`, each word followed by ``end``, from the
    prefixes and tails of a walk of the words in the buffer ``head``.  After
    a prefix whose largest letter b is at most 9, the tails that keep every
    letter at most 9 come in maximal runs, in order, each run one chunk; a
    tail that reaches letter 10, which prints with commas, is a chunk of its
    own.  Without a block count the longest run follows b = 7: all of its
    537 three-letter tails but the last, 8,9,10.  The tails after each b up
    to 9 are walked and formatted once per listing and kept as text only;
    past 9 they are walked afresh for each prefix."""
    prefixes, tails = _split(head, 1, 1, low, high)
    m = len(head)
    # per b <= 9: a digit run is "" and then its digit tails, so that joining
    # it with a prefix's text puts the prefix before every tail; a comma
    # tail is the string after the prefix's last letter
    runs: dict[int, list[tuple[bool, list[str] | str]]] = {}
    for prefix, b in prefixes:
        if b <= 9:
            found = runs.get(b)
            if found is None:
                found = runs[b] = []
                for digits, group in groupby(tails(b), lambda pair: pair[1] <= 9):
                    if digits:
                        found.append((True, ["", *(bytes(tail).translate(_DIGITS).decode("ascii") + end
                                                   for tail, _ in group)]))
                    else:
                        found.extend((False, "," + _text(tail, top) + end) for tail, top in group)
            text = bytes(prefix).translate(_DIGITS).decode("ascii")
            for digits, run in found:
                # each letter of a digit prefix is one character of its text
                yield text.join(run) if digits else ",".join(text) + run
        else:
            # every completion prints with commas; words are built at the
            # end of head, beside no copy of the prefix, and cut off before
            # the prefix walk resumes
            del prefix
            for tail, top in tails(b):
                head[m:] = tail
                yield _text(head, top) + end
            del head[m:]


def lines(n: int, k: int | None = None, *, end: str = "\n") -> Iterator[str]:
    """Text of the listing ``iterate_all(n)``, or ``iterate_with_k(n, k)``
    when ``k`` is given, in chunks of :func:`format_word` words, each word
    followed by ``end``: a newline by default, or the text a caller puts
    between words, such as a separator that the caller trims after the last
    word.  ``end`` must be non-empty; the chunks are the same for every
    ``end``.  A chunk holds a maximal run of digit words that share all but
    their last three letters (the last letter once n > 120, so that long
    words still stream), at most 536 of them without ``k`` and k**3 with
    ``k`` (9 once n > 120), or one word with a letter past 9.  Sizes and
    ``end`` are checked at call time, sizes with the messages of the tuple
    generators.

    >>> list(lines(3))
    ['111\\n112\\n121\\n122\\n123\\n']
    >>> list(lines(3, 3))
    ['123\\n']
    >>> list(lines(3, 2, end=";"))
    ['112;121;122;']
    """
    if not end:
        raise ValueError("need a non-empty end of word")
    return _chunks([1] * n, *_letter_range(n, k), end)


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
