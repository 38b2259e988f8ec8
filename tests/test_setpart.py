import hashlib
import itertools
import subprocess
import sys
import tracemalloc
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from seprec.counting import bell, stirling2
from seprec.setpart import (
    MAX_WORD_LENGTH,
    complete_prefix,
    format_word,
    from_blocks,
    iterate_all,
    iterate_with_k,
    lines,
    parse_word,
    split_by_prefix,
    to_blocks,
    validate,
)

# arbitrary restricted growth strings, built by folding growth choices
rgs_words = st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=12).map(
    lambda raw: _fold_rgs(raw)
)


def _fold_rgs(raw):
    word = []
    biggest = 0
    for x in raw:
        v = 1 + x % (biggest + 1)
        word.append(v)
        biggest = max(biggest, v)
    return tuple(word)


def test_validate_accepts_known_forms():
    assert validate([1, 2, 2, 3, 1]) == (1, 2, 2, 3, 1)
    assert validate([1]) == (1,)


def test_validate_reports_first_offending_position():
    with pytest.raises(ValueError, match="position 2"):
        validate([1, 3])
    with pytest.raises(ValueError, match="position 1"):
        validate([2, 1])
    with pytest.raises(ValueError, match="position 4"):
        validate([1, 2, 3, 5])
    with pytest.raises(ValueError, match="position 3"):
        validate([1, 1, 0])
    with pytest.raises(ValueError):
        validate([])
    for word, position in (((True,), 1), ((1.0,), 1), ((1, True), 2), ((1, 2.0), 2)):
        with pytest.raises(ValueError, match=f"position {position}: letters must be positive integers"):
            validate(word)


def test_to_blocks_examples():
    assert to_blocks((1, 2, 2, 3, 1)) == [[1, 5], [2, 3], [4]]
    assert to_blocks((1, 2, 1, 1, 3, 2)) == [[1, 3, 4], [2, 6], [5]]
    assert to_blocks((1,) * 4) == [[1, 2, 3, 4]]


def test_from_blocks_examples():
    assert from_blocks([{1, 5}, {2, 3}, {4}]) == (1, 2, 2, 3, 1)
    n = 6
    assert from_blocks([{i} for i in range(1, n + 1)]) == tuple(range(1, n + 1))
    # block order on input does not matter
    assert from_blocks([[4], [2, 3], [1, 5]]) == (1, 2, 2, 3, 1)


def test_from_blocks_rejects_bad_partitions():
    for blocks, error, message in (
        ([[1, 2], [2, 3]], ValueError, "element 2 appears in more than one block"),
        ([[1, 1]], ValueError, "element 1 appears in more than one block"),
        ([[0, 1]], ValueError, "element 0 outside 1..2"),
        ([[1], [3]], ValueError, "element 3 outside 1..2"),
        ([[1], []], ValueError, "blocks must be nonempty"),
        ([[1, 2.5]], ValueError, "element 2.5 outside 1..2"),
        ([[1.0]], TypeError, "list indices must be integers or slices, not float"),
        ([], ValueError, "empty word is not a canonical form"),
    ):
        with pytest.raises(error) as info:
            from_blocks(blocks)
        assert type(info.value) is error
        assert str(info.value) == message


@pytest.mark.parametrize("word, message", [
    ((1, 3), "not a restricted growth string at position 2: 3 exceeds running maximum 1 + 1"),
    ((), "empty word is not a canonical form"),
    ((1, True), "not a restricted growth string at position 2: letters must be positive integers, got True"),
])
def test_to_blocks_error_messages(word, message):
    with pytest.raises(ValueError) as info:
        to_blocks(word)
    assert str(info.value) == message


def _raised(f, word):
    """The type and message of what ``f(word)`` raises, or None."""
    try:
        f(word)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_to_blocks_raises_what_validate_raises():
    words = [w for m in range(5) for w in itertools.product((-1, 0, 1, 2, 3, 5), repeat=m)]
    for word in [*words, (True,), (1, 2.0), (1, 0.5)]:
        raised = _raised(validate, word)
        assert _raised(to_blocks, word) == raised, word
        if raised is None:
            assert from_blocks(to_blocks(word)) == word
    # the restricted growth strings with letters up to 3: all but 1234 of length <= 4
    assert sum(_raised(validate, w) is None for w in words) == 1 + 2 + 5 + 14


def test_to_blocks_takes_any_iterable():
    assert to_blocks(v for v in (1, 2, 1)) == [[1, 3], [2]]
    assert to_blocks([1, 2, 1]) == [[1, 3], [2]]
    with pytest.raises(ValueError, match="position 2: 3 exceeds running maximum 1 [+] 1"):
        to_blocks(v for v in (1, 3))


def test_roundtrip_exhaustive():
    for n in range(1, 8):
        for w in iterate_all(n):
            assert from_blocks(to_blocks(w)) == w


def test_iterate_all_small():
    assert list(iterate_all(1)) == [(1,)]
    assert list(iterate_all(3)) == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 1),
        (1, 2, 2),
        (1, 2, 3),
    ]


def test_iterate_all_counts_and_order():
    for n in range(1, 9):
        prev = None
        count = 0
        for w in iterate_all(n):
            if prev is not None:
                assert prev < w
            prev = w
            count += 1
        assert count == bell(n)


def test_iterate_all_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        next(iterate_all(0))


def test_iterate_with_k_small():
    assert list(iterate_with_k(3, 2)) == [(1, 1, 2), (1, 2, 1), (1, 2, 2)]
    assert list(iterate_with_k(4, 4)) == [(1, 2, 3, 4)]
    assert sum(1 for _ in iterate_with_k(4, 2)) == 7


def test_iterate_with_k_counts_and_block_count():
    for n in range(1, 9):
        for k in range(1, n + 1):
            words = list(iterate_with_k(n, k))
            assert len(words) == stirling2(n, k)
            assert all(max(w) == k for w in words)
            assert words == sorted(words)


def test_iterate_with_k_partitions_full_stream():
    for n in range(1, 8):
        merged = sorted(w for k in range(1, n + 1) for w in iterate_with_k(n, k))
        assert merged == list(iterate_all(n))


def test_iterate_with_k_range_errors():
    with pytest.raises(ValueError):
        next(iterate_with_k(3, 0))
    with pytest.raises(ValueError):
        next(iterate_with_k(3, 4))


def test_split_by_prefix_covers_stream_in_order():
    for n in range(1, 8):
        for depth in range(1, n + 1):
            chunks = split_by_prefix(n, depth)
            rebuilt = [w for _, sub in chunks for w in sub]
            assert rebuilt == list(iterate_all(n))


def test_split_by_prefix_depth_one_is_whole_stream():
    chunks = split_by_prefix(3, 1)
    assert len(chunks) == 1
    assert chunks[0][0] == (1,)
    assert list(chunks[0][1]) == list(iterate_all(3))


def test_split_by_prefix_sizes():
    sizes = [(p, sum(1 for _ in s)) for p, s in split_by_prefix(4, 2)]
    assert sizes == [((1, 1), 5), ((1, 2), 10)]


def test_split_by_prefix_at_its_depth_budget_stays_small():
    # each piece makes its word buffer on its first next(), not when listed;
    # peak RSS (VmHWM) measured in a fresh process, in KiB
    script = ("from seprec import setpart\n"
              "pieces = setpart.split_by_prefix(1000, setpart._MAX_SPLIT_DEPTH)\n"
              "first, last = next(pieces[0][1]), next(pieces[-1][1])\n"
              "assert first == (1,) * 1000 and last == tuple(range(1, setpart._MAX_SPLIT_DEPTH + 1)) + (1,) * 990\n"
              "with open('/proc/self/status') as status:\n"
              "    print(len(pieces), next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    count, peak = map(int, proc.stdout.split())
    assert count == bell(10)
    assert peak < 100 * 1024


def test_complete_prefix_matches_filter():
    want = [w for w in iterate_all(5) if w[:2] == (1, 2)]
    assert list(complete_prefix((1, 2), 5)) == want
    assert list(complete_prefix((1, 2, 1), 3)) == [(1, 2, 1)]
    with pytest.raises(ValueError):
        next(complete_prefix((1, 2), 1))
    with pytest.raises(ValueError):
        next(complete_prefix((2,), 3))


def _filtered_words(n):
    """Restricted growth strings of length n in lexicographic order, kept
    from all n^n words over 1..n by the growth rule itself."""
    def grows(word):
        biggest = 0
        for v in word:
            if v > biggest + 1:
                return False
            biggest = max(biggest, v)
        return True
    return [w for w in itertools.product(range(1, n + 1), repeat=n) if grows(w)]


def test_generators_match_a_filter_of_all_words():
    for n in range(1, 7):
        want = _filtered_words(n)
        assert list(iterate_all(n)) == want
        for k in range(1, n + 1):
            assert list(iterate_with_k(n, k)) == [w for w in want if max(w) == k]
        for depth in range(1, n + 1):
            for prefix in sorted({w[:depth] for w in want}):
                assert list(complete_prefix(prefix, n)) == [w for w in want if w[:depth] == prefix]


@pytest.mark.listings(*((n, k, "plain") for n in range(1, 7) for k in (None, *range(1, n + 1))),
                      *((n, None, "plain") for n in range(7, 13)))
def test_the_listing_reference_matches_a_filter_and_the_counts(reference):
    # the reference of the listing tests, against the filter of all n^n words
    # (whose letters print as digits at n <= 6) and Stirling and Bell numbers
    for n in range(1, 7):
        words = _filtered_words(n)
        for k in (None, *range(1, n + 1)):
            text = "".join("".join(map(str, w)) + "\n" for w in words if k is None or max(w) == k)
            assert reference.listing(n)[k]["plain"] == (len(text), hashlib.sha256(text.encode()).hexdigest()), (n, k)
    for n in range(1, 13):
        stirling = [sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)
                    for k in range(1, n + 1)]
        assert [reference.listing(n)[k]["count"] for k in (None, *range(1, n + 1))] == [sum(stirling), *stirling]


@pytest.mark.listings(*((n, k, "plain") for n in range(9, 14) for k in range(max(9, n - 3), n + 1)))
def test_generators_match_a_recursion_past_the_tail_table(reference):
    # tails are kept after prefixes whose largest letter is at most 9, and
    # walked per prefix past it: at n = 13 the first ten letters reach 10
    for n in range(9, 14):
        for k in range(max(9, n - 3), n + 1):
            texts = (reference.word_text(w) + "\n" for w in iterate_with_k(n, k))
            assert reference.digest(lambda out: out.writelines(texts))[1:] == reference.listing(n)[k]["plain"], (n, k)
    n = 13
    for length in range(n - 3, n + 1):
        # the prefixes are words that the loop above has checked
        for prefix in (p for k in range(10, length + 1) for p in iterate_with_k(length, k)):
            want = list(reference.canonical_texts(n, prefix=prefix))
            assert list(map(reference.word_text, complete_prefix(prefix, n))) == want, prefix


@pytest.mark.parametrize("make, first_two", [
    (lambda: complete_prefix(tuple(range(1, 101)), 120),
     [tuple(range(1, 101)) + (1,) * 20, tuple(range(1, 101)) + (1,) * 19 + (2,)]),
    (lambda: iterate_with_k(120, 60),
     [(1,) * 61 + tuple(range(2, 61)), (1,) * 60 + (2, 1) + tuple(range(3, 61))]),
], ids=["complete_prefix", "iterate_with_k"])
def test_first_words_past_the_tail_table_take_little_memory(make, first_two):
    # about b**3 three-letter tails follow a prefix with largest letter b;
    # past b = 9 they are walked per prefix, not kept
    tracemalloc.start()
    try:
        words = make()
        got = [next(words), next(words)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == first_two
    assert peak < 2**20


def test_long_words_stream_past_the_recursion_limit():
    n = 2000  # twice CPython's default recursion limit
    assert next(iterate_all(n)) == (1,) * n
    assert list(iterate_with_k(n, n)) == [tuple(range(1, n + 1))]
    prefix = tuple(range(1, 1501))
    words = complete_prefix(prefix, n)
    assert next(words) == prefix + (1,) * 500
    assert next(words) == prefix + (1,) * 499 + (2,)


@pytest.mark.parametrize("make, past_nine", [
    (lambda: iterate_all(7), False),
    (lambda: iterate_with_k(7, 3), False),
    (lambda: complete_prefix((1, 2), 7), False),
    (lambda: (w for _, sub in split_by_prefix(7, 3) for w in sub), False),
    # past letter 9 the tails are walked per prefix, not kept
    (lambda: iterate_with_k(13, 11), True),
    (lambda: complete_prefix(tuple(range(1, 11)), 13), True),
    (lambda: split_by_prefix(12, 10)[-1][1], True),
], ids=["iterate_all", "iterate_with_k", "complete_prefix", "split_by_prefix",
        "iterate_with_k-past-9", "complete_prefix-past-9", "split_by_prefix-past-9"])
def test_generators_yield_fresh_plain_tuples(make, past_nine):
    # each word is its own object of exact type tuple, whether its tail was
    # kept in a table or walked again
    words = list(make())
    assert all(type(w) is tuple for w in words)
    assert len(set(map(id, words))) == len(words)
    assert (max(map(max, words)) > 9) is past_nine


def test_generators_refuse_words_past_the_length_budget():
    # refused at call time, before the word buffer is allocated
    with pytest.raises(ValueError, match="word-length budget"):
        iterate_all(MAX_WORD_LENGTH + 1)
    with pytest.raises(ValueError, match="word-length budget"):
        iterate_with_k(MAX_WORD_LENGTH + 1, 1)
    with pytest.raises(ValueError, match="word-length budget"):
        complete_prefix((1,), MAX_WORD_LENGTH + 1)


def test_format_word():
    assert format_word((1, 2, 2, 3, 1)) == "12231"
    assert format_word((1,) * 3 + (10,)) == "1,1,1,10"
    for empty in ((), []):
        with pytest.raises(ValueError):
            format_word(empty)


# words over the positive integers of up to 300 letters, whose largest letter
# falls on either side of 9/10, or far past it
letter_words = st.sampled_from([9, 10, 255, 256, 10**6]).flatmap(
    lambda top: st.lists(st.integers(min_value=1, max_value=top), min_size=1, max_size=300)
)


@given(letters=letter_words)
def test_format_word_matches_reference_on_random_words(reference, letters):
    expected = reference.word_text(letters)
    assert format_word(tuple(letters)) == expected
    assert format_word(letters) == expected


def test_format_word_matches_reference_on_every_word(reference):
    for n in range(1, 9):
        for word in iterate_all(n):
            expected = reference.word_text(word)
            assert format_word(word) == expected
            assert format_word(list(word)) == expected


def _lines_cases():
    for n in range(1, 11):
        yield n, None
        yield from ((n, k) for k in range(1, n + 1))
    # n = 11 is the benchmark's size.  Letters 10 and up print with commas; at
    # n = 11 and 12 these listings mix both forms, and with k = 7 and 8 their
    # prefixes whose completions can pass letter 9 fall back to a line per word
    yield 11, None
    yield from ((11, k) for k in range(1, 12))
    yield from ((12, k) for k in range(7, 13))
    # at n = 13 the ten-letter prefixes reach letter 10, whose tails lines
    # walks afresh for each prefix into a line per word
    yield from ((13, k) for k in range(10, 14))


# Without k the largest digit chunk follows a prefix whose largest letter is
# 7: its 7 * c(7) + c(8) = 537 three-letter completions, where
# c(b) = b**2 + 2*b + 2 counts those of two letters after largest letter b,
# all digits but the last, 8,9,10.  With k <= 9 it follows a prefix whose
# largest letter is k: all k**3 tails over the letters 1..k.
_MAX_DIGIT_CHUNK = 7 * (7**2 + 2 * 7 + 2) + (8**2 + 2 * 8 + 2) - 1


def _check_chunk(n, k, chunk):
    """A chunk of lines(n, k) holds one word if it has a comma; else at most
    536 words (k**3 with k) that share all but their last three letters, or
    at most 9 words once n > 120."""
    assert chunk.endswith("\n")
    words = chunk.splitlines()
    if "," in chunk:
        assert len(words) == 1, (n, k, chunk)
    elif n <= 120:
        most = _MAX_DIGIT_CHUNK if k is None else k**3
        assert len(words) <= most and len({w[:n - 3] for w in words}) == 1, (n, k, chunk)
    else:
        assert len(words) <= 9, (n, k, chunk)


def _check_runs(n, chunks):
    """Digit chunks are maximal runs: two in a row never share the prefix
    that the words of each share."""
    cut = n - 3 if n <= 120 else n - 1
    for first, second in itertools.pairwise(chunks):
        if "," not in first and "," not in second:
            assert first[:cut] != second[:cut], (n, first, second)


@pytest.mark.listings(*((n, k, "plain") for n, k in _lines_cases()))
def test_lines_match_format_word_per_word(reference):
    for n, k in _lines_cases():
        chunks = list(lines(n, k))
        _check_runs(n, chunks)

        def write(out):
            for chunk in chunks:
                _check_chunk(n, k, chunk)
                out.write(chunk)
        assert reference.digest(write)[1:] == reference.listing(n)[k]["plain"], (n, k)


@pytest.mark.parametrize("n, k", [(120, None), (121, None), (121, 2), (2100, None)])
def test_lines_match_format_word_across_the_depth_switch(reference, n, k):
    # past n = 120 a chunk holds the words after a prefix one letter shorter
    # than they are, so that long words still stream; these listings are far
    # too long to finish, and their first 2000 chunks hold fewer words than
    # begin with n - 12 ones
    chunks = list(itertools.islice(lines(n, k), 2000))
    text = "".join(chunks)
    count = text.count("\n")
    want = itertools.islice(reference.canonical_texts(n, k, prefix=(1,) * (n - 12)), count)
    assert text == "".join(word + "\n" for word in want), (n, k)
    for chunk in chunks:
        _check_chunk(n, k, chunk)
    _check_runs(n, chunks)


# json's separator between two words of its listing
_JSON_SEPARATOR = '",\n      "'


@pytest.mark.parametrize("n, k, count", [
    *((n, k, None) for n, k in _lines_cases()),
    (12, None, None),
    (121, 2, 2000),
    (121, 120, 2000),
])
def test_lines_end_changes_only_the_word_endings(n, k, count):
    # the chunks are cut in the same places for every end
    got = itertools.islice(lines(n, k, end=_JSON_SEPARATOR), count)
    want = itertools.islice(lines(n, k), count)
    assert list(got) == [chunk.replace("\n", _JSON_SEPARATOR) for chunk in want], (n, k)


def test_lines_refuse_an_empty_end():
    with pytest.raises(ValueError, match="non-empty end"):
        lines(3, end="")


def test_lines_chunks_at_the_benchmark_size():
    assert max(chunk.count("\n") for chunk in lines(11)) == _MAX_DIGIT_CHUNK == 536
    assert max(chunk.count("\n") for chunk in lines(12, 9)) == 9**3


def test_lines_keep_each_tail_once():
    # lines keeps the tails of a digit prefix as text only, and builds no
    # tuple table; measured in a fresh process, where nothing else is traced
    script = ("import tracemalloc\nfrom seprec import setpart\ntracemalloc.start()\n"
              "for _ in setpart.lines(11):\n    pass\nprint(tracemalloc.get_traced_memory()[1])\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 180 * 1024


def test_lines_refuse_bad_sizes_like_the_tuple_generators():
    for n, k in ((0, None), (MAX_WORD_LENGTH + 1, None), (3, 0), (3, 4), (MAX_WORD_LENGTH + 1, 1)):
        with pytest.raises(ValueError) as want:
            iterate_all(n) if k is None else iterate_with_k(n, k)
        # refused at call time, before any text
        with pytest.raises(ValueError) as got:
            lines(n, k)
        assert str(got.value) == str(want.value)


def test_parse_word():
    assert parse_word("12231") == (1, 2, 2, 3, 1)
    assert parse_word("1,2,10") == (1, 2, 10)
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        parse_word("1,x")
    with pytest.raises(ValueError):
        parse_word("102")  # bare digits read one letter at a time; 0 is invalid
    assert parse_word(" 1, 2 ,10 ") == (1, 2, 10)
    for text in ("\u0661\u0662", "1,1_0", "1,+2", "1,2,\u0661\u0660", "1,,2"):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_word(text)


@given(rgs_words)
def test_random_rgs_validate_and_roundtrip(word):
    assert validate(word) == word
    assert from_blocks(to_blocks(word)) == word


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n)), st.data())
def test_random_partition_in_any_block_order(labels, data):
    # element i lies in the block labelled labels[i - 1]; the canonical word
    # numbers the labels by their first occurrence
    groups = {}
    for i, label in enumerate(labels, start=1):
        groups.setdefault(label, set()).add(i)
    blocks = data.draw(st.permutations(list(groups.values())))
    first = {}
    word = tuple(first.setdefault(label, len(first) + 1) for label in labels)
    assert from_blocks(blocks) == word
    assert to_blocks(word) == sorted(sorted(b) for b in blocks)


@given(rgs_words)
def test_random_rgs_format_parse_roundtrip(word):
    assert parse_word(format_word(word)) == word
