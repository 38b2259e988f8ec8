import itertools

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
    with pytest.raises(ValueError, match="more than one block"):
        from_blocks([[1, 2], [2, 3]])
    with pytest.raises(ValueError, match="outside"):
        from_blocks([[1], [3]])
    with pytest.raises(ValueError, match="nonempty"):
        from_blocks([[1], []])


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


def test_long_words_stream_past_the_recursion_limit():
    n = 2000  # twice CPython's default recursion limit
    assert next(iterate_all(n)) == (1,) * n
    assert list(iterate_with_k(n, n)) == [tuple(range(1, n + 1))]
    prefix = tuple(range(1, 1501))
    words = complete_prefix(prefix, n)
    assert next(words) == prefix + (1,) * 500
    assert next(words) == prefix + (1,) * 499 + (2,)


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


def _word_text(word):
    """Text form of a word, built apart from format_word."""
    return "".join(map(str, word)) if max(word) <= 9 else ",".join(map(str, word))


# words over the positive integers of up to 300 letters, whose largest letter
# falls on either side of 9/10 and of 255/256
letter_words = st.sampled_from([9, 10, 255, 256, 10**6]).flatmap(
    lambda top: st.lists(st.integers(min_value=1, max_value=top), min_size=1, max_size=300)
)


@given(letter_words)
def test_format_word_matches_reference_on_random_words(letters):
    expected = _word_text(letters)
    assert format_word(tuple(letters)) == expected
    assert format_word(letters) == expected


def test_format_word_matches_reference_on_every_word():
    for n in range(1, 9):
        for word in iterate_all(n):
            expected = _word_text(word)
            assert format_word(word) == expected
            assert format_word(list(word)) == expected


def _lines_cases():
    for n in range(1, 11):
        yield n, None
        yield from ((n, k) for k in range(1, n + 1))
    # letters 10 and up print with commas; these listings mix both forms, and
    # some of their last-letter runs cross from 9 to 10
    for n in (11, 12):
        yield from ((n, k) for k in range(9, n + 1))


def test_lines_match_format_word_per_word():
    for n, k in _lines_cases():
        words = iterate_all(n) if k is None else iterate_with_k(n, k)
        chunks = list(lines(n, k))
        assert "".join(chunks) == "".join(format_word(w) + "\n" for w in words), (n, k)
        for chunk in chunks:
            assert chunk.endswith("\n")
            count = chunk.count("\n")
            assert count <= 9 and ("," not in chunk or count == 1), (n, k, chunk)


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


@given(rgs_words)
def test_random_rgs_format_parse_roundtrip(word):
    assert parse_word(format_word(word)) == word
