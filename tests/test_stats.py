import pytest
from hypothesis import given, strategies as st

from seprec.setpart import iterate_all
from seprec.stats import records, sep, sep_a, sep_by_positions, srec, swrec

words = st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=14).map(tuple)


def test_records_examples():
    assert records((1, 2, 2, 6, 3, 4)) == [(1, 1), (2, 2), (6, 4)]
    assert records((1, 2, 1, 1, 3, 2)) == [(1, 1), (2, 2), (3, 5)]
    assert records((7, 7, 7, 7)) == [(7, 1)]


def test_records_errors():
    with pytest.raises(ValueError):
        records(())
    with pytest.raises(ValueError):
        records((1, 0, 2))


def test_sep_a_examples():
    word = (1, 2, 1, 1, 3, 2)
    assert sep_a(word, 3) == 1 + 2 + 1 + 1
    assert sep_a(word, 2) == 1
    assert sep_a(word, 1) == 0
    assert sep_a((4, 1, 2), 4) == 0


def test_sep_a_rejects_non_records():
    with pytest.raises(ValueError):
        sep_a((1, 2, 1), 3)
    with pytest.raises(ValueError):
        sep_a((2, 1, 2), 1)  # 1 occurs but never as a record
    with pytest.raises(ValueError):
        sep_a((), 1)


def test_sep_examples():
    assert sep((1, 2, 1, 1, 3, 2)) == 6
    assert sep((1, 1, 1, 1)) == 0
    assert sep((1, 2, 3, 4)) == 10
    with pytest.raises(ValueError):
        sep(())


def test_srec_swrec_examples():
    assert srec((1, 2, 2, 6, 3, 4)) == 1 + 2 + 4
    assert swrec((1, 2, 2, 3, 1, 3)) == 1 * 1 + 2 * 2 + 3 * 4
    assert srec((5, 5, 5)) == 1
    assert swrec((1,)) == 1


def test_sep_is_sum_of_sep_a_over_records():
    for word in [(1, 2, 1, 1, 3, 2), (1, 1, 2, 1, 3), (3, 1, 4, 1, 5, 9, 2, 6)]:
        assert sep(word) == sum(sep_a(word, v) for v, _ in records(word))


@given(words)
def test_dual_formula_agrees_on_random_words(word):
    assert sep(word) == sep_by_positions(word)


@given(words)
def test_record_structure_on_random_words(word):
    recs = records(word)
    values = [v for v, _ in recs]
    positions = [p for _, p in recs]
    assert recs[0] == (word[0], 1)
    assert values == sorted(set(values))
    assert positions == sorted(set(positions))
    # every record strictly exceeds everything before it
    for v, p in recs:
        assert all(v > u for u in word[: p - 1])


@given(words)
def test_sep_dominates_each_sep_a(word):
    for v, _ in records(word):
        assert sep(word) >= sep_a(word, v)


@pytest.mark.parametrize("word, message", [
    ((), "records of an empty word are undefined"),
    ((1, 0, 2), "letters must be positive integers, got 0 at position 2"),
])
def test_dual_formula_error_messages(word, message):
    with pytest.raises(ValueError) as info:
        sep_by_positions(word)
    assert str(info.value) == message


def test_dual_formula_exhaustive_on_canonical_forms():
    for n in range(1, 9):
        for w in iterate_all(n):
            assert sep(w) == sep_by_positions(w)


def test_canonical_records_are_first_occurrences():
    for n in range(1, 8):
        for w in iterate_all(n):
            k = max(w)
            assert records(w) == [(v, w.index(v) + 1) for v in range(1, k + 1)]


def test_canonical_sep_a_includes_smaller_record_offset():
    # before record a sit the records 1..a-1, so sep_a >= a(a-1)/2
    for n in range(1, 8):
        for w in iterate_all(n):
            for a in range(1, max(w) + 1):
                assert sep_a(w, a) >= a * (a - 1) // 2
