#!/usr/bin/env python3
"""The record statistics: sep, sep_a, srec, swrec.

A letter is a record when it beats everything before it.  sep_a sums the
letters strictly before record a; sep adds that up over all records.  On a
canonical word with k blocks the records are exactly the first occurrences of
1, ..., k, which is what makes these statistics tractable on set partitions.
"""
from seprec import iterate_all, records, sep, sep_a, sep_by_positions, srec, swrec

word = (1, 2, 1, 1, 3, 2)
print(f"word 121132: records (value, position) = {records(word)}")
print(f"  sep_1 = {sep_a(word, 1)} (nothing precedes the first letter)")
print(f"  sep_2 = {sep_a(word, 2)}")
print(f"  sep_3 = {sep_a(word, 3)} (= 1 + 2 + 1 + 1)")
print(f"  sep   = {sep(word)} (sum of the above)")
print()

print("srec sums record positions, swrec weights each position by its value:")
for w in ((1, 2, 2, 6, 3, 4), (1, 2, 2, 3, 1, 3), (5, 5, 5)):
    print(f"  {w}: records={records(w)} srec={srec(w)} swrec={swrec(w)}")
print()

print("two independent formulas for sep agree (per-record prefix sums vs")
print("counting, for each letter, the records that come after it):")
for n in range(1, 8):
    assert all(sep(w) == sep_by_positions(w) for w in iterate_all(n))
print("  checked on every canonical word up to n = 7")
print()

print("every record list on canonical words is 1..k at first occurrences:")
for w in iterate_all(4):
    k = max(w)
    assert [v for v, _ in records(w)] == list(range(1, k + 1))
    print(f"  {''.join(map(str, w))}: k={k} records={records(w)} sep={sep(w)}")
