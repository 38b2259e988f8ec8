#!/usr/bin/env python3
"""Set partitions as canonical words: validation, block form, enumeration.

A partition of [n] = {1, ..., n} with blocks ordered by increasing minima is
written as the word whose i-th letter names the block containing i.  Those
words are exactly the restricted growth strings; this demo walks through the
basic plumbing.
"""
from seprec import (
    bell,
    format_word,
    from_blocks,
    iterate_all,
    iterate_with_k,
    split_by_prefix,
    stirling2,
    to_blocks,
    validate,
)

word = validate([1, 2, 2, 3, 1])
print(f"word {format_word(word)} encodes blocks {to_blocks(word)}")
print(f"and the blocks map back to {format_word(from_blocks(to_blocks(word)))}")
print()

print("all partitions of [4], lexicographic:")
for w in iterate_all(4):
    print(f"  {format_word(w)}  blocks={to_blocks(w)}")
print()

print("stream counts match the classical counting numbers:")
for n in range(1, 9):
    total = sum(1 for _ in iterate_all(n))
    print(f"  n={n}: {total} words, Bell number B_{n} = {bell(n)}")
print()

n, k = 6, 3
count = sum(1 for _ in iterate_with_k(n, k))
print(f"words of length {n} with exactly {k} blocks: {count} = S({n},{k}) = {stirling2(n, k)}")
print()

print("the stream splits cleanly by prefix (the pieces concatenate to the whole stream):")
for prefix, sub in split_by_prefix(5, 2):
    words = list(sub)
    print(f"  prefix {format_word(prefix)}: {len(words)} words, "
          f"first {format_word(words[0])}, last {format_word(words[-1])}")
