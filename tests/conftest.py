"""The word-listing reference of the test suite: canonical words (restricted
growth strings) grown as text one letter at a time, in lexicographic order,
calling nothing in ``seprec``.  Tests name the listings they compare by digest
in ``listings`` marks, as (n, k, format) triples with k None for all words of
length n; the session's ``reference`` walks each length once, for all that the
marks name, when a test first asks for one."""
import collections
import csv
import functools
import hashlib
import io
import itertools
import json
import types

import pytest


def pytest_configure(config):
    config.addinivalue_line("markers", "listings(*cases): the (n, k, format) listings a test compares by digest")


def _word_text(word):
    """Text form of a word, built apart from setpart.format_word."""
    return ("" if max(word) <= 9 else ",").join(map(str, word))


def _grown(groups, low, high, left):
    """The words one letter longer than those of ``groups`` (largest letter,
    texts) in order, as groups again: per word with largest letter top, the
    letters 1..top, then top + 1; none past high, and none that leaves the
    ``left`` letters still to come unable to reach largest letter low."""
    for top, texts in groups:
        sep = "" if top <= 9 else ","
        for text in texts:
            if top + left >= low:
                yield top, [f"{text}{sep}{a}" for a in range(1, top + 1)]
            if top < high:  # the text takes commas once a letter passes 9
                yield top + 1, [(",".join(text) + "," if top == 9 else text + sep) + str(top + 1)]


def _canonical_groups(n, low, high, prefix=(1,)):
    """The canonical words of length n that start with ``prefix``, with
    largest letter in low..high (one must exist), streamed as groups."""
    groups = iter([(max(prefix), [_word_text(prefix)])])
    for left in reversed(range(n - len(prefix))):
        groups = _grown(groups, low, high, left)
    return groups


def _canonical_texts(n, k=None, prefix=(1,)):
    """Texts of the canonical words of length n that start with ``prefix``
    and have largest letter k (any when None), in lexicographic order."""
    groups = _canonical_groups(n, *((1, n) if k is None else (k, k)), prefix)
    return (text for _, texts in groups for text in texts)


class _HashSink(io.RawIOBase):
    """Binary sink that keeps only the sha256 and the size of what it takes."""

    def __init__(self):
        self.sha, self.size = hashlib.sha256(), 0

    def writable(self):
        return True

    def write(self, data):
        self.sha.update(data)
        self.size += len(data)
        return len(data)


def _hashed():
    """A text stream that keeps only its size and sha256, and a function that
    flushes it and returns them."""
    sink = _HashSink()
    out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="ascii", newline="\n")
    return out, lambda: out.flush() or (sink.size, sink.sha.hexdigest())


def _digest(write):
    """The value of ``write(stream)``, and the size and sha256 of the text it
    wrote to the text stream."""
    out, finish = _hashed()
    return (write(out), *finish())


class _Pushed(list):
    """The one-item list [deque], which json encodes as the list of the texts
    it pops from the deque up to a None (json takes no generator)."""

    def __iter__(self):
        return iter(self[0].popleft, None)


def _listing_writer(n, k, count, fmt):
    """Functions that write batches of word texts as ``enumerate --n n --k k
    --format fmt`` would, and that end the listing, returning its size and
    sha256: plain lines, csv.writer's rows, or json's own encoder (the one
    json.dump runs), stepped only while a pushed text waits for it."""
    out, finish = _hashed()
    if fmt == "plain":
        return (lambda texts: out.write("\n".join(texts) + "\n")), finish
    if fmt == "csv":
        table = csv.writer(out, lineterminator="\n")
        table.writerow(["word"])
        return (lambda texts: table.writerows(zip(texts))), finish
    pending = collections.deque()
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(
        {"command": "enumerate", "params": {"n": n, "k": k}, "result": {"count": count, "words": _Pushed([pending])}})

    def write(texts):
        pending.extend(texts)
        while pending:
            out.write(next(chunks))

    def end():
        pending.append(None)
        out.writelines([*chunks, "\n"])
        return finish()

    return write, end


def _walk(n, wanted):
    """One walk of the words of length n: per block count k it reaches, and
    None for all, {"count": words, format: (size, sha256)} with a digest for
    each format in ``wanted[k]``."""
    if not wanted:
        raise KeyError(f"no listings mark names a listing of length {n}")
    ks = [k for k in wanted if k is not None]
    stirling = [1]  # S(n, 0..n), for json's count, by S(m, j) = j S(m-1, j) + S(m-1, j-1)
    for _ in range(n):
        stirling = [0] + [j * s + t for j, (s, t) in enumerate(zip(stirling[1:] + [0], stirling), start=1)]
    writers = {(k, fmt): _listing_writer(n, k, sum(stirling) if k is None else stirling[k], fmt)
               for k, formats in wanted.items() for fmt in formats}
    counts = collections.Counter()
    groups = _canonical_groups(n, *((1, n) if None in wanted else (min(ks), max(ks))))
    while batch := list(itertools.islice(groups, 1024)):
        by_k = collections.defaultdict(list, {None: [text for _, texts in batch for text in texts]})
        for top, texts in batch:
            by_k[top] += texts
        for k, texts in by_k.items():
            counts[k] += len(texts)
            for fmt in wanted.get(k, ()):
                writers[k, fmt][0](texts)
    listing = {k: {"count": count} for k, count in counts.items()}
    for (k, fmt), (_, end) in writers.items():
        listing[k][fmt] = end()
    return listing


@pytest.fixture(scope="session")
def reference(request):
    """The reference functions that tests call, and ``listing(n)[k]``: the
    listing (n, k) as {"count": words, format: (size, sha256)}, with the
    formats that marks name."""
    wanted = collections.defaultdict(lambda: collections.defaultdict(set))
    for item in request.session.items:
        for mark in item.iter_markers("listings"):
            for n, k, fmt in mark.args:
                wanted[n][k].add(fmt)
    return types.SimpleNamespace(listing=functools.cache(lambda n: _walk(n, wanted[n])), word_text=_word_text,
                                 canonical_texts=_canonical_texts, digest=_digest)
