"""Traced run: spans at the boundaries of the seprec modules, and per-layer timings.

The traced run has two parts.

1. The workload's command list runs in-process through ``seprec.cli.main``,
   in the seeded order, with stdout hashed and counted instead of printed.
   Coarse public functions of every module get a span (name, parent, first
   int argument, start, end); each verify suite gets a ``cli.verify.<suite>``
   span.  Hot per-word functions get no span: the setpart generators are
   counted per yielded word, ``stats.sep`` and ``QPoly.__mul__`` per call.
   These counts and the per-command CLI self time come from this part.
2. Layer probes time each module on its own at fixed sizes, with the
   counters removed.  Hot per-word functions are timed in dedicated loops over
   pre-built word lists.  The probes do the same work on every workload, so
   every per-layer metric exists on every workload.

Spans are kept in memory and written to ``perfbench/out/`` at the end.  A
layer's self time is its spans' time minus the time covered by their child
spans.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from itertools import islice
from math import factorial
from operator import itemgetter
from pathlib import Path

import workloads as wl

OUT_DIR = Path(__file__).resolve().parent / "out"

# Coarse public functions that get one span per call, by module.
SPANNED = {
    "setpart": ("split_by_prefix",),
    "oracle": ("brute_totals_by_k", "brute_total", "brute_total_nk", "brute_distribution_a"),
    "counting": ("bell", "stirling2"),
    "series": ("distribution_series", "sep_totals_by_length", "word_sum_factor",
               "word_count_factor", "format_series"),
    "formulas": ("total_sep_n", "total_sep_nk", "rational_series_totals", "pfd_coeffs",
                 "pfd_oracle", "pfd_value", "pfd_target_value", "egf_coeffs", "bell_egf",
                 "bell_shift_identities_check"),
    "asymptotics": ("sweep", "sweep_csv", "estimate_ratio", "bell_shift_error", "solve_r"),
}
STREAMS = ("iterate_all", "iterate_with_k", "complete_prefix")
MODULES = ("setpart", "stats", "oracle", "counting", "series", "formulas", "asymptotics", "cli")


@dataclass(frozen=True)
class Sizes:
    verify_n: int        # verify suites and oracle probes, on workloads that run verify
    verify_n_light: int  # the same probes elsewhere, where they only need to exist
    word_n: int          # iterate_all / iterate_with_k / complete_prefix probes
    fmt_n: int           # format_word and per-word statistics probes
    prefix_depth: int
    series_k: int        # sep_totals_by_length for k <= series_k at order series_order
    series_order: int
    dist: tuple[int, int, int]
    pfd_ks: tuple[int, ...]
    egf_order: int
    stirling_n: int      # cold S(n, .) row
    bell_n: int          # cold B_n
    total_n: int         # total_sep_n with a warm table
    nk_n: int            # total_sep_nk(n, k) for all k
    solve_r_max: int
    asym_ns: tuple[int, ...]


FULL = Sizes(11, 10, 12, 11, 4, 20, 20, (10, 10, 40), tuple(range(1, 101)) + (200,), 200,
             200, 3003, 3000, 200, 1000, (50, 100, 200, 400, 1000))
SMOKE = Sizes(6, 5, 7, 7, 4, 8, 8, (4, 4, 10), tuple(range(1, 11)) + (20,), 30,
              30, 303, 300, 30, 100, (50, 100))

CHUNK = 50_000  # words per pre-built list in the per-word probes


class Tracer:
    """In-memory spans and counters, installed by patching module attributes."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, int arg or None, start, end]
        self._stack: list[int] = []
        self.calls: dict[str, list[int]] = {}
        self.streams: list[itertools.count] = []
        self._patched: dict[str, list] = {"spans": [], "counters": []}

    def _open(self, name: str, arg) -> int:
        i = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, arg, time.perf_counter(), 0.0])
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self._stack.pop()
        self.spans[i][4] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, arg=None):
        i = self._open(name, arg)
        try:
            yield
        finally:
            self._close(i)

    def spanned(self, name: str, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(name, args[0] if args and type(args[0]) is int else None)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)
        return traced

    def counted(self, name: str, fn):
        cell = self.calls.setdefault(name, [0])

        @functools.wraps(fn)
        def counted_call(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted_call

    def counted_stream(self, fn):
        streams = self.streams

        @functools.wraps(fn)
        def counted_gen(*args, **kwargs):
            counter = itertools.count()
            streams.append(counter)
            # zip stops on the stream's end before advancing the counter, so
            # next(counter) afterwards is the number of words yielded.
            return map(itemgetter(0), zip(fn(*args, **kwargs), counter))
        return counted_gen

    def words_yielded(self) -> int:
        total = sum(next(c) for c in self.streams)
        self.streams.clear()
        return total

    def install(self, group: str, replacements: dict, containers) -> None:
        """Replace every binding of a replaced object, in modules (``from x
        import f`` makes a second binding), classes and dicts."""
        by_id = {id(old): new for old, new in replacements.items()}
        log = self._patched[group]
        for c in containers:
            items = list(c.items()) if isinstance(c, dict) else list(vars(c).items())
            for key, value in items:
                new = by_id.get(id(value))
                if new is not None:
                    log.append((c, key, value))
                    if isinstance(c, dict):
                        c[key] = new
                    else:
                        setattr(c, key, new)

    def uninstall(self, group: str) -> None:
        log = self._patched[group]
        for c, key, old in reversed(log):
            if isinstance(c, dict):
                c[key] = old
            else:
                setattr(c, key, old)
        log.clear()

    def covered(self) -> list[float]:
        """Per span: the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child


def _seprec_modules():
    import seprec
    mods = {name: importlib.import_module(f"seprec.{name}") for name in MODULES}
    return seprec, mods


def install_spans(tracer: Tracer) -> None:
    seprec, mods = _seprec_modules()
    repl = {}
    for mod, names in SPANNED.items():
        for name in names:
            repl[getattr(mods[mod], name)] = tracer.spanned(f"{mod}.{name}", getattr(mods[mod], name))
    cli = mods["cli"]
    for suite, fn in cli._SUITES.items():
        repl[fn] = tracer.spanned(f"cli.verify.{suite}", fn)
    tracer.install("spans", repl, [seprec, *mods.values(), cli._SUITES])


def install_counters(tracer: Tracer) -> None:
    seprec, mods = _seprec_modules()
    setpart, stats, series = mods["setpart"], mods["stats"], mods["series"]
    repl = {getattr(setpart, name): tracer.counted_stream(getattr(setpart, name)) for name in STREAMS}
    repl[stats.sep] = tracer.counted("stats.sep.calls", stats.sep)
    repl[series.QPoly.__mul__] = tracer.counted("series.qpoly_mul.calls", series.QPoly.__mul__)
    cli = mods["cli"]
    tracer.install("counters", repl, [seprec, *mods.values(), series.QPoly, cli._PLAIN_STATS])


class HashSink(io.RawIOBase):
    """Binary sink that keeps only the sha256 and the byte count."""

    def __init__(self):
        self.hash = hashlib.sha256()
        self.nbytes = 0

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.hash.update(b)
        self.nbytes += len(b)
        return len(b)


def call_main(tracer: Tracer, span_name: str, argv):
    """Run ``seprec.cli.main(argv)`` in-process under a span, with stdout
    hashed.  Returns (exit code, sha256, stdout bytes, stderr text, seconds)."""
    from seprec import cli
    sink = HashSink()
    out = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8", newline="\n")
    err = io.StringIO()
    saved = sys.stdout, sys.stderr, os.environ.get("SEPREC_WORKERS")
    sys.stdout, sys.stderr = out, err
    os.environ["SEPREC_WORKERS"] = str(wl.WORKERS)
    try:
        start = time.perf_counter()
        with tracer.span(span_name):
            code = cli.main(list(argv))
            out.flush()
        seconds = time.perf_counter() - start
    finally:
        sys.stdout, sys.stderr = saved[0], saved[1]
        if saved[2] is None:
            os.environ.pop("SEPREC_WORKERS", None)
        else:
            os.environ["SEPREC_WORKERS"] = saved[2]
    return code, sink.hash.hexdigest(), sink.nbytes, err.getvalue(), seconds


def drain(stream) -> int:
    """Consume a stream at C speed and return its length."""
    counter = itertools.count()
    deque(zip(stream, counter), maxlen=0)
    return next(counter)


class Probes:
    """Per-layer timings at fixed sizes; the same work on every workload.

    Probes of coarse calls (verify suites, the two-worker oracle, the series
    sweep) run with the tracer installed, as in the pass, and read their
    times from spans.  When the workload's pass already made exactly that
    call (the verify suites, the series sweep), the probe reads the pass's
    spans instead of repeating the work.  Hot per-word loops run on the
    unpatched functions.
    """

    def __init__(self, tracer: Tracer, sizes: Sizes, root: Path, workload: wl.Workload,
                 pass_spans: dict[tuple, int], cost: dict[str, float]):
        self.tracer, self.sizes, self.root = tracer, sizes, root
        # Workloads that run no verify only need these metrics to exist; a
        # smaller size keeps their traced run short.
        runs_verify = any(cmd.argv[0] == "verify" for cmd in workload.commands)
        self.verify_n = sizes.verify_n if runs_verify else sizes.verify_n_light
        self.cost = cost  # the tracer's own cost, from calibrate()
        self.pass_spans = pass_spans  # argv of each pass command that exited 0 -> its span
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(what)

    @contextlib.contextmanager
    def timed(self, name: str):
        """Time a block under a probe span and record it as metric ``name``."""
        start = time.perf_counter()
        with self.tracer.span(f"probe.{name}"):
            yield
        self.metrics[name] = (time.perf_counter() - start, "s")

    @contextlib.contextmanager
    def installed(self):
        install_spans(self.tracer)
        install_counters(self.tracer)
        try:
            yield
        finally:
            self.tracer.uninstall("counters")
            self.tracer.uninstall("spans")

    def from_pass(self, argv):
        """The span of the pass command ``argv``, if the pass ran it."""
        i = self.pass_spans.get(tuple(argv))
        return None if i is None else self.tracer.spans[i]

    def within(self, outer, name: str) -> list[list]:
        return [s for s in self.tracer.spans
                if s[0] == name and s[3] >= outer[3] and s[4] <= outer[4]]

    def probe_region(self, name: str):
        """A probe span covering a block, for reading the spans inside it."""
        return self.tracer.span(f"probe.{name}")

    def last_span(self, name: str):
        return next(s for s in reversed(self.tracer.spans) if s[0] == name)

    def verify_suites(self) -> None:
        """Each suite at the verify size with one worker: its span time, and
        from spans inside it the oracle's one-worker time."""
        from seprec import cli
        n = self.verify_n
        outer = self.from_pass(("verify", "--max-n", str(n)))
        if outer is None:
            with self.installed(), self.probe_region("cli.verify"):
                for suite in cli._SUITES:
                    code = call_main(self.tracer, "probe.cli.main",
                                     ("verify", "--suites", suite, "--max-n", str(n)))[0]
                    self.check(code == 0, f"verify suite {suite} exit {code}")
            outer = self.last_span("probe.cli.verify")
        suites = {suite: self.within(outer, f"cli.verify.{suite}")[0] for suite in cli._SUITES}
        for suite, span in suites.items():
            self.metrics[f"cli.verify.{suite}_s"] = (span[4] - span[3], "s")
        w1 = [s for s in self.within(suites["totals"], "oracle.brute_totals_by_k") if s[2] == n]
        self.metrics["oracle.brute_totals_by_k.w1_s"] = (w1[0][4] - w1[0][3], "s")
        self.metrics["formulas.rational_series_totals_s"] = (
            _total(self.within(suites["totals"], "formulas.rational_series_totals")), "s")
        self.metrics["oracle.brute_distribution_a_s"] = (
            _total(self.within(suites["distribution"], "oracle.brute_distribution_a")), "s")

    def oracle_two_workers(self) -> None:
        from seprec import formulas, oracle
        n = self.verify_n
        with self.installed(), self.probe_region("oracle.w2"):
            totals = oracle.brute_totals_by_k(n, workers=2)
        self.check(all(totals[k] == formulas.total_sep_nk(n, k) for k in range(1, n + 1)),
                   "two-worker totals match the closed form")
        w2 = [s for s in self.within(self.last_span("probe.oracle.w2"), "oracle.brute_totals_by_k")
              if s[2] == n][0]
        w1 = self.metrics["oracle.brute_totals_by_k.w1_s"][0]
        self.metrics["oracle.brute_totals_by_k.w2_s"] = (w2[4] - w2[3], "s")
        self.metrics["oracle.speedup_w2"] = (w1 / (w2[4] - w2[3]), "ratio")

    def setpart_streams(self) -> None:
        from seprec import setpart
        n, depth = self.sizes.word_n, self.sizes.prefix_depth
        words = wl.bell_number(n)
        start = time.perf_counter()
        count = drain(setpart.iterate_all(n))
        self.metrics["setpart.iterate_all.ns_per_word"] = ((time.perf_counter() - start) / words * 1e9, "ns")
        self.check(count == words, f"iterate_all({n}) yields B_{n}")

        elapsed = 0.0
        for k in range(1, n + 1):
            start = time.perf_counter()
            count = drain(setpart.iterate_with_k(n, k))
            elapsed += time.perf_counter() - start
            self.check(count == wl.stirling2_number(n, k), f"iterate_with_k({n},{k}) yields S({n},{k})")
        self.metrics["setpart.iterate_with_k.ns_per_word"] = (elapsed / words * 1e9, "ns")

        # The oracle's two-worker fan-out hands out exactly these chunks.
        elapsed = 0.0
        chunks = []
        for prefix in list(setpart.iterate_all(depth)):
            start = time.perf_counter()
            chunks.append(drain(setpart.complete_prefix(prefix, n)))
            elapsed += time.perf_counter() - start
        self.check(sum(chunks) == words, f"depth-{depth} chunks cover B_{n}")
        mean = sum(chunks) / len(chunks)
        self.metrics["setpart.complete_prefix.ns_per_word"] = (elapsed / words * 1e9, "ns")
        self.metrics["oracle.chunk_words_max"] = (max(chunks), "count")
        self.metrics["oracle.chunk_words_mean"] = (mean, "count")
        self.metrics["oracle.chunk_imbalance"] = (max(chunks) / mean, "ratio")

    def per_word(self) -> None:
        """format_word and the per-word statistics over pre-built lists."""
        from seprec import formulas, setpart, stats
        n = self.sizes.fmt_n
        t = {"fmt": 0.0, "sep": 0.0, "sep_a": 0.0, "pos": 0.0}
        sep_total = pos_total = 0
        stream = setpart.iterate_all(n)
        while chunk := list(islice(stream, CHUNK)):
            tops = [max(w) for w in chunk]
            t0 = time.perf_counter()
            deque(map(setpart.format_word, chunk), maxlen=0)
            t1 = time.perf_counter()
            sep_total += sum(map(stats.sep, chunk))
            t2 = time.perf_counter()
            deque(map(stats.sep_a, chunk, tops), maxlen=0)
            t3 = time.perf_counter()
            pos_total += sum(map(stats.sep_by_positions, chunk))
            t4 = time.perf_counter()
            t["fmt"] += t1 - t0
            t["sep"] += t2 - t1
            t["sep_a"] += t3 - t2
            t["pos"] += t4 - t3
        words = wl.bell_number(n)
        self.check(sep_total == pos_total == formulas.total_sep_n(n),
                   f"sep and sep_by_positions totals over B_{n} match the closed form")
        for key, name in (("fmt", "setpart.format_word"), ("sep", "stats.sep"),
                          ("sep_a", "stats.sep_a"), ("pos", "stats.sep_by_positions")):
            self.metrics[f"{name}.ns_per_word"] = (t[key] / words * 1e9, "ns")

    def oracle_self(self) -> None:
        """The one-worker oracle time less its words' setpart and stats cost,
        and less what the tracer's word and call counters added to it."""
        n = self.verify_n
        per_word = (self.metrics["setpart.iterate_all.ns_per_word"][0] * 1e-9
                    + self.metrics["stats.sep.ns_per_word"][0] * 1e-9
                    + self.cost["word"] + self.cost["call"])
        w1 = self.metrics["oracle.brute_totals_by_k.w1_s"][0]
        self.metrics["oracle.self_s"] = (w1 - wl.bell_number(n) * per_word, "s")

    COLD = (
        "import json, sys, time\n"
        "from seprec import counting, formulas\n"
        "ns, nb, nt = map(int, sys.argv[1:])\n"
        "t = time.perf_counter(); row = [counting.stirling2(ns, k) for k in range(ns + 1)]\n"
        "st = time.perf_counter() - t\n"
        "t = time.perf_counter(); counting.bell(nb); bt = time.perf_counter() - t\n"
        "t = time.perf_counter(); formulas.total_sep_n(nt); tt = time.perf_counter() - t\n"
        "print(json.dumps({'stirling2': st, 'bell': bt, 'total_sep_n': tt,\n"
        "                  'row_mod': sum(row) % 1000000007}))\n"
    )

    def cold_tables(self) -> None:
        """Bell and Stirling tables from empty, in a fresh interpreter."""
        s = self.sizes
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with self.tracer.span("probe.counting.cold"):
            proc = subprocess.run(
                [sys.executable, "-c", self.COLD, str(s.stirling_n), str(s.bell_n), str(s.total_n)],
                cwd=self.root, env=env, capture_output=True, text=True, timeout=150)
        self.check(proc.returncode == 0, f"cold-table probe exit {proc.returncode}: {proc.stderr[-200:]}")
        got = json.loads(proc.stdout)
        self.check(got["row_mod"] == wl.bell_number(s.stirling_n) % 1000000007,
                   f"S({s.stirling_n}, .) row sums to B_{s.stirling_n}")
        self.metrics["counting.stirling2.cold_s"] = (got["stirling2"], "s")
        self.metrics["counting.bell.cold_s"] = (got["bell"], "s")
        self.metrics["formulas.total_sep_n_s"] = (got["total_sep_n"], "s")

    def series(self) -> None:
        from seprec import formulas, series
        s = self.sizes
        order = s.series_order
        outer = None
        if s.series_k == order:
            outer = self.from_pass(("total", "--method", "series", "--n", str(order)))
        if outer is None:
            with self.installed(), self.probe_region("series.totals"):
                totals = [series.sep_totals_by_length(k, order) for k in range(1, s.series_k + 1)]
            self.check(all(t[order] == formulas.total_sep_nk(order, k)
                           for k, t in enumerate(totals, start=1)),
                       "series totals match the closed form")
            outer = self.last_span("probe.series.totals")
        self.metrics["series.sep_totals_by_length_s"] = (
            _total(self.within(outer, "series.sep_totals_by_length")), "s")

        k, a, order = s.dist
        outer = self.from_pass(("series", "--k", str(k), "--a", str(a), "--order", str(order)))
        if outer is None:
            with self.installed(), self.probe_region("series.distribution"):
                xs = series.distribution_series(k, a, order)
            self.check(xs.coefficient(order).at_one() == wl.stirling2_number(order, k),
                       f"distribution series coefficient counts S({order},{k})")
            outer = self.last_span("probe.series.distribution")
        self.metrics["series.distribution_series_s"] = (
            _total(self.within(outer, "series.distribution_series")), "s")

    def formulas(self) -> None:
        from seprec import counting, formulas
        s = self.sizes
        with self.timed("formulas.pfd_oracle_s"):
            oracle_tables = [formulas.pfd_oracle(k) for k in s.pfd_ks]
        with self.timed("formulas.pfd_coeffs_s"):
            closed_tables = [formulas.pfd_coeffs(k) for k in s.pfd_ks]
        self.check(oracle_tables == closed_tables, "partial fraction routes agree")
        with self.timed("formulas.egf_coeffs_s"):
            coeffs = formulas.egf_coeffs(s.egf_order)
        self.check(coeffs[s.egf_order] * factorial(s.egf_order) == formulas.total_sep_n(s.egf_order),
                   "egf coefficient matches the Bell-number total")
        counting.stirling2(s.nk_n, 1)  # warm table: the probe times the sum, not the table
        with self.timed("formulas.total_sep_nk_s"):
            by_k = sum(formulas.total_sep_nk(s.nk_n, k) for k in range(1, s.nk_n + 1))
        self.check(by_k == formulas.total_sep_n(s.nk_n), "per-k totals sum to the Bell-number total")

    def asymptotics(self) -> None:
        from seprec import asymptotics, counting
        s = self.sizes
        with self.timed("asymptotics.solve_r_s"):
            roots = [asymptotics.solve_r(n) for n in range(1, s.solve_r_max + 1)]
        self.check(all(r > 0 for r in roots), "solve_r roots are positive")
        counting.bell(max(s.asym_ns) + 3)  # warm table
        with self.timed("asymptotics.estimate_ratio_s"):
            reports = [asymptotics.estimate_ratio(n) for n in s.asym_ns]
        self.check(all(abs(r.ratio - 1) < 0.5 for r in reports), "asymptotic ratios near 1")

    def run_all(self) -> None:
        self.verify_suites()
        self.setpart_streams()
        self.per_word()
        self.oracle_two_workers()
        self.oracle_self()
        self.cold_tables()
        self.series()
        self.formulas()
        self.asymptotics()


def _total(spans) -> float:
    return sum(s[4] - s[3] for s in spans)


def _median_loop(fn, reps: int = 5) -> float:
    return statistics.median(fn() for _ in range(reps))


def calibrate() -> dict[str, float]:
    """Seconds the tracer adds per span, per counted call and per counted word."""
    t = Tracer()
    bare = lambda x: x  # noqa: E731
    spanned, counted = t.spanned("calibrate", bare), t.counted("calibrate", bare)
    n, m = 20_000, 200_000

    def per_call(fn):
        def once():
            start = time.perf_counter()
            for i in range(n):
                fn(i)
            return (time.perf_counter() - start) / n
        return _median_loop(once)

    def per_word(wrap: bool):
        def once():
            start = time.perf_counter()
            if wrap:
                deque(map(itemgetter(0), zip(iter(range(m)), itertools.count())), maxlen=0)
            else:
                deque(iter(range(m)), maxlen=0)
            return (time.perf_counter() - start) / m
        return _median_loop(once)

    base = per_call(bare)
    t.spans.clear()
    return {
        "span": max(per_call(spanned) - base, 0.0),
        "call": max(per_call(counted) - base, 0.0),
        "word": max(per_word(True) - per_word(False), 0.0),
    }


def traced(root: Path, workload: wl.Workload, seed: int, smoke: bool):
    """The traced run; returns (correct, attempted, failed, {name: (value, unit)})."""
    sys.path.insert(0, str(root / "src"))
    import seprec  # noqa: F401  (the checkout's package, from src/)

    rng = random.Random(seed)
    digests = json.loads((Path(__file__).resolve().parent / "digests.json").read_text())
    tracer = Tracer()
    attempted = failed = 0
    correct = True
    problems = []

    # Part 1: the workload's commands, in-process, with spans and counters.
    install_spans(tracer)
    install_counters(tracer)
    per_cmd = {}
    try:
        pass_start = time.perf_counter()
        for cmd in wl.seeded_order(workload.commands, rng):
            first = len(tracer.spans)
            code, digest, nbytes, err, seconds = call_main(tracer, f"cli.{cmd.id}", cmd.argv)
            per_cmd[cmd.id] = {"span": first, "bytes": nbytes, "seconds": seconds, "code": code}
            attempted += 1
            if code != 0 or digest != digests.get(cmd.key):
                failed += 1
                last = (err.strip().splitlines() or [""])[-1]
                problems.append(f"{cmd.id}: exit code {code}: {last}" if code
                                else f"{cmd.id}: stdout differs from the frozen digest")
                if code != 2:
                    correct = False
        pass_wall = time.perf_counter() - pass_start
    finally:
        tracer.uninstall("counters")
        tracer.uninstall("spans")
    pass_spans = len(tracer.spans)
    words = tracer.words_yielded()
    sep_calls = tracer.calls["stats.sep.calls"][0]
    qpoly_calls = tracer.calls["series.qpoly_mul.calls"][0]
    covered = tracer.covered()
    self_by_layer = layer_self_times(tracer, covered)
    cli_self = sum(tracer.spans[c["span"]][4] - tracer.spans[c["span"]][3] - covered[c["span"]]
                   for c in per_cmd.values())

    # Part 2: the layer probes.
    ran = {cmd.argv: per_cmd[cmd.id]["span"] for cmd in workload.commands if per_cmd[cmd.id]["code"] == 0}
    cost = calibrate()
    probes = Probes(tracer, SMOKE if smoke else FULL, root, workload, ran, cost)
    probes.run_all()
    attempted += probes.attempted
    failed += len(probes.problems)
    if probes.problems:
        correct = False
        problems.extend(probes.problems)

    overhead = pass_spans * cost["span"] + (sep_calls + qpoly_calls) * cost["call"] + words * cost["word"]

    metrics = dict(probes.metrics)
    metrics.update({
        "setpart.words_yielded": (words, "count"),
        "stats.sep.calls": (sep_calls, "count"),
        "series.qpoly_mul.calls": (qpoly_calls, "count"),
        "cli.self_s": (cli_self, "s"),
        "cli.stdout_bytes": (sum(c["bytes"] for c in per_cmd.values()), "bytes"),
        "trace_overhead_s": (overhead, "s"),
    })

    write_spans(tracer, workload, seed, smoke)
    print(f"# traced workload {workload.name}: in-process pass {pass_wall:.4f} s, "
          f"verify and oracle probes at n = {probes.verify_n}, {pass_spans} spans, "
          f"tracer cost {cost['span'] * 1e9:.0f} ns/span, {cost['call'] * 1e9:.0f} ns/counted call, "
          f"{cost['word'] * 1e9:.0f} ns/counted word")
    for cid, c in per_cmd.items():
        s = tracer.spans[c["span"]]
        print(f"#   cli.self_s[{cid}] = {s[4] - s[3] - covered[c['span']]:.6g} s, "
              f"cli.stdout_bytes[{cid}] = {c['bytes']}, wall {c['seconds']:.4f} s, exit {c['code']}")
    for layer, seconds in sorted(self_by_layer.items()):
        print(f"#   self time in pass, {layer}: {seconds:.6g} s")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"# {name} = {value:.6g} {unit}")
    for p in problems:
        print(f"# FAILED {p}")
    return correct, attempted, failed, metrics


def layer_self_times(tracer: Tracer, covered: list[float]) -> dict[str, float]:
    """Self time per module over the spans recorded so far."""
    out: dict[str, float] = {}
    for i, (name, _, _, start, end) in enumerate(tracer.spans):
        layer = name.split(".", 1)[0]
        if layer in MODULES:
            out[layer] = out.get(layer, 0.0) + (end - start - covered[i])
    return out


def write_spans(tracer: Tracer, workload: wl.Workload, seed: int, smoke: bool) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    tag = "smoke-" if smoke else ""
    path = OUT_DIR / f"trace-{tag}{workload.name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "parent", "arg", "start", "end"], "spans": tracer.spans}, fh)
