"""Workload definitions and output checks for the seprec benchmark.

A workload is a fixed list of ``seprec`` CLI invocations.  Each command has a
short id (used for per-command metrics and in the report), its argv after
``python -m seprec.cli``, and the checks its stdout must pass.  The commands
and their expected outputs never depend on the benchmark seed; the seed only
permutes the order in which a pass runs them.

Every check here is independent of the package: Bell and Stirling numbers
and the restricted-growth test are recomputed locally, so a bug in
``seprec.counting`` or ``seprec.setpart`` cannot hide itself.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field


def bell_number(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def stirling2_number(n: int, k: int) -> int:
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        row = [0] + [j * (row[j] if j < len(row) else 0) + row[j - 1] for j in range(1, m + 1)]
    return row[k] if k <= n else 0


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    ``check`` names the semantic check (see :func:`check_output`);
    ``same_as`` names a command of the same pass whose stdout must be
    byte-identical; ``reference`` is an argv run outside the timed pass whose
    stdout must be byte-identical to this command's.
    """

    id: str
    argv: tuple[str, ...]
    check: tuple = ()
    same_as: str | None = None
    reference: tuple[str, ...] | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...] = field(default_factory=tuple)


# Every workload runs with one worker; the two-worker oracle fan-out is
# timed by the traced run's probes (oracle.brute_totals_by_k.w2_s).
WORKERS = 1


def _verify(max_n: int) -> Command:
    return Command("verify", ("verify", "--max-n", str(max_n)), check=("verify", 10))


def _exact(series_n, series_k, series_order, pfd_k, egf_n, large_n, asym_list) -> tuple[Command, ...]:
    return (
        Command("total_series", ("total", "--method", "series", "--n", str(series_n)),
                reference=("total", "--n", str(series_n))),
        Command("series", ("series", "--k", str(series_k), "--a", str(series_k),
                           "--order", str(series_order))),
        Command("pfd", ("pfd", "--k", str(pfd_k), "--oracle")),
        Command("pfd_closed", ("pfd", "--k", str(pfd_k)), same_as="pfd"),
        Command("egf", ("total", "--method", "egf", "--n", str(egf_n)),
                reference=("total", "--n", str(egf_n))),
        Command("total_large", ("total", "--n", str(large_n))),
        Command("asym", ("asym", "--n-list", asym_list)),
    )


def _stream(n: int, k: int) -> tuple[Command, ...]:
    return (
        Command("enumerate_plain", ("enumerate", "--n", str(n)), check=("words", "plain", n, None)),
        Command("enumerate_csv", ("enumerate", "--n", str(n), "--k", str(k), "--format", "csv"),
                check=("words", "csv", n, k)),
        Command("enumerate_json", ("enumerate", "--n", str(n), "--format", "json"),
                check=("json_words", "enumerate_plain")),
    )


WHY = {
    "verify-sweep": "the package's own correctness sweep (verify --max-n 11, one worker): "
                    "word enumeration plus per-word statistics",
    "exact-algebra": "series, closed forms, partial fractions, Bell tables and asymptotics "
                     "at sizes enumeration cannot reach; enumerates no words",
    "stream-words": "streams B_11 words through the public generators and the plain, csv "
                    "and json renderers; no per-word statistics",
}


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """The workloads, at full size or at the reduced smoke sizes.

    Full sizes keep one pass near 10 s or less, so a run makes several passes
    and reports medians.  On a shared 2-vCPU Xeon VM the speed swings by tens
    of percent over seconds, and a single 35 s ``verify --max-n 12`` pass
    spread by 20% between runs (see NOTES.md).
    """
    if smoke:
        sweep = (_verify(6),)
        exact = _exact(8, 4, 10, 20, 30, 300, "50,100")
        stream = _stream(7, 4)
    else:
        sweep = (_verify(11),)
        exact = _exact(20, 10, 40, 200, 200, 3000, "50,100,200,400,1000")
        stream = _stream(11, 6)
    return {
        "verify-sweep": Workload("verify-sweep", WHY["verify-sweep"], sweep),
        "exact-algebra": Workload("exact-algebra", WHY["exact-algebra"], exact),
        "stream-words": Workload("stream-words", WHY["stream-words"], stream),
    }


def seeded_order(commands, rng) -> list:
    """The order in which one pass runs the commands."""
    return rng.sample(list(commands), len(commands))


SETUP_ARGV = ("stat", "--word", "121132")
SETUP_OUTPUT = b"sep 6\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _parse_word(text: str) -> tuple[int, ...]:
    if "," in text:
        return tuple(int(part) for part in text.split(","))
    return tuple(int(ch) for ch in text)


def _check_words(texts: list[str], n: int, k: int | None) -> list[str]:
    """The texts must be exactly the restricted growth strings of length n
    (with maximum k when given), strictly increasing: a strictly increasing
    list of valid words with the right count is that set."""
    want = bell_number(n) if k is None else stirling2_number(n, k)
    if len(texts) != want:
        return [f"{len(texts)} words, expected {want}"]
    prev = ()
    for text in texts:
        w = _parse_word(text)
        if len(w) != n or w <= prev:
            return [f"word {text!r} out of order or of wrong length"]
        top = 0
        for v in w:
            if not 1 <= v <= top + 1:
                return [f"word {text!r} is not a restricted growth string"]
            if v > top:
                top = v
        if k is not None and top != k:
            return [f"word {text!r} does not have {k} blocks"]
        prev = w
    return []


def check_output(cmd: Command, out: bytes, same_pass: dict[str, bytes]) -> list[str]:
    """Semantic checks of one command's stdout; ``same_pass`` maps the ids of
    the pass's commands to their stdout.  Returns the problems found."""
    if not cmd.check:
        return []
    kind = cmd.check[0]
    text = out.decode("ascii", errors="replace")
    if kind == "verify":
        nsuites = cmd.check[1]
        lines = text.splitlines()
        want = f"RESULT PASS ({nsuites}/{nsuites} suites)"
        if not lines or lines[-1] != want:
            return [f"last line {lines[-1] if lines else ''!r}, expected {want!r}"]
        return []
    if kind == "json_words":
        # The same words as the plain listing, which has its own full check.
        result = json.loads(text).get("result", {})
        words = result.get("words")
        problems = []
        if words != same_pass[cmd.check[1]].decode("ascii", errors="replace").splitlines():
            problems.append(f"json words differ from {cmd.check[1]}")
        if result.get("count") != len(words or ()):
            problems.append(f"json count {result.get('count')} != {len(words or ())} words")
        return problems
    _, fmt, n, k = cmd.check
    if fmt == "plain":
        return _check_words(text.splitlines(), n, k)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["word"] or any(len(r) != 1 for r in rows[1:]):
        return ["csv header or row shape wrong"]
    return _check_words([r[0] for r in rows[1:]], n, k)
