"""seprec benchmark: end-to-end CLI workloads and a traced per-layer run.

Run from the root of a seprec checkout:

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload stream-words --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` runs the workload's command list as fresh ``python -m
seprec.cli`` processes, one at a time (a closed loop with one client), and
reports the end-to-end metrics.  Their times are CPU seconds rescaled by a
host-speed reference that shares the CPU with each command (``reference.py``).
``--trace 1`` runs the same commands in-process with spans around the calls
into each module of ``src/seprec`` and then times each layer on its own (see
``layers.py``); it reports the per-layer metrics.  ``--smoke`` runs every
workload at reduced sizes in both modes and asserts that every metric named
in BENCHMARK.json is emitted and that no command fails.

Human-readable lines (prefixed ``#``) and one environment line come first;
the last line of stdout is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPS = 21
SETUP_WARMUPS = 3
# Reference units per CPU second of the host the normalised times refer to;
# a 2-vCPU Xeon VM runs 14,000 to 20,000.
NOMINAL_RATE = 15000.0
DIGESTS = HERE / "digests.json"
OUT_DIR = HERE / "out"


@dataclass
class Run:
    """One finished child process."""

    seconds: float
    cpu_s: float
    code: int
    out: bytes
    err: str
    maxrss_kib: int
    ref_units: int
    ref_cpu_s: float

    @property
    def norm_s(self) -> float:
        """CPU time at the nominal host speed: the CPU time times the
        reference's speed while the command ran, over the nominal speed."""
        if self.ref_units < 10:
            raise RuntimeError(f"the host-speed reference ran {self.ref_units} units in a command")
        return self.cpu_s * self.ref_units / self.ref_cpu_s / NOMINAL_RATE


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["SEPREC_WORKERS"] = str(wl.WORKERS)
    # The default int-to-str limit is part of what a user runs into.
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


class Spawner:
    """Runs ``python -m seprec.cli argv`` through ``spawn.py`` and reads back
    its stdout and stderr from files under ``perfbench/out``.

    While open it pins this process, and so the launcher, every command and
    the host-speed reference, to one CPU, and keeps the reference running."""

    def __init__(self, root: Path):
        self.root = root
        self.stdout_path = OUT_DIR / "stdout.bin"
        self.stderr_path = OUT_DIR / "stderr.txt"
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.affinity)})
        state = OUT_DIR / "reference.state"
        state.write_bytes(bytes(reference.STATE.size))
        self.reference = subprocess.Popen([sys.executable, str(HERE / "reference.py"), str(state)],
                                          cwd=root, stdin=subprocess.DEVNULL)
        self.proc = None
        try:
            self.proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py"), str(state)],
                                         cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         text=True)
            while state.read_bytes() == bytes(reference.STATE.size):
                if self.reference.poll() is not None:
                    raise RuntimeError("the host-speed reference exited")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def run(self, argv, env: dict[str, str]) -> Run:
        request = {"argv": [sys.executable, "-m", "seprec.cli", *argv], "cwd": str(self.root),
                   "env": env, "stdout": str(self.stdout_path), "stderr": str(self.stderr_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        got = json.loads(reply)
        return Run(got["seconds"], got["cpu_s"], got["code"], self.stdout_path.read_bytes(),
                   self.stderr_path.read_text("utf-8", "replace"), got["maxrss_kib"],
                   got["ref_units"], got["ref_cpu_s"])

    def close(self) -> None:
        try:
            if self.proc is not None:
                self.proc.stdin.close()
                self.proc.stdout.close()
                self.proc.wait(timeout=60)
        finally:
            self.reference.terminate()
            self.reference.wait()
            os.sched_setaffinity(0, self.affinity)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: Path, workload: wl.Workload, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
        "workload": workload.name,
        "seprec_workers": wl.WORKERS,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "seed": seed,
    }


def check_run(cmd: wl.Command, run: Run, digests: dict[str, str], same_pass: dict[str, bytes],
              references: dict[tuple, bytes], checked: dict[tuple, list[str]]) -> list[str]:
    """Problems with one command's result: exit code, digest, semantic checks.
    ``checked`` caches the semantic checks per (command, stdout digest), so
    a later pass with the same output is not parsed again."""
    if run.code != 0:
        last = (run.err.strip().splitlines() or [""])[-1]
        return [f"exit code {run.code}: {last}"]
    problems = []
    digest = wl.sha256(run.out)
    if digests.get(cmd.key) != digest:
        problems.append("stdout differs from the frozen digest")
    if cmd.same_as is not None and run.out != same_pass[cmd.same_as]:
        problems.append(f"stdout differs from {cmd.same_as}")
    if cmd.reference is not None and run.out != references[cmd.reference]:
        problems.append(f"stdout differs from `{' '.join(cmd.reference)}`")
    key = (cmd.id, digest)
    if key not in checked:
        checked[key] = wl.check_output(cmd, run.out, same_pass)
    return problems + checked[key]


def end_to_end(root: Path, workload: wl.Workload, seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    digests = load_digests()
    env = child_env(root)

    with Spawner(root) as spawner:
        return _end_to_end(spawner, workload, rng, seconds, digests, env)


def _end_to_end(spawner: Spawner, workload: wl.Workload, rng: random.Random, seconds: float,
                digests: dict[str, str], env: dict[str, str]) -> dict:
    # Untimed: fill the bytecode and file caches, and compute the reference
    # outputs.
    for _ in range(SETUP_WARMUPS):
        spawner.run(wl.SETUP_ARGV, env)
    references = {}
    for cmd in workload.commands:
        if cmd.reference is not None and cmd.reference not in references:
            ref = spawner.run(cmd.reference, env)
            references[cmd.reference] = ref.out if ref.code == 0 else None

    setups = []
    attempted = failed = 0
    correct = True
    for _ in range(SETUP_REPS):
        run = spawner.run(wl.SETUP_ARGV, env)
        attempted += 1
        if run.code != 0 or run.out != wl.SETUP_OUTPUT:
            failed += 1
            correct = False
        setups.append(run)

    passes = []  # (wall, {cmd id: Run})
    problems: dict[str, list[str]] = {}
    checked: dict[tuple, list[str]] = {}
    cmd_failed = 0
    measured = 0.0
    while True:
        results = {}
        start = time.perf_counter()
        for cmd in wl.seeded_order(workload.commands, rng):
            results[cmd.id] = spawner.run(cmd.argv, env)
        wall = time.perf_counter() - start
        outputs = {cid: run.out for cid, run in results.items()}
        for cmd in workload.commands:
            run = results[cmd.id]
            found = check_run(cmd, run, digests, outputs, references, checked)
            attempted += 1
            if found:
                cmd_failed += 1
                problems.setdefault(cmd.id, found)
                # An error exit (code 2, a one-line message) is a failed
                # operation; any other failure is a wrong answer.
                if run.code != 2:
                    correct = False
        for run in results.values():
            run.out = b""  # keep only what the metrics need
        passes.append((wall, results))
        measured += wall
        if measured + wall > seconds:
            break

    per_cmd = {cmd.id: statistics.median(p[1][cmd.id].norm_s for p in passes)
               for cmd in workload.commands}
    pass_norm = [sum(r.norm_s for r in p[1].values()) for p in passes]
    peak = statistics.median(max(r.maxrss_kib for r in p[1].values()) for p in passes) / 1024
    metrics = {
        "setup_s": (statistics.median(r.norm_s for r in setups), "s"),
        "pass_norm_cpu_s": (statistics.median(pass_norm), "s"),
        "peak_rss_mib": (peak, "MiB"),
    }
    cmd_attempted = len(passes) * len(workload.commands)
    report(workload, setups, passes, per_cmd, metrics, problems, cmd_attempted, cmd_failed)
    return finish(correct, attempted, failed + cmd_failed, metrics)


# Per-command times under their own names, reported but not gated: a gated
# metric must exist on every workload.
COMMAND_METRIC = {
    "verify": "verify_s",
    "total_series": "total_series_s",
    "series": "series_s",
    "pfd": "pfd_s",
    "egf": "egf_s",
    "total_large": "total_large_s",
    "asym": "asym_s",
    "enumerate_json": "enumerate_json_s",
}


def report(workload, setups, passes, per_cmd, metrics, problems, attempted, failed) -> None:
    """Print the per-command table and every end-to-end metric with its unit;
    ``attempted`` and ``failed`` count the workload's commands, not set-up.
    Times are normalised CPU seconds unless marked as wall or CPU times."""
    print(f"# workload {workload.name}: {len(passes)} pass(es), commands in seeded order, "
          f"SEPREC_WORKERS={wl.WORKERS}, pinned to one CPU with the host-speed reference")
    runs = [r for p in passes for r in p[1].values()]
    rates = sorted(r.ref_units / r.ref_cpu_s for r in runs)
    print(f"#   reference speed {rates[0]:.0f} to {rates[-1]:.0f} units per CPU second "
          f"(nominal {NOMINAL_RATE:.0f}); set-up wall median "
          f"{statistics.median(r.seconds for r in setups):.4f} s")
    print(f"#   pass walls [{', '.join(f'{p[0]:.4f}' for p in passes)}] s, "
          f"pass CPU [{', '.join(f'{sum(r.cpu_s for r in p[1].values()):.4f}' for p in passes)}] s")
    for cmd in workload.commands:
        samples = ", ".join(f"{p[1][cmd.id].norm_s:.4f}" for p in passes)
        rss = max(p[1][cmd.id].maxrss_kib for p in passes) / 1024
        print(f"#   {cmd.id:<16} median {per_cmd[cmd.id]:9.4f} s  [{samples}]  "
              f"max-RSS {rss:7.1f} MiB  `seprec {cmd.key}`")
    named = {}
    for cid, name in COMMAND_METRIC.items():
        if cid in per_cmd:
            named[name] = (per_cmd[cid], "s")
    if "enumerate_plain" in per_cmd:
        plain = next(c for c in workload.commands if c.id == "enumerate_plain")
        words = wl.bell_number(plain.check[2])
        named["enumerate_words_per_s"] = (words / per_cmd["enumerate_plain"], "words/s")
    named["fail_ratio"] = (failed / attempted, f"ratio ({failed} failed / {attempted} attempted)")
    for name, (value, unit) in {**metrics, **named}.items():
        print(f"# {name} = {value:.6g} {unit}")
    for cid, found in problems.items():
        print(f"# FAILED {cid}: {'; '.join(found)}")


def finish(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "seprec" / "cli.py").is_file():
        sys.exit(f"perfbench: {root} is not a seprec checkout (src/seprec/cli.py is missing)")
    return root


def run_one(root: Path, name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = wl.workloads(smoke)[name]
    OUT_DIR.mkdir(exist_ok=True)
    print(json.dumps({"environment": environment(root, workload, seed)}, sort_keys=True))
    if trace:
        import layers
        return finish(*layers.traced(root, workload, seed, smoke))
    return end_to_end(root, workload, seed, seconds)


def smoke(root: Path) -> int:
    """Every workload at reduced sizes, both modes: every declared metric is
    emitted and nothing fails."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    bad = []
    for name in wl.workloads(smoke=True):
        for trace in (0, 1):
            result = run_one(root, name, 0, 1, bool(trace), smoke=True)
            got = set(result["metrics"])
            if got != want[trace]:
                bad.append(f"{name} trace={trace}: missing {sorted(want[trace] - got)}, "
                           f"extra {sorted(got - want[trace])}")
            if result["failed"] or not result["correct"]:
                bad.append(f"{name} trace={trace}: {result['failed']} failed, "
                           f"correct={result['correct']}")
    for line in bad:
        print(f"# SMOKE FAIL {line}")
    print(json.dumps({"smoke": "fail" if bad else "pass", "problems": bad}))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.workloads()))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, all workloads")
    args = parser.parse_args(argv)
    root = checkout_root()
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    result = run_one(root, args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
