"""Smoke test of the benchmark itself: ``python -m pytest perfbench``.

Runs every workload at reduced sizes in both modes and requires every metric
declared in BENCHMARK.json, with no failed command.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1].startswith('{"smoke": "pass"')
