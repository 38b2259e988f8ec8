"""Freeze the sha256 of every benchmark command's stdout into digests.json.

Run from the root of a seprec checkout whose outputs are the reference:

    python3 perfbench/freeze_digests.py

Commands run with the int-to-str digit limit lifted, so a command that the
default limit breaks (``total --n 3000``) is frozen with its correct output
and keeps counting as failed until the program prints it under the default.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    root = run.checkout_root()
    env = run.child_env(root)
    env["PYTHONINTMAXSTRDIGITS"] = "0"
    digests = {}
    for smoke in (False, True):
        for workload in wl.workloads(smoke).values():
            for cmd in workload.commands:
                proc = subprocess.run([sys.executable, "-m", "seprec.cli", *cmd.argv], cwd=root,
                                      env=env, capture_output=True, check=True)
                digests[cmd.key] = wl.sha256(proc.stdout)
                print(f"{digests[cmd.key]}  seprec {cmd.key}")
    run.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
