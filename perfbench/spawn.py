"""Child-process launcher for the end-to-end runs.

A process's peak RSS as the kernel reports it includes the memory of the
process it was forked from, so children forked by ``run.py`` would inherit
its peak (it parses large outputs).  ``run.py`` starts this launcher once,
while it is still small, and the launcher stays small: it forks every timed
command and reports its wall time, CPU time, exit code and peak RSS, and
what the host-speed reference (``reference.py``) did while it ran.

Usage: ``spawn.py <reference state file>``.  Protocol: one JSON request per
line on stdin, ``{"argv", "cwd", "env", "stdout", "stderr"}`` (the last two
are file paths), answered by one JSON line ``{"seconds", "cpu_s", "code",
"maxrss_kib", "ref_units", "ref_cpu_s"}`` on stdout.
"""
import json
import mmap
import os
import subprocess
import sys
import time

from reference import STATE, read_state


def main(state_path: str) -> int:
    with open(state_path, "rb") as fh, mmap.mmap(fh.fileno(), STATE.size, access=mmap.ACCESS_READ) as state:
        for line in sys.stdin:
            req = json.loads(line)
            with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
                units0, ref_ns0 = read_state(state)
                start = time.perf_counter()
                proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                        stdin=subprocess.DEVNULL, stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - start
                units1, ref_ns1 = read_state(state)
            proc.returncode = os.waitstatus_to_exitcode(status)
            print(json.dumps({"seconds": seconds, "cpu_s": usage.ru_utime + usage.ru_stime,
                              "code": proc.returncode, "maxrss_kib": usage.ru_maxrss,
                              "ref_units": units1 - units0, "ref_cpu_s": (ref_ns1 - ref_ns0) / 1e9}),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
