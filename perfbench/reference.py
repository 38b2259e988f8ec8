"""Host-speed reference for the end-to-end runs.

On a shared VM the speed of a vCPU drifts by tens of percent over seconds
and minutes, and a command's CPU time drifts with it: it is the hardware
that slows, not the scheduler.  ``run.py`` therefore pins itself, the
launcher, every timed command and this process to one CPU.  This process
runs a fixed pure-Python loop there at a lower priority, so it shares the
CPU with each command in slices of a few milliseconds and sees the same
hardware.  Its speed over a command's interval, in loop units per CPU
second of its own, rescales the command's CPU time to a host of fixed
speed (see ``run.py``).  The loop is the benchmark's own code and calls
nothing in ``seprec``, so a change to the program cannot move it.

Usage: ``reference.py <state file>``.  After every unit the process writes
``(units, cpu_ns, units)`` as three little-endian int64 into the file; a
reader that sees the two unit counts differ has caught a write half-done
and reads again.  The process exits when its parent does.
"""
import mmap
import os
import struct
import sys
import time

NICE = 5
STATE = struct.Struct("<qqq")
WORD_LENGTH = 5


def unit() -> int:
    """One unit of work: walk the restricted growth strings of length
    WORD_LENGTH and count adjacent distinct letters (about 50 us)."""
    n = WORD_LENGTH
    a = [0] * n
    b = [1] * n
    total = 0
    while True:
        total += sum(1 for i in range(1, n) if a[i] != a[i - 1])
        j = n - 1
        while j > 0 and a[j] == b[j]:
            j -= 1
        if j == 0:
            return total
        a[j] += 1
        m = b[j] + (a[j] == b[j])
        for i in range(j + 1, n):
            a[i] = 0
            b[i] = m


def read_state(mm) -> tuple[int, int]:
    """``(units, cpu_ns)`` from the state file's map."""
    while True:
        units, cpu_ns, again = STATE.unpack_from(mm, 0)
        if units == again:
            return units, cpu_ns


def main(path: str) -> int:
    parent = os.getppid()
    os.nice(NICE)
    with open(path, "r+b") as fh, mmap.mmap(fh.fileno(), STATE.size) as mm:
        units = 0
        while True:
            unit()
            units += 1
            STATE.pack_into(mm, 0, units, time.process_time_ns(), units)
            if units % 4096 == 0 and os.getppid() != parent:
                return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
