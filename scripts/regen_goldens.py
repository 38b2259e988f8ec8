#!/usr/bin/env python3
"""Regenerate the frozen golden files under tests/golden/.

The files are produced by the oracle routes only (brute-force enumeration for
totals and distributions, the residue computation for partial fractions);
the closed-form routes are then tested against these frozen files.  Rerun
after any intentional change to the oracle output formats.

    python3 scripts/regen_goldens.py           # rewrite the files
    python3 scripts/regen_goldens.py --check   # write nothing; exit 1 if any would change
"""
from __future__ import annotations

import argparse
from pathlib import Path

from seprec.formulas import pfd_golden_lines
from seprec.oracle import MAX_DIST_N, MAX_TOTAL_N, distributions_golden_lines, totals_golden_lines

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

PFD_MAX_K = 15


def targets() -> dict[str, list[str]]:
    """The lines of each golden file, by file name, from the oracle routes."""
    return {
        f"totals_n{MAX_TOTAL_N}.txt": totals_golden_lines(MAX_TOTAL_N),
        f"distributions_n{MAX_DIST_N}.txt": distributions_golden_lines(MAX_DIST_N),
        f"pfd_k{PFD_MAX_K}.txt": pfd_golden_lines(PFD_MAX_K),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1, naming each file, if any golden would change")
    args = parser.parse_args(argv)
    if not args.check:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    changed = 0
    for name, lines in targets().items():
        path = GOLDEN_DIR / name
        text = "\n".join(lines) + "\n"
        if args.check:
            same = path.is_file() and path.read_text() == text
            print(f"{'unchanged' if same else 'would change'}: {path} ({len(lines)} lines)")
            changed += not same
        else:
            path.write_text(text)
            print(f"wrote {path} ({len(lines)} lines)")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
