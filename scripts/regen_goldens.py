#!/usr/bin/env python3
"""Regenerate the frozen golden files under tests/golden/.

The files are produced by the oracle routes only (brute-force enumeration for
totals and distributions, the residue computation for partial fractions);
the closed-form routes are then tested against these frozen files.  This
script alone writes their lines, whitespace-separated and sorted:

* totals, ``n k total`` for 1 <= k <= n <= MAX_TOTAL_N;
* distributions, ``n k a s count`` for 1 <= a <= k <= n <= MAX_DIST_N, with
  s ascending within each (n, k, a);
* partial fractions, ``k m a_num a_den b_num b_den`` for 1 <= m <= k <= PFD_MAX_K.

Rerun after any intentional change to the oracle output.

    python3 scripts/regen_goldens.py           # rewrite the files
    python3 scripts/regen_goldens.py --check   # write nothing; exit 1 if any would change
"""
from __future__ import annotations

import argparse
from pathlib import Path

from seprec.formulas import pfd_oracle
from seprec.oracle import MAX_DIST_N, MAX_TOTAL_N, brute_distributions, brute_totals_by_k

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

PFD_MAX_K = 15


def targets() -> dict[str, list[str]]:
    """The lines of each golden file, by file name, from the oracle routes."""
    return {
        f"totals_n{MAX_TOTAL_N}.txt": [
            f"{n} {k} {total}"
            for n in range(1, MAX_TOTAL_N + 1) for k, total in brute_totals_by_k(n).items()],
        f"distributions_n{MAX_DIST_N}.txt": [
            f"{n} {k} {a} {s} {count}"
            for n in range(1, MAX_DIST_N + 1) for (k, a), dist in brute_distributions(n).items()
            for s, count in dist.items()],
        f"pfd_k{PFD_MAX_K}.txt": [
            f"{table.k} {m} {am.numerator} {am.denominator} {bm.numerator} {bm.denominator}"
            for table in map(pfd_oracle, range(1, PFD_MAX_K + 1))
            for m, (am, bm) in enumerate(zip(table.a, table.b), start=1)],
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
