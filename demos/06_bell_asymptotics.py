#!/usr/bin/env python3
"""How fast the Bell-number asymptotics kick in.

The totals grow like B_n * n^3 / (3 r^3) * (1 + r/n), where r solves
r*e^r = n + 1.  Everything exact is computed exactly (the total over B_n is
one correctly rounded division of two integers), so the measured ratio
isolates the quality of the asymptotic approximation itself.
"""
from seprec import bell_shift_error, estimate_ratio, solve_r, sweep_csv, variants

print("the saddle parameter r grows like log n:")
for n in (1, 10, 100, 1000):
    r = solve_r(n)
    print(f"  n={n:>5}: r={r:.12f}  (residual of r*e^r - (n+1) is at machine level)")
print()

print("exact-to-estimate ratio marches toward 1:")
print(f"{'n':>5} {'ratio':>10} {'|ratio-1|':>10} {'bare ratio':>11} {'bare err':>10}")
for n in (25, 50, 100, 200, 400, 800):
    rep = estimate_ratio(n)
    print(f"{n:>5} {rep.ratio:>10.4f} {rep.abs_err:>10.4f} {rep.bare_ratio:>11.4f} {rep.bare_abs_err:>10.4f}")
print("(bare = leading term n^3/(3r^3) without the (1 + r/n) factor; at these")
print(" sizes the bare term is still the slightly closer one)")
print()

print("dropping the 1/3 (the non-validated variant) sends the ratio to 1/3, not 1:")
for n in (100, 400):
    rep = variants.estimate_ratio(n)
    print(f"  n={n}: ratio={rep.ratio:.4f}")
print()

print("the underlying Bell-number shift approximation improves like log(n)/n:")
for n in (50, 100, 200, 400, 800):
    errs = ", ".join(f"h={h}: {bell_shift_error(n, h):.5f}" for h in (1, 2, 3))
    print(f"  n={n:>4}: {errs}")
print()

print("machine-readable sweep (the CLI `asym` command prints the same table):")
print(sweep_csv([50, 100, 200, 400]), end="")
