#!/usr/bin/env python3
"""Exact partial fractions of the total-generating rational function.

After substituting y = 1/x, the per-k total generating function becomes a
proper rational function with double poles at y = 1..k.  Its partial fraction
coefficients have a closed form; an independent residue computation (exact
limits, no floating point) confirms every entry, and the decomposition
reconstructs the function exactly at rational probe points.
"""
from fractions import Fraction

from seprec import pfd_coeffs, pfd_oracle, pfd_target_value, pfd_value, variants

k = 4
closed = pfd_coeffs(k)
residues = pfd_oracle(k)
print(f"partial fraction table for k = {k} (double-pole a, simple-pole b):")
print(f"{'m':>3} {'a (closed)':>12} {'a (residue)':>12} {'b (closed)':>12} {'b (residue)':>12}")
for m in range(1, k + 1):
    ac, bc = closed.row(m)
    ao, bo = residues.row(m)
    print(f"{m:>3} {str(ac):>12} {str(ao):>12} {str(bc):>12} {str(bo):>12}")
assert closed == residues
print()

print("reconstruction at rational points away from the poles is exact:")
for y in (Fraction(11, 2), Fraction(-3), Fraction(100)):
    direct = pfd_target_value(k, y)
    rebuilt = pfd_value(closed, y)
    print(f"  y={str(y):>5}: direct={direct}  decomposition={rebuilt}  equal={direct == rebuilt}")
print()

print("the sign of the cubic term matters: the +k^3/12 variant breaks already at k=1:")
for kk in (1, 2, 3):
    bad = variants.pfd_coeffs(kk)
    good = pfd_oracle(kk)
    print(f"  k={kk}: literal b row {tuple(map(str, bad.b))} vs residue b row {tuple(map(str, good.b))}")
