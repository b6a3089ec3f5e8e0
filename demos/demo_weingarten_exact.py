#!/usr/bin/env python3
"""Print exact Weingarten tables and verify them two independent ways.

The character-sum route and the Gram-matrix route share no code beyond
the symmetric-group bookkeeping, so agreement is a real cross-check.
The biorthogonality sum at the end is the defining property: summed
against the dimension function it must reproduce a Kronecker delta.
"""

import itertools
from fractions import Fraction

from cvtypical.weingarten import cycle_type, gram_weingarten_oracle, inverse, weingarten

N = 5
MAX_P = 4


def main():
    for p in range(1, MAX_P + 1):
        oracle = gram_weingarten_oracle([N], p)[N]
        print(f"p = {p}, n = {N}")
        for ct, wg in weingarten(N, p).items():
            tag = "ok" if wg == oracle[ct] else "MISMATCH"
            print(f"  Wg{ct!r:12} = {wg}  [gram: {tag}]")

    print("\nclosed forms at p = 2:")
    wg = weingarten(N, 2)
    print("  Wg(1,1) =", wg[(1, 1)], "  expected", Fraction(1, N * N - 1))
    print("  Wg(2,)  =", wg[(2,)], " expected", Fraction(-1, N * (N * N - 1)))

    p = 3
    perms = list(itertools.permutations(range(p)))
    wg = weingarten(N, p)
    print(f"\nbiorthogonality over S_{p} (n = {N}):")
    for tau in perms[:3]:
        total = Fraction(0)
        tau_inv = inverse(tau)
        for sigma in perms:
            rel = cycle_type(tuple(sigma[i] for i in tau_inv))  # sigma tau^-1
            total += wg[rel] * Fraction(N) ** len(cycle_type(sigma))
        expected = 1 if tau == tuple(range(p)) else 0
        print(f"  tau = {tau}: sum = {total} (expected {expected})")


if __name__ == "__main__":
    main()
