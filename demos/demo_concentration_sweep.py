#!/usr/bin/env python3
"""A small scaling sweep: watch the deviation functional collapse.

Same family as the acceptance sweep (constant z = 2, one retained mode)
but at demo-sized trial counts so it finishes in seconds.  mean_f falls
roughly fourfold per doubling of n here, and the reduced-state entropy
pins itself to the thermal value G(lambda) with shrinking spread.
"""

import math

from cvtypical.harness import concentration_sweep
from cvtypical.profiles import ScalingConfig
from cvtypical.symplectic import gaussian_entropies

NS = (8, 16, 32, 64)
SAMPLES = 500
SEED = 99


def main():
    print(f"{'n':>4}  {'mean_f':>12}  {'rms':>10}  {'entropy gap':>12}  {'entropy std':>12}")
    (target,), _low = gaussian_entropies([[1.25]])  # lambda for z = 2 at one retained mode
    rows = []
    # each row prints as soon as its ensemble finishes
    for n, summary, _table in concentration_sweep(ScalingConfig(), NS, samples=SAMPLES, seed=SEED):
        gap = abs(summary.mean_entropy - target)
        print(f"{n:>4}  {summary.mean_f:>12.6f}  {math.sqrt(summary.mean_f):>10.5f}"
              f"  {gap:>12.3e}  {summary.std_entropy:>12.3e}")
        rows.append((n, summary))

    print("\nper-doubling ratios of mean_f:")
    for (n1, s1), (n2, s2) in zip(rows, rows[1:]):
        print(f"  {n1:>3} -> {n2:<3}: {s2.mean_f / s1.mean_f:.3f}")

    print("\ntail fractions Pr[delta^2 > eps] at n =", rows[0][0])
    for eps, frac in rows[0][1].tail_counts.items():
        print(f"  eps = {eps:g}: {frac:.4f}")


if __name__ == "__main__":
    main()
