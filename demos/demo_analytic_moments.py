#!/usr/bin/env python3
"""Exact trace moments next to a quick Monte Carlo estimate.

The closed forms are rational numbers; the simulation should land
within a few standard errors of them at every spectrum tried here.
"""

from fractions import Fraction

import numpy as np

from cvtypical.harness import run_ensemble
from cvtypical.moments import (
    compute_moment_report,
    expected_f_exact,
    moment_inputs_from_spectrum,
)

CASES = (
    ((3, 1, 1, 1), 1),
    ((2, 2, 2, 2, 2), 1),
    ((5, 3, 1, 1, 1, 1), 2),
)
TRIALS = 4000
SEED = 314


def main():
    for z, k in CASES:
        report = compute_moment_report(z, k)
        summary, _table = run_ensemble(tuple(float(v) for v in z), k, TRIALS, seed=SEED)
        print(f"z = {z}, k = {k}")
        print(f"  mean energy        = {report.lambda_bar:.6f}")
        print(f"  E tr (J M)^2 exact = {report.second_moment:+.6f}"
              f"   mc {summary.mean_tr_jm2:+.4f} +- {summary.se_tr_jm2:.4f}")
        print(f"  E tr (J M)^4 exact = {report.fourth_moment:+.6f}"
              f"   mc {summary.mean_tr_jm4:+.4f} +- {summary.se_tr_jm4:.4f}")
        print(f"  E f exact          = {report.expected_f:+.6f}"
              f"   mc {summary.mean_f:+.5f} +- {summary.se_f:.5f}")

    # the vacuum makes every deviation moment vanish identically
    vac = moment_inputs_from_spectrum((1,) * 6, 3)
    print("\nvacuum check: E f =", expected_f_exact(vac), "(exact zero)")

    mi = moment_inputs_from_spectrum((Fraction(2),) * 16, 1)
    print("flat z=2, n=16:  E f =", expected_f_exact(mi),
          "=", float(expected_f_exact(mi)))


if __name__ == "__main__":
    main()
