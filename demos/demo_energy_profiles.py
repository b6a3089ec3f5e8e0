#!/usr/bin/env python3
"""Draw squeezing profiles from each ensemble and check their means."""

import numpy as np

from cvtypical.haar import SeededStream
from cvtypical.profiles import (
    parse_profile,
    profile_to_string,
    sample_profile,
)

DRAWS = 20_000
SEED = 606


def main():
    for text, n in (("fixed:3,1,1", None), ("constant:2.0x5", None),
                    ("micro:12", 3), ("canonical:8", 4), ("canonical:8:0.5", 4)):
        spec = parse_profile(text, n=n)
        print(f"{text:18} -> n = {spec.n}, round trip {profile_to_string(spec)!r}")

    gen = SeededStream(SEED).generator()
    spec = parse_profile("micro:12", n=3)
    totals = np.array([np.sum(zz + 1.0 / zz) for zz in
                       (sample_profile(spec, gen) for _ in range(DRAWS))])
    print(f"\nmicrocanonical E = 12, n = 3 over {DRAWS} draws:")
    print(f"  mean total energy = {totals.mean():.4f} (exact 10.5)")
    print(f"  ceiling respected = {bool(np.all(totals <= 12.0 + 1e-9))}")
    print(f"  floor respected   = {bool(np.all(totals >= 6.0 - 1e-9))}")

    spec = parse_profile("canonical:8", n=4)
    energies = np.concatenate([sample_profile(spec, gen) for _ in range(DRAWS)])
    energies = energies + 1.0 / energies
    print(f"\ncanonical E = 8, n = 4 (T = E/n = 2) over {DRAWS} draws:")
    print(f"  mean mode energy = {energies.mean():.4f} (exact 2 + T = 4)")
    print(f"  min mode energy  = {energies.min():.4f} (floor 2)")


if __name__ == "__main__":
    main()
