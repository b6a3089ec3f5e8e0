#!/usr/bin/env python3
"""Draw squeezing profiles from each ensemble and check their means."""

from cvtypical.harness import draw_block
from cvtypical.profiles import parse_profile, profile_to_string

DRAWS = 20_000
SEED = 606


def main():
    for text, n in (("fixed:3,1,1", None), ("constant:2.0x5", None),
                    ("micro:12", 3), ("canonical:8", 4), ("canonical:8:0.5", 4)):
        spec = parse_profile(text, n=n)
        print(f"{text:18} -> n = {spec.n}, round trip {profile_to_string(spec)!r}")

    # row i is the spectrum trial i of an ensemble at SEED draws (no Ginibre
    # columns: k = 0)
    z, _draws = draw_block(parse_profile("micro:12", n=3), 0, SEED, 0, DRAWS)
    totals = (z + 1.0 / z).sum(axis=1)
    print(f"\nmicrocanonical E = 12, n = 3 over {DRAWS} draws:")
    print(f"  mean total energy = {totals.mean():.4f} (exact 10.5)")
    print(f"  ceiling respected = {bool((totals <= 12.0 + 1e-9).all())}")
    print(f"  floor respected   = {bool((totals >= 6.0 - 1e-9).all())}")

    z, _draws = draw_block(parse_profile("canonical:8", n=4), 0, SEED + 1, 0, DRAWS)
    energies = z + 1.0 / z
    print(f"\ncanonical E = 8, n = 4 (T = E/n = 2) over {DRAWS} draws:")
    print(f"  mean mode energy = {energies.mean():.4f} (exact 2 + T = 4)")
    print(f"  min mode energy  = {energies.min():.4f} (floor 2)")


if __name__ == "__main__":
    main()
