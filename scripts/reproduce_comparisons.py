#!/usr/bin/env python3
"""Recompute the three achievable-distance tables and print them side by side.

The reference values are the published comparison numbers for the standard
fiber parameter set (``decoy_akg.reference.PUBLISHED_DISTANCES_KM``).  Exits
with status 1 when a distance lies beyond the scan or deviates from its
reference by more than 0.5 km.

Usage: python scripts/reproduce_comparisons.py [--l-max 240] [--quick]
"""

import argparse
import sys
import time

from decoy_akg import ScenarioSpec, run_scenario
from decoy_akg.reference import PUBLISHED_DISTANCES_KM, PUBLISHED_TOL_KM

TITLES = {
    ("forward", "pd-zero"): "forward error correction, dark-free estimation (pD = 0)",
    ("forward", "pd-equals-p0"): "forward error correction, dark counts dominate the vacuum (pD = p0)",
    ("reverse", "pd-equals-p0"): "reverse error correction, dark counts dominate the vacuum (pD = p0)",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--l-max", type=float, default=240.0)
    parser.add_argument(
        "--quick", action="store_true", help="start the scan at 200 km (crossings are past that)"
    )
    args = parser.parse_args()
    l_min = 200.0 if args.quick else 0.0

    failures = []
    for (direction, dark_mode), references in PUBLISHED_DISTANCES_KM.items():
        print(f"\n{TITLES[direction, dark_mode]}")
        print(f"{'scenario':<12} {'computed km':>12} {'reference km':>13} {'deviation':>10}")
        start = time.perf_counter()
        for name, reference in references.items():
            spec = ScenarioSpec(name, direction=direction, dark_mode=dark_mode)
            distance = run_scenario(spec, (l_min, args.l_max, 1.0)).achievable_km
            if distance is None:
                print(f"{name:<12} {'beyond range':>12} {reference:>13.1f} {'':>10}")
                failures.append(f"{direction} {dark_mode} {name}: beyond range")
            else:
                deviation = distance - reference
                print(f"{name:<12} {distance:>12.2f} {reference:>13.1f} {deviation:>+10.2f}")
                if not abs(deviation) <= PUBLISHED_TOL_KM:
                    failures.append(f"{direction} {dark_mode} {name}: {deviation:+.2f} km")
        print(f"({time.perf_counter() - start:.1f}s)")
    if failures:
        print(f"\nnot within {PUBLISHED_TOL_KM} km of the published tables:", file=sys.stderr)
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
