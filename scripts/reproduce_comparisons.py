#!/usr/bin/env python3
"""Recompute the three achievable-distance tables and print them side by side.

The reference values are the published comparison numbers for the standard
fiber parameter set; deviations beyond +-0.5 km indicate a regression.

Usage: python scripts/reproduce_comparisons.py [--l-max 240] [--quick]
"""

import argparse
import time

from decoy_akg import ScenarioSpec, run_scenario

TABLES = (
    (
        "forward error correction, dark-free estimation (pD = 0)",
        "forward",
        "pd-zero",
        {
            "k2": 222.8,
            "k3-ma": 215.2,
            "k3-wang": 223.2,
            "k3-ours": 224.5,
            "k4": 224.8,
            "universal": 225.2,
        },
    ),
    (
        "forward error correction, dark counts dominate the vacuum (pD = p0)",
        "forward",
        "pd-equals-p0",
        {"k2": 223.0, "k3-wang": 223.5, "k3-ours": 224.5, "k4": 224.8, "universal": 225.2},
    ),
    (
        "reverse error correction, dark counts dominate the vacuum (pD = p0)",
        "reverse",
        "pd-equals-p0",
        {"k2": 230.7, "k3-wang": 231.3, "k3-ours": 232.5, "k4": 233.2, "universal": 233.3},
    ),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--l-max", type=float, default=240.0)
    parser.add_argument(
        "--quick", action="store_true", help="start the scan at 200 km (crossings are past that)"
    )
    args = parser.parse_args()
    l_min = 200.0 if args.quick else 0.0

    for title, direction, dark_mode, references in TABLES:
        print(f"\n{title}")
        print(f"{'scenario':<12} {'computed km':>12} {'reference km':>13} {'deviation':>10}")
        start = time.perf_counter()
        for name, reference in references.items():
            spec = ScenarioSpec(name, direction=direction, dark_mode=dark_mode)
            distance = run_scenario(spec, (l_min, args.l_max, 1.0)).achievable_km
            if distance is None:
                print(f"{name:<12} {'beyond range':>12} {reference:>13.1f} {'':>10}")
            else:
                deviation = distance - reference
                print(f"{name:<12} {distance:>12.2f} {reference:>13.1f} {deviation:>+10.2f}")
        print(f"({time.perf_counter() - start:.1f}s)")


if __name__ == "__main__":
    main()
