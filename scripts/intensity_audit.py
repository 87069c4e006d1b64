#!/usr/bin/env python3
"""Audit the signal-intensity optimum of the universal rate bounds.

Prints the finite-difference derivative of both rate directions at mu = 1
across a span of distances (it must never be positive, which pins the
optimal intensity below 1), followed by the optimal intensity the sweep
actually selects for each estimation scenario.  Exits with status 1 when
the derivative check reads VIOLATION.

Usage: python scripts/intensity_audit.py [--l-max 250] [--step 25]
"""

import argparse
import sys

from decoy_akg import STANDARD_FIBER, ScenarioSpec, alpha_of_distance, run_scenario
from decoy_akg.reference import optimal_mu_derivative_check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--l-max", type=float, default=250.0)
    parser.add_argument("--step", type=float, default=25.0)
    args = parser.parse_args()

    lengths = [l * args.step for l in range(int(args.l_max / args.step) + 1)]
    alphas = [alpha_of_distance(length, STANDARD_FIBER) for length in lengths]
    report = optimal_mu_derivative_check(STANDARD_FIBER, alphas)
    print(report.to_text())

    print("\noptimal signal intensity along the sweep (reverse, pD = p0):")
    header = f"{'L_km':>6}"
    names = ("k2", "k3-wang", "k3-ours", "k4", "universal")
    results = {
        name: run_scenario(
            ScenarioSpec(name, direction="reverse", dark_mode="pd-equals-p0"),
            (0.0, args.l_max, args.step),
        )
        for name in names
    }
    print(header + "".join(f"{name:>11}" for name in names))
    row_count = len(next(iter(results.values())).rows)
    for idx in range(row_count):
        length = results[names[0]].rows[idx].L_km
        cells = "".join(f"{results[name].rows[idx].optimal_mu:>11.4f}" for name in names)
        print(f"{length:>6.0f}{cells}")
    return 0 if report.all_nonpositive else 1


if __name__ == "__main__":
    sys.exit(main())
