#!/usr/bin/env python3
"""Truncation ladder for the second-order bound.

Shows how the degree-16 total stabilizes as the shell count grows, against
the hand-derived limiting block mass.
"""
from __future__ import annotations

import argparse
import math

from bvlab.constructions import ShellParams
from bvlab.formulas import optimal_rho0
from bvlab.order2 import order2_bound


def analytic_limit(d: float, rho0: float) -> float:
    delta = rho0 ** (1.0 / d) - rho0
    cross = 16.0 * delta**4 / (d * d - 1.0)
    diag = 2.0 * (rho0 ** (2.0 / d) - rho0**2) - 8.0 * rho0 * delta - 2.0 * delta**2
    return cross + diag * diag


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=16)
    parser.add_argument("--max-shells", type=int, default=7)
    args = parser.parse_args()

    rho0 = optimal_rho0(args.d)
    limit = analytic_limit(args.d, rho0) / math.log(args.d)
    print(f"degree {args.d}, rho0 {rho0:.9f}, limiting second order {limit:.9f}")
    print("shells   second_order    total           deviation_from_limit")
    for shells in range(3, args.max_shells + 1):
        report = order2_bound(ShellParams(d=args.d, rho0=rho0, shells=shells))
        print(f"{shells:>6}   {report.second_order:.9f}     {report.total:.9f}"
              f"     {report.second_order - limit:+.2e}")


if __name__ == "__main__":
    main()
