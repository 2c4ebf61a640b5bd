#!/usr/bin/env python3
"""Truncation ladder for the second-order bound.

Shows how the degree-16 total stabilizes as the shell count grows: each
second-order value with its a-posteriori error, against the hand-derived
limiting block mass.
"""
from __future__ import annotations

import argparse

from bvlab.constructions import ShellParams
from bvlab.formulas import optimal_rho0, sigma2_second_order
from bvlab.order2 import order2_bound


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=16)
    parser.add_argument("--max-shells", type=int, default=7)
    args = parser.parse_args()

    rho0 = optimal_rho0(args.d)
    limit = sigma2_second_order(args.d, rho0)
    print(f"degree {args.d}, rho0 {rho0:.9f}, limiting second order {limit:.9f}")
    print("shells   second_order    error       total           deviation_from_limit")
    for shells in range(3, args.max_shells + 1):
        report = order2_bound(ShellParams(d=args.d, rho0=rho0, shells=shells))
        error = report.second_order_estimate.error
        print(f"{shells:>6}   {report.second_order:.9f}     {error:.2e}    {report.total:.9f}"
              f"     {report.second_order - limit:+.2e}")


if __name__ == "__main__":
    main()
