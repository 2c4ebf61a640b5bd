#!/usr/bin/env python3
"""Reproduce the headline lower bounds: the comparison table and the optima.

Prints the quadratic dimension coefficients per degree, the best integer and
real degrees, and the second-order improvement at degree 16.
"""
from __future__ import annotations

from bvlab.constructions import ShellParams
from bvlab.formulas import (best_integer_degree, best_real_degree, optimal_rho0, table2,
                            truncate_display)
from bvlab.order2 import order2_bound


def main() -> None:
    print("degree   basic        improved     c_d        optimal_rho0")
    for row in table2():
        print(f"{row['d']:>6}   {truncate_display(row['lambda_lemma'])}       "
              f"{truncate_display(row['improved'])}       "
              f"{row['c_d']:.6f}   {row['optimal_rho0']:.9f}")
    d_int, v_int = best_integer_degree(2, 64)
    d_real, v_real = best_real_degree()
    print(f"\nbest integer degree: {d_int}  value {v_int:.6f}")
    print(f"best real degree:    {d_real:.4f}  value {v_real:.6f}")

    report = order2_bound(ShellParams(d=16, rho0=optimal_rho0(16), n0=15, shells=7),
                          refine=True)
    print(f"\nsecond-order bound at degree 16:")
    print(f"  first order  {report.first_order:.6f}")
    print(f"  second order {report.second_order:.6f}")
    print(f"  total        {report.total:.6f}  (stability {report.stability:.2e})")


if __name__ == "__main__":
    main()
