#!/usr/bin/env python3
"""Sweep the four variance estimators over a degree grid and emit CSV: each value
with its a-posteriori error, next to the closed form."""
from __future__ import annotations

import argparse
import sys

from bvlab.constructions import (ShellParams, shell_beurling_series, shell_cauchy_series,
                                 shell_moduli)
from bvlab.formulas import optimal_rho0, sigma2_optimal
from bvlab.manifest import csv_text
from bvlab.variance import cesaro_sigma4, variance_block, variance_block_mass, variance_lacunary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degrees", default="2,3,4,8,12,16,20,32")
    parser.add_argument("--out", default="-")
    args = parser.parse_args()

    rows = []
    for d in (int(x) for x in args.degrees.split(",")):
        params = ShellParams(d=d, rho0=optimal_rho0(d), shells=22 if d == 2 else 12)
        g = shell_beurling_series(params)
        estimates = [
            variance_lacunary(shell_moduli(params, 2000), d),
            variance_block(g, d, 1.5, 14 if d == 2 else 8),
            variance_block_mass(g),
            cesaro_sigma4(shell_cauchy_series(params), 1.5, d),
        ]
        rows.append([d, sigma2_optimal(d),
                     *(x for est in estimates for x in (est.value, est.error))])
    text = csv_text(["d", "closed_form", "lacunary", "lacunary_error", "block", "block_error",
                     "mass", "mass_error", "cesaro4", "cesaro4_error"], rows)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
