"""Correctness references, computed without the code paths being timed.

Every check returns None when the result is acceptable and a one-line reason
when it is not; the benchmark counts a reason as a failed operation.
"""
from __future__ import annotations

import math

# Acceptance criterion 4 of the test suite: every estimator within 2% of the
# closed-form shell variance.
ESTIMATOR_RTOL = 0.02

# Display values of the improved coefficient in the reference table (d = 2, 3, 4, 20).
TABLE2_IMPROVED_DISPLAY = {"2": "0.3606", "3": "0.5394", "4": "0.6441", "20": "0.8791"}


def sigma2_shell(d: float, rho0: float) -> float:
    """First-order shell variance 4 (rho0^(1/d) - rho0)^2 / log d."""
    delta = rho0 ** (1.0 / d) - rho0
    return 4.0 * delta * delta / math.log(d)


def optimal_rho0(d: float) -> float:
    return d ** (d / (1.0 - d))


def order2_limit(d: float, rho0: float) -> float:
    """Second-order variance of the infinite shell construction.

    Hand-derived limiting block mass over log d (the formula of
    scripts/order2_refinement.py::analytic_limit, restated here so that the
    benchmark does not import the scripts).
    """
    delta = rho0 ** (1.0 / d) - rho0
    cross = 16.0 * delta**4 / (d * d - 1.0)
    diag = 2.0 * (rho0 ** (2.0 / d) - rho0**2) - 8.0 * rho0 * delta - 2.0 * delta**2
    return (cross + diag * diag) / math.log(d)


def order2_tolerance(d: float, rho0: float, shells: int) -> float:
    """Allowed relative distance of a J-shell second-order value from the limit.

    The truncation error decays like d^(-J/2) and grows as rho0 shrinks.  On a
    grid of rho0 in [0.04, 0.6] (15 geometric steps and the optimum) and
    J in 2..12 for every ladder degree, the largest measured distance is
    0.53 d^(-(J-1)/2) / sqrt(rho0); the bound allows 1.5 times that.  At
    capacity it bottoms out at 1e-8 (measured deviations there stay below
    1e-9).  At the shallowest points the J-shell value itself lies up to 65%
    from the limit, so there the check only catches gross errors; a
    systematic error is caught by the capacity points, which every round
    includes for every degree.
    """
    return max(1e-8, 0.8 * d ** (-(shells - 1) / 2.0) / math.sqrt(rho0))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_order2(d: float, rho0: float, shells: int, first: float, second: float,
                 total: float, stability: float | None, refined: bool) -> str | None:
    if not all(math.isfinite(x) for x in (first, second, total)):
        return "non-finite order-2 report"
    if _rel(first, sigma2_shell(d, rho0)) > 1e-12:
        return f"first order {first!r} differs from the closed form"
    if total < first:
        return f"total {total!r} below first order {first!r}"
    if abs(total - (first + second)) > 1e-14 * abs(total):
        return "total is not first + second order"
    tol = order2_tolerance(d, rho0, shells)
    err = _rel(second, order2_limit(d, rho0))
    if err > tol:
        return f"second order off the analytic limit by {err:.2e} (tol {tol:.1e}, d={d}, J={shells})"
    if refined and (stability is None or not stability <= tol):
        return f"refinement stability {stability!r} above {tol:.1e}"
    return None


def check_leaderboard(totals: list[float], best_total: float) -> str | None:
    if not totals or best_total != totals[0]:
        return "best report is not the leaderboard head"
    if any(a < b for a, b in zip(totals, totals[1:])):
        return "leaderboard not sorted by descending total"
    return None


def check_estimate(d: float, rho0: float, value: float) -> str | None:
    ref = sigma2_shell(d, rho0)
    if not math.isfinite(value) or _rel(value, ref) > ESTIMATOR_RTOL:
        return f"estimate {value!r} vs closed form {ref!r} (d={d}, rho0={rho0:.6g})"
    return None


def integral_means_reference(coeffs: dict, log_r: float) -> float:
    """sum |b_k|^2 R^(-2k), plain summation from the largest term down."""
    return sum(sorted((abs(c) ** 2 * math.exp(-2.0 * k * log_r) for k, c in coeffs.items()),
                      reverse=True))


def check_means(coeffs: dict, log_r: float, value: float) -> str | None:
    ref = integral_means_reference(coeffs, log_r)
    if not math.isfinite(value) or _rel(value, ref) > 1e-12:
        return f"integral mean {value!r} vs reference {ref!r}"
    return None


def slope_reference(coeffs: dict, r_lo: float, r_hi: float, n: int) -> float:
    """Least-squares slope of I(R) against log(1/(R-1)) on the same geometric grid."""
    xs, ys = [], []
    for i in range(n):
        t = i / (n - 1)
        x = math.exp((1 - t) * math.log(r_lo - 1.0) + t * math.log(r_hi - 1.0))
        xs.append(-math.log(x))
        ys.append(integral_means_reference(coeffs, math.log1p(x)))
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def check_slope(coeffs: dict, r_lo: float, r_hi: float, n: int, value: float) -> str | None:
    ref = slope_reference(coeffs, r_lo, r_hi, n)
    if not math.isfinite(value) or abs(value - ref) > 1e-8 * max(1.0, abs(ref)):
        return f"growth slope {value!r} vs reference {ref!r}"
    return None


def check_cli(case: str, code: int, digest: str, reference: str | None,
              stdout: bytes) -> str | None:
    """Exit 0, artifacts byte-identical to the first run of the same command
    line, and the reference table's display values."""
    if code != 0:
        return f"{case}: exit code {code}"
    if reference is not None and digest != reference:
        return f"{case}: artifacts differ from the first run of the same command line"
    if case == "table2":
        lines = stdout.decode("utf-8", "replace").strip().splitlines()
        if not lines:
            return "table2: empty output"
        header = lines[0].split(",")
        if "improved_display" not in header:
            return "table2: no improved_display column"
        col = header.index("improved_display")
        shown = {row.split(",")[0]: row.split(",")[col] for row in lines[1:]}
        for d, want in TABLE2_IMPROVED_DISPLAY.items():
            if shown.get(d) != want:
                return f"table2: d={d} shows {shown.get(d)!r}, expected {want}"
    return None
