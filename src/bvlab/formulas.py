"""Closed-form variance bounds, dimension formulas and degree optimizers.

Every formula here is cross-validated elsewhere by an independent numeric
path: the shell variance against the block estimators, the optimal radius
against grid maximization, and the two dimension parametrizations against
each other through the distortion constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FREQ_CAP, ValidationError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class DimensionRow:
    """Per-degree comparison of the two quadratic dimension coefficients."""

    d: float
    lambda_lemma_coeff: float
    improved_coeff: float
    c_d: float
    optimal_rho0: float

    def to_doc(self) -> dict:
        return {
            "d": self.d,
            "lambda_lemma": self.lambda_lemma_coeff,
            "improved": self.improved_coeff,
            "c_d": self.c_d,
            "optimal_rho0": self.optimal_rho0,
        }


def check_degree(d: float) -> None:
    # above the frequency capacity no shell beyond the first exists, and d^2
    # in sigma2_optimal overflows long before d leaves the float range
    if not 1.0 < d <= FREQ_CAP:
        raise ValidationError("degree must lie in (1, 2^63 - 1]")


def sigma2_shell(d: float, rho0: float) -> float:
    """Shell-coefficient variance 4 (rho0^(1/d) - rho0)^2 / log d."""
    check_degree(d)
    if not 0.0 < rho0 < 1.0:
        raise ValidationError("rho0 must lie in (0, 1)")
    delta = rho0 ** (1.0 / d) - rho0
    return 4.0 * delta * delta / math.log(d)


def optimal_rho0(d: float) -> float:
    """Maximizer d^(d/(1-d)) of the shell variance in rho0."""
    check_degree(d)
    return d ** (d / (1.0 - d))


def sigma2_optimal(d: float) -> float:
    """Shell variance at the optimal radius: 4 d^(2/(1-d)) (d-1)^2 / (d^2 log d)."""
    check_degree(d)
    return 4.0 * d ** (2.0 / (1.0 - d)) * (d - 1.0) ** 2 / (d * d * math.log(d))


_FLOAT_CAP = math.nextafter(float(FREQ_CAP), 0.0)  # 2^63 - 1024


def best_integer_degree(d_min: int = 2, d_max: int = 64) -> tuple[int, float]:
    """Integer degree maximizing the optimal shell variance (argmax is 20).

    The objective rises up to its real maximizer (about 19.74) and falls beyond
    it, so the argmax is the floor or ceiling of the maximizer on the range.
    """
    if d_min < 2 or d_max < d_min:
        raise ValidationError("need 2 <= d_min <= d_max")
    x = best_real_degree(d_min, d_max)[0]
    candidates = sorted({min(max(f(x), d_min), d_max) for f in (math.floor, math.ceil)})
    return max(((d, sigma2_optimal(d)) for d in candidates), key=lambda dv: dv[1])


def golden_section_maximize(f, a: float, b: float, xtol: float = 1e-8) -> tuple[float, float]:
    """Derivative-free maximization of a unimodal function on [a, b]."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        width = b - a
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        if not b - a < width:  # far from 0, xtol may lie below the float spacing
            break
    x = 0.5 * (a + b)
    return x, f(x)


def best_real_degree(lo: float = 2.0, hi: float = 64.0) -> tuple[float, float]:
    """Real degree maximizing the optimal shell variance; the value is ~0.87914.

    Integer bounds are compared exactly; the search runs in floats clamped to
    the largest float below 2^63 - 1, which itself rounds up to 2^63.  A range
    of one point (lo == hi) returns that point.
    """
    if not 1.0 < lo <= hi:
        raise ValidationError("need 1 < lo <= hi")
    return golden_section_maximize(sigma2_optimal, float(min(lo, _FLOAT_CAP)),
                                   float(min(hi, _FLOAT_CAP)))


def julia_dim_t(d: int, t: complex) -> float:
    """Second-order Julia-set dimension 1 + |t|^2 (d-1)^2 / (4 d^2 log d).

    The remainder is O(|t|^3) and is not evaluated; outputs carry the
    truncation order explicitly.
    """
    check_degree(d)
    return 1.0 + abs(t) ** 2 * (d - 1.0) ** 2 / (4.0 * d * d * math.log(d))


def distortion_constant(d: int) -> float:
    """Distortion improvement factor c_d = d^(1/(d-1)) / 2; c_2 = 1, c_d < 1 beyond."""
    check_degree(d)
    return d ** (1.0 / (d - 1.0)) / 2.0


def julia_dim_k(d: int, k: float) -> float:
    """Quasicircle form 1 + 4 d^(2/(1-d)) (d-1)^2 / (d^2 log d) * k^2.

    Related to julia_dim_t by the substitution k = c_d |t| / 2.
    """
    check_degree(d)
    return 1.0 + sigma2_optimal(d) * k * k


def smirnov_dim_t(t: float) -> float:
    """Holomorphic-motion bound 1 + (1 - sqrt(1-t^2))^2 / t^2, continued by 1 at 0."""
    if not 0.0 <= t < 1.0:
        raise ValidationError("need 0 <= t < 1")
    if t == 0.0:
        return 1.0
    # 1 - sqrt(1-t^2) = t^2 / (1 + sqrt(1-t^2)) avoids cancellation near 0
    s = t * t / (1.0 + math.sqrt(1.0 - t * t))
    return 1.0 + (s / t) ** 2


def smirnov_dim_k(k: float) -> float:
    """Quasicircle dimension bound 1 + k^2."""
    if not 0.0 <= k < 1.0:
        raise ValidationError("need 0 <= k < 1")
    return 1.0 + k * k


def pointwise_sigma_bound(m: int) -> float:
    """Upper variance bound Gamma(2+m)^2 Gamma(m)^2 / (Gamma(2m) Gamma(m/2+1)^4).

    The minimum over integer m is 6, attained at m = 2; m = 1 recovers the
    squared projection seminorm (8/pi)^2.  Small m uses direct Gamma ratios
    (so m = 2 evaluates to exactly 6.0); large m switches to log-Gamma to
    avoid overflow.
    """
    if m < 1:
        raise ValidationError("order m must be >= 1")
    if m <= 80:
        g2m = math.gamma(2.0 + m)
        return (g2m / math.gamma(2.0 * m)) * g2m * \
            (math.gamma(float(m)) / math.gamma(m / 2.0 + 1.0) ** 2) ** 2
    log_v = (2.0 * math.lgamma(2.0 + m) + 2.0 * math.lgamma(float(m))
             - math.lgamma(2.0 * m) - 4.0 * math.lgamma(m / 2.0 + 1.0))
    return math.exp(log_v)


TABLE2_DEGREES = (2, 3, 4, 20)


def lambda_lemma_coeff(d: float) -> float:
    """Quadratic dimension coefficient (d-1)^2 / (d^2 log d) from the basic extension."""
    check_degree(d)
    return (d - 1.0) ** 2 / (d * d * math.log(d))


def table2() -> list[DimensionRow]:
    """Comparison rows of the basic and improved quadratic coefficients."""
    return [DimensionRow(d, lambda_lemma_coeff(d), sigma2_optimal(d),
                         distortion_constant(d), optimal_rho0(d))
            for d in TABLE2_DEGREES]


def truncate_display(x: float) -> str:
    """Decimal display truncated (not rounded) to four digits.

    Matches the ellipsis convention of the reference table; the raw values
    are always emitted alongside.
    """
    return f"{math.floor(x * 10**4) / 10**4:.4f}"
