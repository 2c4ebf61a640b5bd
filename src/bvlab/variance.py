"""Integral means and asymptotic-variance estimators for exterior series.

The asymptotic variance of g is the growth rate of the circle means
I(R) = (1/2pi) int |g(R e^(i theta))|^2 d theta against log(1/(R-1)) as
R -> 1+.  By orthogonality I(R) = sum |b_k|^2 R^(-2k) exactly, so all
estimators here are coefficient sums:

  * variance_lacunary  - Cesaro limit of squared moduli over log(base);
  * variance_block     - increments of I(R) between self-similar scales;
  * variance_block_mass- per-block l2 coefficient mass over log(base),
                         exact for eventually self-similar series;
  * cesaro_sigma4      - fourth-order average of the third derivative
                         against the hyperbolic density, in closed form.

Scales below the resolution cutoff of the input raise UnresolvedScaleError.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from math import expm1, fsum, log1p

from .errors import FREQ_CAP, UnresolvedScaleError, ValidationError
from .laurent import ExteriorLaurent

TOLERANCE = 1e-3  # relative change of the last two running estimates that counts as converged
# cesaro_sigma4 needs R0^2 - 1 to be a finite double (R0 below about 1.3e154);
# the tests check the closed form against a quadrature at this edge
CESARO_R0_MAX = 1e154


@dataclass(frozen=True)
class VarianceEstimate:
    """Variance value with method tag and per-scale convergence diagnostics."""

    value: float
    method: str
    diagnostics: tuple[tuple[int, float], ...]
    converged: bool

    def to_doc(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "converged": self.converged,
            "tolerance": TOLERANCE,
            "diagnostics": [[i, v] for i, v in self.diagnostics],
        }


def _tail_average(values: list[float]) -> float:
    tail = values[-max(1, (len(values) + 1) // 2):]
    return fsum(tail) / len(tail)


def _running_tail(values: list[float]) -> list[float]:
    return [_tail_average(values[:i + 1]) for i in range(len(values))]


def _consecutive_converged(values: list[float]) -> bool:
    if len(values) < 2:
        return False
    a, b = values[-2], values[-1]
    return abs(b - a) <= TOLERANCE * max(abs(a), abs(b), 1e-30)


def _aitken(values: list[float]) -> list[float]:
    """Aitken delta-squared acceleration, elementwise with safe fallbacks.

    Block increments of self-similar series converge geometrically (ratio
    1/d), which Aitken removes exactly; for already-converged sequences the
    denominator degenerates and the raw value is kept.
    """
    out = list(values)
    for i in range(2, len(values)):
        x0, x1, x2 = values[i - 2], values[i - 1], values[i]
        denom = (x2 - x1) - (x1 - x0)
        if abs(denom) > 1e-9 * max(abs(x2 - x1), abs(x1 - x0), 1e-30):
            acc = x2 - (x2 - x1) ** 2 / denom
            if math.isfinite(acc):
                out[i] = acc
    return out


def linspace(start: float, stop: float, num: int) -> list[float]:
    """numpy.linspace(start, stop, num) bit for bit: start + i*step, last point stop."""
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


def integral_means_log(g: ExteriorLaurent, log_R: float) -> float:
    """I(R) from log R; use this form for scales within an ulp of the circle."""
    if not log_R > 0.0:
        raise ValidationError("integral means require R > 1")
    terms = []
    for k in sorted(g.coeffs):
        e = -2.0 * k * log_R
        if e < -745.0:
            continue
        terms.append(abs(g.coeffs[k]) ** 2 * math.exp(e))
    return fsum(terms)


def integral_means(g: ExteriorLaurent, R: float) -> float:
    """Circle mean of |g|^2 at radius R > 1, an exact coefficient sum."""
    if not R > 1.0:
        raise ValidationError("integral means require R > 1")
    return integral_means_log(g, math.log(R))


def variance_lacunary(moduli, d: float) -> VarianceEstimate:
    """Cesaro mean of squared moduli divided by log d.

    Exact for lacunary series whose frequencies grow with ratio d; the
    diagnostics record running Cesaro means at geometric checkpoints.
    """
    moduli = [float(m) for m in moduli]
    if not d > 1.0 or not moduli:
        raise ValidationError("need a lacunary base above 1 and at least one modulus")
    log_d = math.log(d)
    squares = [m * m for m in moduli]
    step = max(1, len(squares) // 32)
    checkpoints = sorted(set(range(step, len(squares) + 1, step)) | {len(squares)})
    diagnostics = [(n, fsum(squares[:n]) / n / log_d) for n in checkpoints]
    values = [v for _, v in diagnostics]
    return VarianceEstimate(values[-1], "lacunary_exact", tuple(diagnostics),
                            _consecutive_converged(values))


def block_log_scales(R0: float, d: int, n_blocks: int) -> list[float]:
    """The scales log R_k = log(R0) / d^k, k <= n_blocks, that variance_block probes.

    Past d^n_blocks = FREQ_CAP log R0 the finest one needs frequencies above 10 FREQ_CAP.
    """
    if d < 2 or not 1.0 < R0 < math.inf or n_blocks < 1:
        raise ValidationError("need d >= 2, 1 < R0 < inf and at least one block")
    if n_blocks * math.log(d) > math.log(FREQ_CAP * math.log(R0)):
        raise ValidationError(f"{n_blocks} blocks of degree {d} probe scales that no series "
                              "below frequency 2^63 - 1 resolves")
    return [math.log(R0) / d**k for k in range(n_blocks + 1)]


def variance_block(g: ExteriorLaurent, d: int, R0: float, n_blocks: int) -> VarianceEstimate:
    """Variance from increments of I(R) between the scales R0^(1/d^k).

    Each increment [I(R_(k+1)) - I(R_k)] / [log(1/(R_(k+1)-1)) - log(1/(R_k-1))]
    measures the coefficient mass of one self-similar block; the reported
    value averages the last ceil(n/2) increments.
    """
    log_R = block_log_scales(R0, d, n_blocks)
    r_minus_1 = [expm1(l) for l in log_R]
    if g.max_freq < 10.0 / r_minus_1[-1]:
        raise UnresolvedScaleError(
            f"series cutoff {g.max_freq} cannot resolve R - 1 = {r_minus_1[-1]:.3e}; "
            f"needs max_freq >= {10.0 / r_minus_1[-1]:.3e}")
    means = [integral_means_log(g, l) for l in log_R]
    scales = [math.log(1.0 / x) for x in r_minus_1]
    increments = []
    for k in range(n_blocks):
        increments.append((means[k + 1] - means[k]) / (scales[k + 1] - scales[k]))
    running = _running_tail(_aitken(increments))
    diagnostics = tuple(enumerate(running))
    return VarianceEstimate(running[-1], "block_increment", diagnostics,
                            _consecutive_converged(running))


def variance_block_mass(g: ExteriorLaurent) -> VarianceEstimate:
    """Per-block l2 coefficient mass over log(base).

    Requires self-similarity metadata on ``g``; block l covers frequencies in
    [n_l, n_(l+1)).  Only blocks fully below the resolution cutoff count.
    Exact for eventually self-similar series since I(R) has no cross terms.
    """
    ss = g.self_similarity
    if ss is None:
        raise ValidationError("block-mass estimator needs self-similarity metadata")
    edges = ss.block_edges(g.max_freq)
    # keep blocks [n_l, n_(l+1)) with n_(l+1) <= max_freq + 1
    complete = len(edges) - 1
    if edges and edges[-1] * ss.base <= g.max_freq + 1:
        complete = len(edges)
    if complete < 1:
        raise UnresolvedScaleError("no complete self-similar block below the cutoff")
    log_d = math.log(ss.base)
    buckets: list[list[float]] = [[] for _ in range(complete)]
    for k in sorted(g.coeffs):
        if k < edges[0]:
            continue
        idx = bisect_right(edges, k) - 1
        if idx < complete:
            buckets[idx].append(abs(g.coeffs[k]) ** 2)
    masses = [fsum(b) for b in buckets]
    per_block = [m / log_d for m in masses]
    running = _running_tail(per_block)
    diagnostics = tuple(enumerate(running))
    return VarianceEstimate(running[-1], "block_mass", diagnostics,
                            _consecutive_converged(running))


def cesaro_sigma4(v: ExteriorLaurent, R0: float, d: int) -> VarianceEstimate:
    """Fourth-order average of v''' against the hyperbolic density.

    Per fundamental annulus A(R^(1/d), R) the estimate is

        (8/3) * [int |v'''|^2 ((r^2-1)/2)^3 r dr] / [int (2r/(r^2-1)) dr],

    the angular integral being exact by orthogonality and the radial one an
    incomplete beta function per frequency (see _radial_fourth_order_integral),
    so the closed form has no quadrature error.  Per-annulus values over
    deeper annuli are the diagnostics and stabilize for self-similar input.
    """
    if d < 2 or not 1.0 < R0 <= CESARO_R0_MAX:
        raise ValidationError(f"need d >= 2 and 1 < R0 <= {CESARO_R0_MAX:g}")
    v3 = v.third_derivative()
    mass = {k: abs(c) ** 2 for k, c in v3.coeffs.items()}
    values = []
    k = 0
    while True:
        log_hi = math.log(R0) / d**k
        log_lo = log_hi / d
        if 10.0 / expm1(log_lo) > v.max_freq:
            break
        num = _radial_fourth_order_integral(mass, log_lo, log_hi)
        den = math.log(expm1(2 * log_hi) / expm1(2 * log_lo))
        values.append((8.0 / 3.0) * num / den)
        k += 1
        if k > 64:
            break
    if not values:
        raise UnresolvedScaleError("series cutoff cannot resolve one fundamental annulus")
    running = _running_tail(values)
    diagnostics = tuple(enumerate(running))
    return VarianceEstimate(running[-1], "cesaro4", diagnostics,
                            _consecutive_converged(running))


def _radial_fourth_order_integral(mass: dict[int, float], log_lo: float,
                                  log_hi: float) -> float:
    """int_(r_lo)^(r_hi) [sum_m M_m r^(-2m)] ((r^2-1)/2)^3 r dr in closed form.

    With u = r^2 = 1 + x, frequency m >= 4 contributes (M_m/16) int x^3 u^(-m) dx,
    an incomplete beta function with integer parameters (DLMF 8.17).  It is
    the difference of the tails at both ends, or of the heads where m t <= 2
    at r_hi (t = x/u), since there the tails agree to many digits.
    """
    terms = []
    t_hi = -expm1(-2.0 * log_hi)
    for m, weight in mass.items():
        if m * t_hi <= 2.0:
            terms += [weight * _beta_head(m, 2.0 * log_hi), -weight * _beta_head(m, 2.0 * log_lo)]
        else:
            terms += [weight * _beta_tail(m, 2.0 * log_lo), -weight * _beta_tail(m, 2.0 * log_hi)]
    return fsum(terms) / 16.0


def _beta_head(m: int, log_u: float) -> float:
    """int_0^x s^3 (1+s)^(-m) ds = (t^4 u^(4-m) / 4) 2F1(m, 1; 5; t) (DLMF 8.17.8).

    The series has positive terms with ratio (m+j) t / (5+j); for m t <= 2 it
    reaches double precision within about 20 terms.
    """
    t = -expm1(-log_u)
    total = term = 1.0
    j = 0
    while term > 1e-17 * total:
        term *= (m + j) * t / (5 + j)
        total += term
        j += 1
    return t**4 * math.exp((4 - m) * log_u) * total / 4.0


def _beta_tail(m: int, log_u: float) -> float:
    """int_x^oo s^3 (1+s)^(-m) ds = u^(4-m) sum_i c_i t^(3-i) for m >= 5.

    Four integrations by parts give c_i = 3!/(3-i)! / ((m-1)...(m-1-i)).  For
    m = 4 the tail diverges; minus the antiderivative log u + 3/u - 3/(2u^2)
    + 1/(3u^3) stands in for it, as only differences are used.
    """
    if m == 4:
        w = math.exp(-log_u)
        return -(log_u + 3.0 * w - 1.5 * w * w + w**3 / 3.0)
    t = -expm1(-log_u)
    c0 = 1.0 / (m - 1)
    c1 = 3.0 * c0 / (m - 2)
    c2 = 2.0 * c1 / (m - 3)
    c3 = c2 / (m - 4)
    return math.exp((4 - m) * log_u) * (((c0 * t + c1) * t + c2) * t + c3)


def growth_slope(g: ExteriorLaurent, R_lo: float, R_hi: float, n_pts: int = 40) -> float:
    """Least-squares slope of I(R) against log(1/(R-1)) on a geometric grid.

    For g arising as a transform of a Beltrami coefficient bounded by one,
    the slope cannot exceed 1 up to finite-window effects.
    """
    if not 1.0 < R_lo < R_hi or n_pts < 2:
        raise ValidationError("need 1 < R_lo < R_hi and at least two points")
    xs, ys = [], []
    for i in range(n_pts):
        t = i / (n_pts - 1)
        r_minus_1 = math.exp((1 - t) * math.log(R_lo - 1.0) + t * math.log(R_hi - 1.0))
        xs.append(math.log(1.0 / r_minus_1))
        ys.append(integral_means_log(g, log1p(r_minus_1)))
    x_mean = fsum(xs) / n_pts
    y_mean = fsum(ys) / n_pts
    cov = fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    var = fsum((x - x_mean) ** 2 for x in xs)
    return cov / var


def bloch_seminorm(g: ExteriorLaurent, radii=None, n_angles: int = 48) -> float:
    """Grid lower bound for sup (|z|^2 - 1) |g'(z)| over the exterior disk."""
    gp = g.derivative()
    if radii is None:
        radii = [1.0 + math.exp(u) for u in linspace(math.log(1e-4), math.log(40.0), 60)]
    best = 0.0
    for R in radii:
        w = R * R - 1.0
        for j in range(n_angles):
            th = 2 * math.pi * (j + 0.31) / n_angles
            z = R * complex(math.cos(th), math.sin(th))
            best = max(best, w * abs(gp.eval(z)))
    return best
