"""Integral means and asymptotic-variance estimators for exterior series.

The asymptotic variance of g is the growth rate of the circle means
I(R) = (1/2pi) int |g(R e^(i theta))|^2 d theta against log(1/(R-1)) as
R -> 1+.  By orthogonality I(R) = sum |b_k|^2 R^(-2k) exactly, so all
estimators here are coefficient sums:

  * variance_lacunary  - Cesaro means of squared moduli over log(base);
  * variance_block     - increments of I(R) between self-similar scales;
  * variance_block_mass- per-block l2 coefficient mass over log(base),
                         exact for eventually self-similar series;
  * cesaro_sigma4      - fourth-order average of the third derivative
                         against the hyperbolic density, in closed form.

Each builds a per-scale sequence whose error shrinks by a known ratio (1/d
per self-similar scale, 1/2 between the Cesaro checkpoints N/2 and N), and
one rule, limit_estimate, reports its limit and a-posteriori error; a last
difference at rounding level (ROUNDING_FLOOR) counts as converged.

Scales that the cutoff of the input does not resolve raise
UnresolvedScaleError.  The cutoff a scale needs (resolving_freq) grows with
the order of the derivative in the integrand: cesaro_sigma4 resolves the
third derivative of its series, the other estimators the series itself.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_right
from math import expm1, fsum, log1p

from .errors import FREQ_CAP, UnresolvedScaleError, ValidationError
from .laurent import ExteriorLaurent, SelfSimilarity, derivative_coefficients
from .records import record

TOLERANCE = 1e-3  # a-posteriori error, relative to the value, that counts as converged
# a last difference within ROUNDING_FLOOR * |value| is rounding, not a trend.  At shell
# capacity the second-order block masses end in differences of up to 25.6 eps |value|:
# d = 3 at rho0 0.05, optimal and 0.6, d = 12 at 0.05, d = 16 at 0.05 and 0.6, d = 20
# at 0.6.  On the estimator sweep grid every last difference below 64 eps |value| (6.4
# and 8.1 at d = 32) converges by its ratio too, and the estimates that do not
# converge end in differences of 5e12 eps |value| and more.
ROUNDING_FLOOR = 64 * sys.float_info.epsilon
# means_curve sums n_pts x (stored coefficients) terms of I(R), about 0.2 us each; the
# worst admitted curve, 10^5 coefficients at 40 points, takes about 1 s end to end on a
# 2-core machine, and the shell series and growth slopes in use stay below 10^5
MAX_MEANS_WORK = 4 * 10**6
# cesaro_sigma4 needs R0^2 - 1 to be a finite double (R0 below about 1.3e154);
# the tests check the closed form against a quadrature at this edge
CESARO_R0_MAX = 1e154
MAX_POINTS = 10**4  # means_curve's grid: 100x the default of the means-curve command


class VarianceEstimate(record("VarianceEstimate", "value error method diagnostics converged")):
    """Variance value with its a-posteriori error (None from a single scale), method
    tag, the raw per-scale values it was extrapolated from as (scale, value) pairs,
    and convergence."""

    __slots__ = ()

    def to_doc(self) -> dict:
        return {**self._asdict(), "tolerance": TOLERANCE}


def limit_estimate(values: list[float], ratio: float, method: str,
                   scales=None) -> VarianceEstimate:
    """The limit of values whose error shrinks by ``ratio`` = r from one scale to the next.

    The value (v_l - r v_(l-1))/(1 - r) is v_l plus the Richardson step
    (v_l - v_(l-1)) r/(1 - r), and the error is the size of that step.  The ratio q of
    the last two differences supports that error when 0 <= q <= 2r/(1 + r), as the step
    with q then lies within it, and so does a last difference within ROUNDING_FLOOR
    times the value, where q is rounding noise; either needs three values.  converged
    needs that support and an error of at most TOLERANCE times the value.
    """
    diagnostics = tuple(zip(range(len(values)) if scales is None else scales, values))
    if len(values) < 2:
        return VarianceEstimate(values[-1], None, method, diagnostics, False)
    last = values[-1] - values[-2]
    step = last * ratio / (1.0 - ratio)
    value = values[-1] + step
    supported = False
    if len(values) > 2:
        before = values[-2] - values[-3]
        supported = abs(last) <= ROUNDING_FLOOR * abs(value) or (
            before * last >= 0 and (1.0 + ratio) * abs(last) <= 2.0 * ratio * abs(before))
    return VarianceEstimate(value, abs(step), method, diagnostics,
                            supported and abs(step) <= TOLERANCE * abs(value))


# the y > 2n at which y^(2n) e^(-y), n the derivative order, has fallen to e^-20 of its
# peak at y = 2n: the root of y = 20 + 2n (1 + log(y/(2n))), for the orders in use
_DECAY_WIDTH = {0: 20.0, 3: 36.89846248292565}


def resolving_freq(r_minus_1: float, order: int = 0) -> float:
    """The frequency cutoff a series needs to resolve the scale R = 1 + r_minus_1 in an
    integrand of its ``order``-th derivative, ``order`` 0 or 3.

    Frequency m enters that integrand with the weight m^(2n) R^(-2m), about
    y^(2n) e^(-y) with y = 2m (R - 1), and the cutoff is where the weight has fallen to
    e^-20 of its peak: 10/(R - 1) for the series, 18.45/(R - 1) for its third derivative.
    """
    return _DECAY_WIDTH[order] / 2.0 / r_minus_1


def integral_means_log(g: ExteriorLaurent, log_R: float) -> float:
    """I(R) from log R; use this form for scales within an ulp of the circle."""
    if not log_R > 0.0:
        raise ValidationError("integral means require R > 1")
    terms = []
    for k, c in g.coeffs.items():
        e = -2.0 * k * log_R
        if e < -745.0:
            continue
        terms.append(abs(c) ** 2 * math.exp(e))
    return fsum(terms)


def integral_means(g: ExteriorLaurent, R: float) -> float:
    """Circle mean of |g|^2 at radius R > 1, an exact coefficient sum."""
    if not R > 1.0:
        raise ValidationError("integral means require R > 1")
    return integral_means_log(g, math.log(R))


def variance_lacunary(moduli, d: float) -> VarianceEstimate:
    """Cesaro means of squared moduli over log d, exact for lacunary series of ratio d.

    The mean of N squares misses the limit by about S/N, so the checkpoints halve
    from N, rounding up, and the step 2 v_N - v_(N/2) removes that term.  It weighs
    each square by a nonnegative weight, so the value stays within their range.
    """
    squares = [m * m for m in map(float, moduli)]
    if not d > 1.0 or not squares:
        raise ValidationError("need a lacunary base above 1 and at least one modulus")
    checkpoints = [len(squares)]
    while checkpoints[0] > 1:
        checkpoints.insert(0, -(-checkpoints[0] // 2))
    return limit_estimate([fsum(squares[:n]) / n / math.log(d) for n in checkpoints], 0.5,
                          "lacunary_exact", checkpoints)


def block_need(R0: float, d: int, n_blocks: int) -> float:
    """The cutoff (resolving_freq) that the finest scale R0^(1/d^n_blocks) of
    variance_block needs; a block count is rejected exactly when it lies above FREQ_CAP."""
    if d < 2 or not 1.0 < R0 < math.inf or n_blocks < 1:
        raise ValidationError("need d >= 2, 1 < R0 < inf and at least one block")
    # past d^n_blocks = e^100 the finest scale, below 710 e^-100, needs a cutoff above 10^41
    need = (resolving_freq(expm1(math.log(R0) / d**n_blocks))
            if n_blocks * math.log(d) <= 100.0 else math.inf)
    if need > FREQ_CAP:
        raise ValidationError(f"{n_blocks} blocks of degree {d} probe scales that no series "
                              "below frequency 2^63 - 1 resolves")
    return need


def variance_block(g: ExteriorLaurent, d: int, R0: float, n_blocks: int) -> VarianceEstimate:
    """Variance from increments of I(R) between the scales R0^(1/d^k), k <= n_blocks.

    Each increment [I(R_(k+1)) - I(R_k)] / [log(1/(R_(k+1)-1)) - log(1/(R_k-1))]
    measures the coefficient mass of one self-similar block.  Their error
    shrinks by about 1/d per scale, and the reported value is their limit.
    """
    need = block_need(R0, d, n_blocks)
    log_R = [math.log(R0) / d**k for k in range(n_blocks + 1)]
    r_minus_1 = [expm1(l) for l in log_R]
    if g.max_freq < need:
        raise UnresolvedScaleError(
            f"series cutoff {g.max_freq} cannot resolve R - 1 = {r_minus_1[-1]:.3e}; "
            f"needs max_freq >= {need:.3e}")
    means = [integral_means_log(g, l) for l in log_R]
    scales = [math.log(1.0 / x) for x in r_minus_1]
    increments = [(means[k + 1] - means[k]) / (scales[k + 1] - scales[k])
                  for k in range(n_blocks)]
    return limit_estimate(increments, 1.0 / d, "block_increment")


def block_masses(g: ExteriorLaurent, blocks: SelfSimilarity) -> list[float]:
    """Per-block l2 coefficient mass over log(base) of the blocks [n_l, n_(l+1)) of
    ``blocks`` complete below the cutoff of g, n_(l+1) <= max_freq + 1, so that the
    masses below a smaller cutoff are a prefix of these."""
    edges = blocks.block_edges(g.max_freq + 1)
    complete = len(edges) - 1
    if complete < 1:
        raise UnresolvedScaleError("no complete self-similar block below the cutoff")
    buckets: list[list[float]] = [[] for _ in range(complete)]
    for k, c in g.coeffs.items():
        idx = bisect_right(edges, k) - 1  # -1 below the first edge
        if 0 <= idx < complete:
            buckets[idx].append(abs(c) ** 2)
    return [fsum(b) / math.log(blocks.base) for b in buckets]


def variance_block_mass(g: ExteriorLaurent) -> VarianceEstimate:
    """The limit of the block_masses of g by the ratio 1/base, exact for eventually
    self-similar series since I(R) has no cross terms; needs g's self-similarity."""
    ss = g.self_similarity
    if ss is None:
        raise ValidationError("block-mass estimator needs self-similarity metadata")
    return limit_estimate(block_masses(g, ss), 1.0 / ss.base, "block_mass")


def cesaro_sigma4(v: ExteriorLaurent, R0: float, d: int) -> VarianceEstimate:
    """Fourth-order average of v''' against the hyperbolic density.

    Per fundamental annulus A(R^(1/d), R) the estimate is

        (8/3) * [int |v'''|^2 ((r^2-1)/2)^3 r dr] / [int (2r/(r^2-1)) dr],

    the angular integral being exact by orthogonality and the radial one an
    incomplete beta function per frequency (see _radial_fourth_order_integral),
    so the closed form has no quadrature error.  For self-similar input the
    per-annulus values approach their limit by about 1/d per annulus.
    """
    if d < 2 or not 1.0 < R0 <= CESARO_R0_MAX:
        raise ValidationError(f"need d >= 2 and 1 < R0 <= {CESARO_R0_MAX:g}")
    mass = {k: abs(c) ** 2 for k, c in derivative_coefficients(v.coeffs, 3).items()}
    values = []
    for k in range(65):
        log_hi = math.log(R0) / d**k
        log_lo = log_hi / d
        if resolving_freq(expm1(log_lo), 3) > v.max_freq:
            break
        num = _radial_fourth_order_integral(mass, log_lo, log_hi)
        den = math.log(expm1(2 * log_hi) / expm1(2 * log_lo))
        values.append((8.0 / 3.0) * num / den)
    if not values:
        raise UnresolvedScaleError("series cutoff cannot resolve one fundamental annulus")
    return limit_estimate(values, 1.0 / d, "cesaro4")


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


def means_curve(g: ExteriorLaurent, r_lo: float, r_hi: float, n_pts: int) -> list:
    """(R - 1, I(R)) on the geometric grid of R - 1 from r_hi down to r_lo, given as R - 1
    so that ends below the float step of 1 keep their value.  The bounds are those of
    the means-curve command, whose --r-min and --r-max are r_lo and r_hi."""
    if not (1.0 < 1.0 + r_lo and r_lo < r_hi < 1.0 and 2 <= n_pts <= MAX_POINTS):
        raise ValidationError(f"need 1 + r_min > 1 (r_min above about 1.1e-16), r_min < r_max "
                              f"< 1 and 2 <= points <= {MAX_POINTS}")
    if n_pts * len(g.coeffs) > MAX_MEANS_WORK:
        raise ValidationError(f"points x coefficients of the series must be at most "
                              f"{MAX_MEANS_WORK}, got {n_pts} x {len(g.coeffs)}")
    curve = []
    for i in range(n_pts):
        t = i / (n_pts - 1)
        x = math.exp((1 - t) * math.log(r_hi) + t * math.log(r_lo))
        curve.append((x, integral_means_log(g, log1p(x))))
    return curve


def curve_slope(curve) -> float:
    """Least-squares slope of I(R) against log(1/(R-1)) over (R - 1, I(R)) points."""
    xs, ys = [math.log(1.0 / x) for x, _ in curve], [y for _, y in curve]
    x_mean, y_mean = fsum(xs) / len(xs), fsum(ys) / len(ys)
    cov = fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    return cov / fsum((x - x_mean) ** 2 for x in xs)


def growth_slope(g: ExteriorLaurent, R_lo: float, R_hi: float, n_pts: int = 40) -> float:
    """curve_slope of the means_curve of g from R_lo to R_hi; at most 1, up to window
    effects, for the transform of a Beltrami coefficient bounded by one."""
    return curve_slope(means_curve(g, R_lo - 1.0, R_hi - 1.0, n_pts))
