"""Independent numerical oracles for the transform pipeline.

Every oracle evaluates a defining integral by quadrature, never by the
closed-form antiderivatives used in the package:

  * band tensor rules in (log r, theta) for non-singular kernels
    (spectrally accurate in the periodic angle, O(h^2) radially);
  * a smooth partition of unity around interior probe points, whose
    near-field is integrated in polar coordinates centred at the probe --
    the symmetric disk makes the principal value of the double-pole kernel
    converge without explicit exclusion;
  * contour differentiation on small circles for derivatives of
    holomorphic functions;
  * 40-digit mpmath quadrature of the radial fourth-order integral on
    log-spaced pieces;
  * numpy orbits of Blaschke maps on the circle and the 4096-point midpoint
    rule for the circle mean of log |B'|, from the logarithmic derivative.
"""
from __future__ import annotations

import math

import numpy as np

from bvlab.annular import MonomialTerm, PiecewiseField
from bvlab.dynamics import BlaschkeMap


def term_values(term: MonomialTerm, w: np.ndarray) -> np.ndarray:
    a = np.abs(w)
    out = np.zeros(w.shape, dtype=complex)
    with np.errstate(divide="ignore"):
        la = np.where(a > 0, np.log(np.where(a > 0, a, 1.0)), -np.inf)
    mask = (la >= term.log_r_in) & (la < term.log_r_out)
    if not mask.any():
        return out
    ws = w[mask]
    v = np.full(ws.shape, complex(term.coeff))
    if term.p:
        v = v * np.conj(ws) ** term.p
    if term.q:
        v = v * ws ** term.q
    if term.gamma:
        v = v * np.exp(term.gamma * np.log(np.abs(ws)))
    out[mask] = v
    return out


def field_values(field: PiecewiseField, w: np.ndarray) -> np.ndarray:
    out = np.zeros(w.shape, dtype=complex)
    for t in field.terms:
        out += term_values(t, w)
    return out


def _band_grid(r_lo: float, r_hi: float, n_r: int, n_t: int):
    """Midpoint tensor grid in (log r, theta) with area weights r^2 du dtheta."""
    du = (math.log(r_hi) - math.log(r_lo)) / n_r
    u = math.log(r_lo) + du * (np.arange(n_r) + 0.5)
    r = np.exp(u)
    dt = 2.0 * math.pi / n_t
    th = dt * (np.arange(n_t) + 0.5)
    w = r[:, None] * np.exp(1j * th)[None, :]
    dm = (r * r * du)[:, None] * np.full((1, n_t), dt)
    return w, dm


def _bands(field: PiecewiseField) -> list[tuple[float, float]]:
    rs = sorted({t.r_in for t in field.terms} | {t.r_out for t in field.terms})
    rs = [r for r in rs if math.isfinite(r)]
    if rs and rs[0] == 0.0:
        # the omitted core carries O(r_lo^2) of the mass; keep the log range short
        rs[0] = rs[1] * 1e-3 if len(rs) > 1 else 1e-3
    return list(zip(rs[:-1], rs[1:]))


def _bump(s: np.ndarray, delta: float) -> np.ndarray:
    """C^2 cutoff: 1 for s <= 0.4 delta, 0 for s >= 0.9 delta."""
    x = s / delta
    t = np.clip((0.9 - x) / 0.5, 0.0, 1.0)
    return t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)


def quad_moment(field: PiecewiseField, j: int, n_r: int = 400, n_t: int = 400) -> complex:
    """(1/pi) int field(w) w^j dm by band tensor quadrature."""
    total = 0j
    for r_lo, r_hi in _bands(field):
        w, dm = _band_grid(r_lo, r_hi, n_r, n_t)
        total += np.sum(field_values(field, w) * w**j * dm)
    return total / math.pi


def quad_bergman_coefficient(field: PiecewiseField, k: int,
                             n_r: int = 400, n_t: int = 400) -> complex:
    """(k+1)/pi int field(w) conj(w)^k dm."""
    total = 0j
    for r_lo, r_hi in _bands(field):
        w, dm = _band_grid(r_lo, r_hi, n_r, n_t)
        total += np.sum(field_values(field, w) * np.conj(w) ** k * dm)
    return (k + 1) * total / math.pi


def quad_cauchy_exterior(field: PiecewiseField, z: complex,
                         n_r: int = 400, n_t: int = 400) -> complex:
    """(1/pi) int field(w)/(z - w) dm for z off the support (non-singular)."""
    total = 0j
    for r_lo, r_hi in _bands(field):
        w, dm = _band_grid(r_lo, r_hi, n_r, n_t)
        total += np.sum(field_values(field, w) / (z - w) * dm)
    return total / math.pi


def _probe_delta(field: PiecewiseField, z: complex) -> float:
    r = abs(z)
    dist = min(abs(r - b) for b in ([t.r_in for t in field.terms] +
                                    [t.r_out for t in field.terms]))
    return 0.8 * dist


def quad_cauchy_at(field: PiecewiseField, z: complex, n_r: int = 700,
                   n_t: int = 2048, n_s: int = 300, n_a: int = 512) -> complex:
    """Cauchy transform at any probe point via a smooth partition of unity.

    The probe must sit strictly between radial breakpoints; the near-field
    disk stays inside the smoothness region of the field.
    """
    delta = _probe_delta(field, z)
    if delta <= 0:
        raise ValueError("probe point on a radial breakpoint")
    total = 0j
    for r_lo, r_hi in _bands(field):
        w, dm = _band_grid(r_lo, r_hi, n_r, n_t)
        s = np.abs(w - z)
        cut = 1.0 - _bump(s, delta)
        keep = cut > 0
        total += np.sum(field_values(field, w[keep]) * cut[keep] / (z - w[keep])
                        * dm[keep])
    # near field in polar coordinates at z: kernel and area element cancel
    ds = delta / n_s
    s = ds * (np.arange(n_s) + 0.5)
    da = 2.0 * math.pi / n_a
    alpha = da * (np.arange(n_a) + 0.5)
    w = z + s[:, None] * np.exp(1j * alpha)[None, :]
    vals = field_values(field, w) * _bump(s, delta)[:, None] \
        * np.exp(-1j * alpha)[None, :]
    total += -np.sum(vals) * ds * da
    return total / math.pi


def quad_beurling_at(field: PiecewiseField, z: complex, n_r: int = 700,
                     n_t: int = 2048, n_s: int = 300, n_a: int = 512) -> complex:
    """Principal value of -(1/pi) int field(w)/(z-w)^2 dm at an interior probe.

    The near-field polar patch is symmetric about z, so the angular sums
    cancel the double pole; the summand stays bounded at the innermost cells.
    """
    delta = _probe_delta(field, z)
    if delta <= 0:
        raise ValueError("probe point on a radial breakpoint")
    total = 0j
    for r_lo, r_hi in _bands(field):
        w, dm = _band_grid(r_lo, r_hi, n_r, n_t)
        s = np.abs(w - z)
        cut = 1.0 - _bump(s, delta)
        keep = cut > 0
        total += np.sum(field_values(field, w[keep]) * cut[keep]
                        / (z - w[keep]) ** 2 * dm[keep])
    ds = delta / n_s
    s = ds * (np.arange(n_s) + 0.5)
    da = 2.0 * math.pi / n_a
    alpha = da * (np.arange(n_a) + 0.5)
    w = z + s[:, None] * np.exp(1j * alpha)[None, :]
    # kernel/area reduce to chi(s)/s; the alpha sum cancels the pole
    vals = field_values(field, w) * (_bump(s, delta) / s)[:, None] \
        * np.exp(-2j * alpha)[None, :]
    total += np.sum(vals) * ds * da
    return -total / math.pi


def quad_beurling_exterior(field: PiecewiseField, z, n_r: int = 400, n_t: int = 400):
    """-(1/pi) int field(w)/(z-w)^2 dm for z off the support.

    ``z`` is one probe or a sequence of probes (then an array is returned).
    The field is evaluated once per band and contracted against every probe;
    each probe sees the same arithmetic as a single-probe call.
    """
    probes = np.atleast_1d(np.asarray(z, dtype=complex))
    totals = np.zeros(probes.shape, dtype=complex)
    for r_lo, r_hi in _bands(field):
        w, dm = _band_grid(r_lo, r_hi, n_r, n_t)
        values = field_values(field, w)
        for i, probe in enumerate(probes):
            totals[i] += np.sum(values / (probe - w) ** 2 * dm)
    out = -totals / math.pi
    return out[0] if np.ndim(z) == 0 else out


def wirtinger_dbar(f, z: complex, h: float = 1e-6) -> complex:
    fx = (f(z + h) - f(z - h)) / (2 * h)
    fy = (f(z + 1j * h) - f(z - 1j * h)) / (2 * h)
    return 0.5 * (fx + 1j * fy)


def wirtinger_dz(f, z: complex, h: float = 1e-6) -> complex:
    fx = (f(z + h) - f(z - h)) / (2 * h)
    fy = (f(z + 1j * h) - f(z - 1j * h)) / (2 * h)
    return 0.5 * (fx - 1j * fy)


def contour_derivative(f, z: complex, order: int, radius: float = 0.05,
                       n: int = 128) -> complex:
    """order-th derivative of a holomorphic f by contour averaging."""
    th = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    w = z + radius * np.exp(1j * th)
    vals = np.array([f(complex(x)) for x in w])
    mean = np.mean(vals * np.exp(-1j * order * th))
    return math.factorial(order) * mean / radius**order


def angular_mean_square(g_eval, R: float, n: int = 4096) -> float:
    """(1/2pi) int |g(R e^(i theta))|^2 d theta by the uniform rule."""
    th = 2.0 * math.pi * (np.arange(n) + 0.5) / n
    vals = g_eval(R * np.exp(1j * th))
    return float(np.mean(np.abs(vals) ** 2))


def mp_radial_fourth_order(mass: dict[int, float], log_lo: float, log_hi: float,
                           dps: int = 30, rtol: float = 1e-20) -> float:
    """(1/16) int sum_m M_m x^3 (1+x)^(-m) dx over x = r^2 - 1 in [x_lo, x_hi].

    Integrated in s = log x, where frequency m is a smooth bump peaking at
    x = 4/(m-4) with exponential flanks, so that no R0 stretches a piece over
    decades of x.  The pieces start at the peaks inside the interval.  On each
    piece Gauss-Legendre rules of 12 and 24 nodes at ``dps`` digits are
    compared, and the piece where they disagree most is halved until the
    disagreements sum to at most ``rtol`` of the total.  At each node the terms
    below 10^-(dps+5) of the largest are dropped.
    """
    import mpmath as mp
    from mpmath.calculus.quadrature import GaussLegendre

    with mp.workdps(dps):
        rules = [GaussLegendre(mp.mp).calc_nodes(degree, mp.mp.prec) for degree in (3, 4)]
        terms = [(m, mp.log(w)) for m, w in sorted(mass.items()) if w > 0]
        cut = -(dps + 5) * mp.log(10)

        def integrand(s):
            log_u = mp.log1p(mp.exp(s))
            exps = [log_w + 4 * s - m * log_u for m, log_w in terms]
            top = max(exps)
            return mp.exp(top) * mp.fsum(mp.exp(e - top) for e in exps if e - top > cut)

        def piece(lo, hi):  # (24-node value, its distance from the 12-node value)
            half, mid = (hi - lo) / 2, (hi + lo) / 2
            coarse, fine = (half * mp.fsum(w * integrand(mid + half * x) for x, w in rule)
                            for rule in rules)
            return fine, abs(fine - coarse)

        lo = mp.log(mp.expm1(2 * mp.mpf(log_lo)))
        hi = mp.log(mp.expm1(2 * mp.mpf(log_hi)))
        peaks = sorted(s for s in (mp.log(mp.mpf(4) / (m - 4)) for m, _ in terms if m > 4)
                       if lo < s < hi)
        edges = [lo, *peaks, hi]
        pieces = {(a, b): piece(a, b) for a, b in zip(edges, edges[1:])}
        while True:
            total = mp.fsum(value for value, _ in pieces.values())
            if mp.fsum(gap for _, gap in pieces.values()) <= rtol * total:
                return float(total / 16)
            a, b = max(pieces, key=lambda ab: pieces[ab][1])
            mid = (a + b) / 2
            del pieces[(a, b)]
            pieces.update({(a, mid): piece(a, mid), (mid, b): piece(mid, b)})


def apply_circle(b: BlaschkeMap, z: np.ndarray) -> np.ndarray:
    """Apply B and renormalize to the circle (guards float drift on orbits)."""
    w = b.apply(z)
    return w / abs(w)


def log_abs_derivative(b: BlaschkeMap, z: np.ndarray) -> np.ndarray:
    """log |B'(z)| via the logarithmic derivative; valid for z off the zeros."""
    ratio = b.order / z
    for a in b.zeros:
        ratio = ratio + 1.0 / (z - a) + np.conj(a) / (1.0 - np.conj(a) * z)
    return np.log(np.abs(b.apply(z) * ratio))


def quad_log_deriv_mean(b: BlaschkeMap, n: int = 4096) -> float:
    """Circle mean of log |B'| by the n-point midpoint rule."""
    th = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    return math.fsum(log_abs_derivative(b, np.exp(1j * th)).tolist()) / n


def orbit_angles(b: BlaschkeMap, steps: int, samples: int, seed: int) -> np.ndarray:
    """Angles/2pi of orbit endpoints from uniform starts (invariance diagnostics)."""
    rng = np.random.Generator(np.random.Philox(seed))
    z = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, samples))
    for _ in range(steps):
        z = apply_circle(b, z)
    return (np.angle(z) / (2.0 * math.pi)) % 1.0


def ks_uniform_statistic(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of samples in [0,1) from the uniform law."""
    x = np.sort(np.asarray(values))
    n = len(x)
    up = np.max(np.arange(1, n + 1) / n - x)
    down = np.max(x - np.arange(0, n) / n)
    return float(max(up, down))
