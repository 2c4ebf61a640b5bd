"""Independent numerical oracles for the transform pipeline.

Every oracle evaluates a defining integral by quadrature or at 50 digits,
never by the closed-form code of the package:

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
  * a 50-digit mpmath rebuild of the second-order term w of a shell field,
    and of its block masses, from the definitions (mp_order2_w);
  * numpy orbits of Blaschke maps on the circle and the 4096-point midpoint
    rule for the circle mean of log |B'|, from the logarithmic derivative;
  * the Birkhoff variance under z -> z^d by exact frequency bookkeeping: the
    iterates are monomials, so S_n phi is a sparse sum (frequency_bookkeeping);
  * the Birkhoff correlations of a Blaschke map by composing the iterate B^k
    with B at every step, as a power series, and re-expanding all its powers;
  * a 50-digit forward substitution with I - T for the Birkhoff variance limit
    of a given composition matrix T, summed as 2 Re sum_{k>=0} C(k) - C(0),
    which cancels in floats but not at 50 digits (mp_birkhoff_limit).

Sampled sup norms and field equality use a probe grid placed off the radial
breakpoints; the Bloch seminorm is a grid lower bound from the series itself.
``moment`` is no oracle: it poses the package's closed-form moment at any
frequency j, for the tests of that closed form.  Nor is ``derivative``: it
applies the package's derivative rule to a whole series.  ``truncated`` cuts a
series at a frequency, for tests that compare series at different cutoffs.
"""
from __future__ import annotations

import math
from operator import mul

import numpy as np

from bvlab.annular import MonomialTerm, PiecewiseField
from bvlab.dynamics import BlaschkeMap, CirclePotential
from bvlab.errors import ValidationError
from bvlab.laurent import ExteriorLaurent, derivative_coefficients, radial_moment


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


def probe_points(field: PiecewiseField, n_radial: int, n_angles: int) -> np.ndarray:
    """Deterministic probe grid over the support, placed off breakpoints."""
    lo = min((t.r_in for t in field.terms), default=0.0)
    hi = field.max_r_out()
    if hi <= 0:
        return np.zeros(0, dtype=complex)
    if not math.isfinite(hi):
        bps = field.breakpoints()
        hi = 2.0 * bps[-1] if bps else 2.0
    lo = max(lo, hi * 1e-3)
    r = lo + (hi - lo) * (np.arange(n_radial) + 0.5 + 1e-4) / n_radial
    th = 2 * math.pi * (np.arange(n_angles) + 0.37) / n_angles
    return (r[:, None] * np.exp(1j * th)[None, :]).ravel()


def sup_norm_sampled(field: PiecewiseField, n_radial: int = 64, n_angles: int = 32) -> float:
    """Max sampled |value| over the probe grid."""
    return float(np.max(np.abs(field_values(field, probe_points(field, n_radial, n_angles))),
                        initial=0.0))


def fields_allclose(f: PiecewiseField, g: PiecewiseField, tol: float) -> bool:
    """Numerical field equality: agreement on a dense probe set of both supports."""
    pts = probe_points(f.add(g), 48, 24)
    return bool(np.all(np.abs(field_values(f, pts) - field_values(g, pts)) <= tol))


def derivative(g: ExteriorLaurent, order: int = 1) -> ExteriorLaurent:
    """Termwise d^n/dz^n, exact up to max_freq + n (which must not pass FREQ_CAP)."""
    return ExteriorLaurent(derivative_coefficients(g.coeffs, order), g.max_freq + order,
                           g.self_similarity)


def truncated(g: ExteriorLaurent, max_freq: int) -> ExteriorLaurent:
    """The coefficients of g with k <= max_freq, exact up to that cutoff, with its blocks."""
    return ExteriorLaurent({k: c for k, c in g.coeffs.items() if k <= max_freq}, max_freq,
                           g.self_similarity)


def bloch_seminorm(g: ExteriorLaurent) -> float:
    """Grid lower bound for sup (|z|^2 - 1) |g'(z)| over the exterior disk."""
    gp = derivative(g)
    n_angles = 48
    best = 0.0
    for R in 1.0 + np.exp(np.linspace(math.log(1e-4), math.log(40.0), 60)):
        w = R * R - 1.0
        for j in range(n_angles):
            th = 2 * math.pi * (j + 0.31) / n_angles
            best = max(best, w * abs(gp.eval(R * complex(math.cos(th), math.sin(th)))))
    return best


def moment(term: MonomialTerm, j: int) -> complex:
    """(1/pi) integral of term(w) * w^j over the plane; zero unless j = p - q."""
    if j != term.p - term.q:
        return 0j
    return radial_moment(term.coeff, 2 * term.p + term.gamma + 2.0, term.log_r_in,
                         term.log_r_out)


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


def mp_order2_w(params, dps: int = 50) -> dict:
    """w = S(mu S(mu)) - (1/2) S(mu)^2 of the shell field of ``params`` on |z| > 1, by
    frequency, at ``dps`` digits from the definitions, without the package's term algebra.

    A piece c z^m |z|^s on log r in [la, lb) is c r^(m+s) e^(i m theta), so the shell
    block (conj(z)/|z|)^(n-2) is (1, 2 - n, n - 2).  Splitting 1/(z - zeta) at
    |zeta| = |z| and integrating over angles, the Cauchy transform
    C f(z) = (1/pi) int f(zeta)/(z - zeta) dA of a piece with m <= 0 is, with E = s + 2
    and K = 2c/E, K z^(m-1) (|z|^E - a^E) on [a, b), the constant K (b^E - a^E) z^(m-1)
    beyond b and 0 inside a.  As conj(z) = |z|^2/z, d/dz of z^m |z|^s is
    (m + s/2) z^(m-1) |z|^s, so S = dC/dz keeps one piece per piece.  Products add
    exponents on the overlap of the supports, and every piece here has m <= 0.  On
    |z| > 1, C of a piece is K (b^E - a^E) z^(m-1), and S maps b_k z^-k to -k b_k z^-(k+1).
    """
    import mpmath as mp

    def cauchy(pieces):  # on the whole plane
        out = []
        for c, m, s, la, lb in pieces:
            assert m <= 0  # a piece with m >= 1 has its constant inside a, not beyond b
            E = s + 2
            K, lo, hi = 2 * c / E, mp.exp(E * la), mp.exp(E * lb)
            out += [(K, m - 1, E, la, lb), (-K * lo, m - 1, 0, la, lb),
                    (K * (hi - lo), m - 1, 0, lb, mp.inf)]
        return out

    def exterior_beurling(pieces):  # the coefficient of z^-(k+1) of S on |z| > 1, k = 1 - m
        out = {}
        for c, m, s, la, lb in pieces:
            E, k = s + 2, 1 - m
            out[k + 1] = out.get(k + 1, 0) - k * 2 * c * (mp.exp(E * lb) - mp.exp(E * la)) / E
        return out

    with mp.workdps(dps):
        freqs = [params.frequency(j) for j in range(params.shells)]
        logs = [mp.log(mp.mpf(params.rho0)) / n for n in [*freqs, freqs[-1] * params.d]]
        mu = [(mp.mpf(1), 2 - n, n - 2, logs[j], logs[j + 1]) for j, n in enumerate(freqs)]
        s_mu = [(c * (m + mp.mpf(s) / 2), m - 1, s, la, lb) for c, m, s, la, lb in cauchy(mu)]
        product = [(c1 * c2, m1 + m2, s1 + s2, max(a1, a2), min(b1, b2))
                   for c1, m1, s1, a1, b1 in mu for c2, m2, s2, a2, b2 in s_mu
                   if max(a1, a2) < min(b1, b2)]
        w = exterior_beurling(product)
        s_ext = exterior_beurling(mu)  # S(mu) on |z| > 1, squared below
        for i, a in s_ext.items():
            for j, b in s_ext.items():
                w[i + j] = w.get(i + j, 0) - a * b / 2
        return w


def mp_order2_block_masses(params, dps: int = 50) -> list:
    """The mass sum |w_k|^2 / log d of each block [n_l, n_(l+1)) of mp_order2_w complete
    below the cut 2 n_(J-1), that is with n_(l+1) <= 2 n_(J-1) + 1, at ``dps`` digits."""
    import mpmath as mp

    with mp.workdps(dps):
        w = mp_order2_w(params, dps)
        cut = 2 * params.frequency(params.shells - 1)
        edges = [params.n0 * params.d**l for l in range(params.shells + 2)]
        return [mp.fsum(abs(c) ** 2 for k, c in w.items() if lo <= k < hi)
                / mp.log(params.d) for lo, hi in zip(edges, edges[1:]) if hi <= cut + 1]


def blaschke_values(b: BlaschkeMap, z: np.ndarray) -> np.ndarray:
    """B(z) = z^order prod (z - a) / (1 - conj(a) z), read from the record's fields."""
    out = z**b.order
    for a in b.zeros:
        out = out * (z - a) / (1.0 - np.conj(a) * z)
    return out


def apply_circle(b: BlaschkeMap, z: np.ndarray) -> np.ndarray:
    """Apply B and renormalize to the circle (guards float drift on orbits)."""
    w = blaschke_values(b, z)
    return w / abs(w)


def log_abs_derivative(b: BlaschkeMap, z: np.ndarray) -> np.ndarray:
    """log |B'(z)| via the logarithmic derivative; valid for z off the zeros."""
    ratio = b.order / z
    for a in b.zeros:
        ratio = ratio + 1.0 / (z - a) + np.conj(a) / (1.0 - np.conj(a) * z)
    return np.log(np.abs(blaschke_values(b, z) * ratio))


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


def frequency_bookkeeping(phi: CirclePotential, d: int, n: int) -> float:
    """(1/n) int |S_n phi|^2 dm for B = z^d: phi(z^(d^k)) moves c_m to m d^k, so S_n phi
    is the sum of c_m at m d^k over k < n, colliding frequencies added."""
    if d < 2 or n < 1:
        raise ValidationError("need d >= 2 and n >= 1")
    if any(m == 0 for m, _ in phi.coeffs):
        raise ValidationError("potential must have mean zero")
    if not phi.coeffs:
        return 0.0
    acc: dict[int, complex] = {}
    scale = 1
    for _ in range(n):
        for m, c in phi.coeffs:
            acc[m * scale] = acc.get(m * scale, 0) + c
        scale *= d
    return math.fsum(abs(c) ** 2 for c in acc.values()) / n


def _series_product(f: list[complex], g: list[complex]) -> list[complex]:
    """f g truncated to the length of f."""
    return [sum(map(mul, f[:k + 1], reversed(g[:k + 1]))) for k in range(len(f))]


def _series_blaschke_factor(g: list[complex], f: list[complex], a: complex) -> list[complex]:
    """g (f - a) / (1 - conj(a) f) for a series f with f(0) = 0: with h the result
    and u = g + conj(a) h, h = f u - a g term by term."""
    h: list[complex] = []
    u: list[complex] = []
    for k, gk in enumerate(g):
        hk = sum(map(mul, f[1:k + 1], reversed(u[:k]))) - a * gk
        h.append(hk)
        u.append(gk + a.conjugate() * hk)
    return h


def composed_correlations(phi: CirclePotential, b: BlaschkeMap,
                          n: int) -> tuple[list[complex], float | None]:
    """C(k) = int conj(phi_0) phi_0(B^k) dm for k < n, with B^k carried as a power
    series cut at M = max |m| and composed with B at every step, and a geometric
    guess of the omitted 2 sum_{k>=n} |C(k)| (0 once B^k vanishes, None unless the
    last two quarters of the correlations decay).

    C(k) = sum over p >= m > 0 of conj(c_p) c_m [z^p](B^k)^m
         + conj(c_-p) c_-m conj([z^p](B^k)^m).
    """
    coeffs = dict(phi.without_mean().coeffs)
    size = max(map(abs, coeffs))
    f = [0j] * (size + 1)
    f[1] = 1 + 0j  # B^0 = z
    corr: list[complex] = []
    for _ in range(n):
        powers = [None, f]
        for _ in range(size - 1):
            powers.append(_series_product(powers[-1], f))
        terms = [coeffs.get(p, 0j).conjugate() * coeffs.get(m, 0j) * powers[m][p]
                 + coeffs.get(-p, 0j).conjugate() * coeffs.get(-m, 0j) * powers[m][p].conjugate()
                 for m in range(1, size + 1) for p in range(m, size + 1)]
        corr.append(complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)))
        f = powers[b.order] if b.order <= size else [0j] * (size + 1)
        for a in b.zeros:
            f = _series_blaschke_factor(f, powers[1], a)
        if not any(f):
            return corr, 0.0
    w = max(1, len(corr) // 4)
    prev = math.fsum(abs(c) for c in corr[-2 * w:-w])
    last = math.fsum(abs(c) for c in corr[-w:])
    if len(corr) < 2 * w or not 0.0 < last < prev:
        return corr, None
    ratio = last / prev
    return corr, 2.0 * last * ratio / (1.0 - ratio)


def mp_birkhoff_limit(rows: list[list[complex]], phi: CirclePotential, dps: int = 50) -> float:
    """C(0) + 2 Re sum_{k>0} C(k) at ``dps`` digits for the composition matrix T given by
    its rows (row p - 1 holds [z^p] B^m for m = 1..p), as 2 Re sum_{k>=0} C(k) - C(0) with
    sum_{k>=0} T^k = (I - T)^-1 applied by forward substitution.

    C(k) = <T^k x, x> + conj <T^k y, y> with x = (c_p), y = (conj c_-p), p = 1..M.
    """
    import mpmath as mp

    with mp.workdps(dps):
        coeffs = {m: mp.mpc(c) for m, c in phi.without_mean().coeffs}
        x = [coeffs.get(p, mp.mpc(0)) for p in range(1, len(rows) + 1)]
        y = [mp.conj(coeffs.get(-p, mp.mpc(0))) for p in range(1, len(rows) + 1)]
        matrix = [[mp.mpc(t) for t in row] for row in rows]

        def resolvent(w):
            r = []
            for row, wp in zip(matrix, w):
                r.append((wp + mp.fsum(t * rm for t, rm in zip(row, r))) / (1 - row[-1]))
            return r

        def form(u, v):
            return (mp.fsum(mp.conj(xp) * up for xp, up in zip(x, u))
                    + mp.fsum(yp * mp.conj(vp) for yp, vp in zip(y, v)))

        return float(mp.re(2 * form(resolvent(x), resolvent(y)) - form(x, y)))
