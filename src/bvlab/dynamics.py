"""Dynamical asymptotic variance on the unit circle.

For an expanding circle map B and a trigonometric polynomial phi, the
dynamical variance is lim (1/n) int |S_n phi_0|^2 dm with S_n the Birkhoff sum
and phi_0 = phi minus its mean.  Every map here is a finite Blaschke product
B(z) = z^order prod (z - a)/(1 - conj(a) z), which fixes 0, so Lebesgue
measure is invariant and the variance is a finite sum of the correlations
C(k) = int conj(phi_0) phi_0(B^k) dm:

    (1/n) int |S_n phi_0|^2 dm = C(0) + 2 Re sum_{0<k<n} (1 - k/n) C(k).

Composition with B maps polynomials of degree at most M = max |m| of phi to
themselves by a lower-triangular matrix T with diagonal B'(0)^m, |B'(0)| < 1,
so C(k) reads T^k and the n -> infinity limit is one forward substitution
with I - T (``birkhoff_variance``).  Under z -> z^d the iterates are monomials
and the sum is exact frequency bookkeeping (``birkhoff_variance_exact``).
Monte Carlo over sampled orbits (``birkhoff_variance_mc``) is the independent
route, and the only one that uses arrays: the records here are plain data.

The virtual-coboundary cross-check: h(z) = z^-(d-1) equals g(z) - g(z^d) for
the unit lacunary series g, and var(h) / int log|B'| dm reproduces the
asymptotic variance 1/log d of g.
"""
from __future__ import annotations

import math
from math import fsum
from operator import add, mul

from .errors import (CapacityError, FREQ_CAP, UnresolvedScaleError, ValidationError,
                     parse_coeffs)
from .records import record

_QUAD_POINTS = 4096
# trapezoid error at N points ~ 45 delta^2, delta its relative change from N/2 points (zeros
# at 0.993-0.999, 2^21-point reference): accepted means are exact to ~5e-15; tests reach 8.6e-12
QUAD_RTOL = 1e-8
MAX_SAMPLES = 10**7  # 100x the documented run; a sample costs about 100 bytes of arrays
# Monte Carlo work is n x (degree + terms of phi) x max(samples, MIN_BATCH): a step
# costs at least one numpy call's overhead per map factor and per potential term; the
# documented run with a three-term potential (50 x (2 + 3) x 10^5) is 2.5 x 10^7
MIN_BATCH = 256
MAX_WORK = 10**8
# Series work is at most n x M^2 x (M + zeros) with M = max(max |m| of phi, MIN_ORDER): T
# costs M^2 x (M + zeros) (M products of series; the origin order costs nothing), each of
# the n steps M^2; below M = 16 the interpreter overhead of those sums dominates.  The worst
# admitted runs (M = 16 with 1024 zeros and n = 56, or with two zeros and n = 3255; zeros at
# radius 0.99) take about 0.5 s (mostly the circle mean of log |B'|) and 0.15 s end to end
# on a 2-core machine
MIN_ORDER = 16
MAX_EXACT_WORK = 15 * 10**6
# the circle mean of log |B'| costs _QUAD_POINTS kernel evaluations per zero off the
# origin (about 1 s for MAX_ZEROS); a power map stores none
MAX_ZEROS = 1024


class CirclePotential(record("CirclePotential", "coeffs")):
    """Trigonometric polynomial sum c_m e^(i m theta) as a sparse frequency map:
    ``coeffs`` holds the (m, c_m) pairs."""

    __slots__ = ()

    @classmethod
    def from_map(cls, mapping) -> "CirclePotential":
        items = []
        for m, c in dict(mapping).items():
            c = complex(c)
            if abs(int(m)) > FREQ_CAP:
                raise CapacityError(f"potential frequency {m} exceeds 64-bit capacity")
            if c != 0:
                items.append((int(m), c))
        return cls(tuple(sorted(items)))

    @property
    def mean(self) -> complex:
        for m, c in self.coeffs:
            if m == 0:
                return c
        return 0j

    @property
    def max_frequency(self) -> int:
        """M = max |m| over the coefficients, 0 for the zero potential."""
        return max((abs(m) for m, _ in self.coeffs), default=0)

    def without_mean(self) -> "CirclePotential":
        return CirclePotential(tuple((m, c) for m, c in self.coeffs if m != 0))

    @classmethod
    def from_doc(cls, doc: dict) -> "CirclePotential":
        """Read {"coeffs": [[m, re, im], ...]} by errors.parse_coeffs: each m at most once."""
        try:
            return cls.from_map(parse_coeffs(doc["coeffs"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed potential document: {exc}") from exc


class BlaschkeMap(record("BlaschkeMap", "zeros order")):
    """B(z) = z^order * prod (z - a_i) / (1 - conj(a_i) z) with zeros a_i in the disk.

    Zeros at the origin are folded into ``order``, so a power map stores none.
    """

    __slots__ = ()

    def __new__(cls, zeros, order: int = 1) -> "BlaschkeMap":
        zeros = tuple(complex(a) for a in zeros)
        if not all(abs(a) < 1.0 for a in zeros):  # a NaN zero fails this too
            raise ValidationError("Blaschke zeros must lie inside the unit disk")
        nonzero = tuple(a for a in zeros if a != 0)
        if len(nonzero) > MAX_ZEROS:
            raise ValidationError(f"a Blaschke map takes at most {MAX_ZEROS} zeros "
                                  f"off the origin")
        if order < 1:
            raise ValidationError("the order of the zero at the origin must be >= 1")
        if order + len(zeros) < 2:
            raise ValidationError("degree must be >= 2")
        return super().__new__(cls, nonzero, order + len(zeros) - len(nonzero))

    @classmethod
    def power(cls, d: int) -> "BlaschkeMap":
        return cls((), d)

    @property
    def degree(self) -> int:
        return len(self.zeros) + self.order

    @property
    def is_pure_power(self) -> bool:
        return not self.zeros


def birkhoff_variance_exact(phi: CirclePotential, d: int, n: int) -> float:
    """(1/n) int |S_n phi|^2 dm for B = z^d, by exact frequency bookkeeping."""
    if d < 2 or n < 1:
        raise ValidationError("need d >= 2 and n >= 1")
    if phi.mean != 0:
        raise ValidationError("potential must have mean zero")
    if not phi.coeffs:
        return 0.0
    acc: dict[int, complex] = {}
    scale = 1
    for _ in range(n):
        for m, c in phi.coeffs:
            f = m * scale
            if abs(f) > FREQ_CAP:
                raise CapacityError("Birkhoff frequency exceeds capacity")
            acc[f] = acc.get(f, 0) + c
        scale *= d
    return fsum(abs(c) ** 2 for c in acc.values()) / n


# ---------------------------------------------------------------------------
# exact correlations by the composition matrix
# ---------------------------------------------------------------------------

def _valuation(f: list[complex]) -> int:
    return next((i for i, c in enumerate(f) if c), len(f))


def _product(f: list[complex], g: list[complex]) -> list[complex]:
    """f g truncated to the length of f (both series have that length)."""
    size = len(f)
    vf, vg = _valuation(f), _valuation(g)
    out = [0j] * size
    for k in range(vf + vg, size):
        out[k] = sum(map(mul, f[vf:k - vg + 1], reversed(g[vg:k - vf + 1])))
    return out


def _blaschke_factor(g: list[complex], a: complex) -> list[complex]:
    """g (z - a) / (1 - conj(a) z): with h the result and u = g + conj(a) h,
    h = z u - a g term by term."""
    h: list[complex] = []
    u = 0j
    for gk in g:
        h.append(u - a * gk)
        u = gk + a.conjugate() * h[-1]
    return h


def _composition_rows(b: BlaschkeMap, size: int) -> list[list[complex]]:
    """T, the matrix of f -> f(B) on z, ..., z^size, by rows: row p - 1 holds [z^p] B^m
    for m = 1..p (column m is B^m, which starts at z^m)."""
    series = [1 + 0j if k == b.order else 0j for k in range(size + 1)]
    for a in b.zeros:
        series = _blaschke_factor(series, a)
    powers = [series]
    for _ in range(size - 1):
        powers.append(_product(powers[-1], series))
    return [[column[p] for column in powers[:p]] for p in range(1, size + 1)]


def _correlations(phi0: CirclePotential, b: BlaschkeMap, n: int) -> tuple[list[complex], complex]:
    """C(k) for k < n, up to the step where T^k x and T^k y vanish, and the limit form.

    C(k) = <T^k x, x> + conj <T^k y, y> with x = (c_p), y = (conj c_-p), p = 1..M, and
    <u, x> = sum conj(x_p) u_p; the limit form is the same in (I - T)^-1 (I + T).
    """
    rows = _composition_rows(b, phi0.max_frequency)
    x, y = [0j] * len(rows), [0j] * len(rows)
    for m, c in phi0.coeffs:
        if m > 0:
            x[m - 1] = c
        else:
            y[-m - 1] = c.conjugate()

    def form(u: list[complex], v: list[complex]) -> complex:  # summed exactly
        terms = [*(c.conjugate() * w for c, w in zip(x, u)),
                 *(c * w.conjugate() for c, w in zip(y, v))]
        return complex(fsum(t.real for t in terms), fsum(t.imag for t in terms))

    corr, u, v = [], x, y
    for _ in range(n):
        corr.append(form(u, v))
        u, v = ([sum(map(mul, row, w)) for row in rows] for w in (u, v))
        if not (any(u) or any(v)):
            break
    resolved = ([], [])
    for w, r in zip((x, y), resolved):  # (I - T) r = (I + T) w; row[-1] is T's diagonal
        for row, wp in zip(rows, w):
            left = sum(map(mul, row, map(add, w, r)))  # the entries left of the diagonal
            r.append((wp * (1 + row[-1]) + left) / (1 - row[-1]))
    return corr, form(*resolved)


def check_exact_work(n: int, phi: CirclePotential, zeros: int) -> None:
    """Bound the series route by MAX_EXACT_WORK before any series or map is built."""
    size = phi.without_mean().max_frequency
    size = max(size, MIN_ORDER) if size else 0
    if n < 1 or n * size * size * (size + zeros) > MAX_EXACT_WORK:
        raise ValidationError(
            f"the exact route needs n >= 1 and n x M^2 x (M + zeros) <= {MAX_EXACT_WORK} "
            f"with M = max(max |frequency| of phi, {MIN_ORDER}); use --method mc "
            f"(Monte Carlo) for longer orbits or higher frequencies")


class BirkhoffVariance(record("BirkhoffVariance", "value limit")):
    """Finite-n variance and its exact n -> infinity limit."""

    __slots__ = ()

    def to_doc(self) -> dict:
        return {"variance": self.value, "limit": self.limit}


def birkhoff_variance(phi: CirclePotential, b: BlaschkeMap, n: int) -> BirkhoffVariance:
    """(1/n) int |S_n phi_0|^2 dm for any Blaschke map, and its limit, from exact correlations.

    Column m of T is B^m cut at order M = max |m|, and (B^k)^m = T^k z^m, so
    C(k) = sum over p >= m > 0 of conj(c_p) c_m [T^k]_pm + conj(c_-p) c_-m conj([T^k]_pm).
    The steps stop once T^k x and T^k y vanish (for z^d with d > M after one).  T is
    triangular with diagonal B'(0)^m, |B'(0)| < 1, so the limit C(0) + 2 Re sum_{k>0} C(k)
    is exact: the real part of the form in 2 (I - T)^-1 - I = (I - T)^-1 (I + T), with no
    subtraction of C(0), which cancels where the limit is small against it.
    """
    if n < 1:
        raise ValidationError("need n >= 1")
    phi0 = phi.without_mean()
    if not phi0.coeffs:
        return BirkhoffVariance(0.0, 0.0)
    check_exact_work(n, phi0, len(b.zeros))
    corr, limit = _correlations(phi0, b, n)
    value = fsum([corr[0].real, *(2.0 * (n - k) / n * c.real for k, c in enumerate(corr) if k)])
    return BirkhoffVariance(value, limit.real)


# ---------------------------------------------------------------------------
# Monte Carlo over sampled orbits
# ---------------------------------------------------------------------------

def check_mc_work(n: int, samples: int, degree: int, terms: int = 0) -> None:
    """Bound a Monte Carlo run by MAX_SAMPLES and MAX_WORK before any map is built."""
    work = n * (degree + terms) * max(samples, MIN_BATCH)
    if n < 1 or not 2 <= samples <= MAX_SAMPLES or work > MAX_WORK:
        raise ValidationError(f"need n >= 1, 2 <= samples <= {MAX_SAMPLES} and "
                              f"n x (degree + terms of phi) x max(samples, {MIN_BATCH}) "
                              f"<= {MAX_WORK}")


def birkhoff_variance_mc(phi: CirclePotential, b: BlaschkeMap, n: int,
                         samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the Birkhoff variance with its standard error.

    Starts are Lebesgue-uniform on the circle (the invariant measure); the
    generator is counter-based, so a fixed seed reproduces outputs exactly.  phi is
    summed as c_m e^(i m arg z), since the power z^m of a float z with |z| = 1 + ulp
    overflows for |m| near FREQ_CAP; each step of B is renormalized to the circle.
    """
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    phi0 = phi.without_mean()
    check_mc_work(n, samples, b.degree, len(phi0.coeffs))
    try:
        import numpy as np
    except ImportError as exc:  # numpy is the optional extra "mc"
        raise ValidationError("Monte Carlo needs numpy: pip install 'bvlab[mc]'") from exc
    rng = np.random.Generator(np.random.Philox(seed))
    theta = rng.uniform(0.0, 2.0 * math.pi, samples)
    z = np.exp(1j * theta)
    s = np.zeros(samples, dtype=complex)
    for _ in range(n):
        angle, values = np.angle(z), np.zeros(samples, dtype=complex)
        for m, c in phi0.coeffs:
            values += c * np.exp(1j * (m * angle))
        s += values
        w = z
        for _ in range(b.order - 1):
            w = w * z
        for a in b.zeros:
            w = w * (z - a) / (1.0 - np.conj(a) * z)
        z = w / np.abs(w)
    x = np.abs(s) ** 2 / n
    est = float(np.mean(x))
    err = float(np.std(x, ddof=1) / math.sqrt(samples))
    return est, err


def log_deriv_mean(b: BlaschkeMap) -> float:
    """Circle mean of log |B'|: exactly log(degree) for the pure power.

    For one zero a (order 1) Jensen's formula gives log|B'(0)| + log(1/|c|)
    with |B'(0)| = |a| and the critical point |c| = (1 - sqrt(1 - |a|^2))/|a|,
    which is log(1 + sqrt(1 - |a|^2)).  Otherwise the trapezoid rule at 2 pi i / N, checked
    against its even points to QUAD_RTOL, on |B'| = z B'/B = order + sum (1 - |a|^2)/|z - a|^2.
    """
    if b.is_pure_power:
        return math.log(b.degree)
    if b.order == 1 and len(b.zeros) == 1:
        r = abs(b.zeros[0])
        return math.log1p(math.sqrt((1.0 - r) * (1.0 + r)))
    angles = [i * (2.0 * math.pi / _QUAD_POINTS) for i in range(_QUAD_POINTS)]
    xs, ys = [math.cos(t) for t in angles], [math.sin(t) for t in angles]
    sums = [float(b.order)] * _QUAD_POINTS
    for a in b.zeros:
        w, ar, ai = (1.0 - abs(a)) * (1.0 + abs(a)), a.real, a.imag
        sums = [s + w / ((x - ar) * (x - ar) + (y - ai) * (y - ai))
                for s, x, y in zip(sums, xs, ys)]
    logs = list(map(math.log, sums))
    full, half = fsum(logs) / _QUAD_POINTS, fsum(logs[::2]) / (_QUAD_POINTS // 2)
    if abs(full - half) > QUAD_RTOL * abs(full):
        raise UnresolvedScaleError(f"the circle mean of log|B'| changes by "
                                   f"{abs(half / full - 1):.1e} from half the points")
    return full


class CoboundaryCheck(record("CoboundaryCheck", "lhs rhs residual")):
    __slots__ = ()


def coboundary_check(d: int, n: int) -> CoboundaryCheck:
    """Dynamical variance of h(z) = z^-(d-1) against the lacunary value 1/log d.

    h is the continuous extension of g(z) - g(z^d) for the unit-coefficient
    d-lacunary series g; the Birkhoff frequencies (d-1) d^k are pairwise
    distinct, so the dynamical variance is exactly 1 for every n.
    """
    if d < 2:
        raise ValidationError("degree must be >= 2")
    h = CirclePotential.from_map({-(d - 1): 1.0})
    # int log|B'| dm = log d for B = z^d, as log_deriv_mean gives for the power map
    lhs = birkhoff_variance_exact(h, d, n) / math.log(d)
    rhs = 1.0 / math.log(d)
    return CoboundaryCheck(lhs, rhs, abs(lhs - rhs))
