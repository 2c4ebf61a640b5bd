"""Dynamical asymptotic variance on the unit circle.

For an expanding circle map B and a trigonometric polynomial phi, the
dynamical variance is lim (1/n) int |S_n phi_0|^2 dm with S_n the Birkhoff sum
and phi_0 = phi minus its mean.  Every map here is a finite Blaschke product
B(z) = z^order prod (z - a)/(1 - conj(a) z), which fixes 0, so Lebesgue
measure is invariant and the variance is a finite sum of the correlations
C(k) = int conj(phi_0) phi_0(B^k) dm:

    (1/n) int |S_n phi_0|^2 dm = C(0) + 2 Re sum_{0<k<n} (1 - k/n) C(k).

C(k) reads Taylor coefficients of the powers of the iterate B^k up to the
order M = max |m| of phi, so B^k is carried as a power series truncated at M
(``birkhoff_variance``).  Under z -> z^d the iterates are monomials and the
sum is exact frequency bookkeeping (``birkhoff_variance_exact``).  Monte Carlo
over sampled orbits (``birkhoff_variance_mc``) is the independent route.

The virtual-coboundary cross-check: h(z) = z^-(d-1) equals g(z) - g(z^d) for
the unit lacunary series g, and var(h) / int log|B'| dm reproduces the
asymptotic variance 1/log d of g.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from operator import mul
from typing import TYPE_CHECKING

from .errors import CapacityError, FREQ_CAP, ValidationError, parse_complex, parse_int

if TYPE_CHECKING:
    import numpy as np
_QUAD_POINTS = 4096
MAX_SAMPLES = 10**7  # 100x the documented run; a sample costs about 100 bytes of arrays
# Monte Carlo work is n x (degree + terms of phi) x max(samples, MIN_BATCH): a step
# costs at least one numpy call's overhead per map factor and per potential term; the
# documented run with a three-term potential (50 x (2 + 3) x 10^5) is 2.5 x 10^7
MIN_BATCH = 256
MAX_WORK = 10**8
# Series work is n x M^2 x (M + degree) with M = max(max |m| of phi, MIN_ORDER): a step
# multiplies M powers of M + 1 coefficients and runs one recurrence of M + 1 sums per
# zero; below M = 16 the interpreter overhead of those sums dominates.  The worst
# admitted runs (M = 16 with 1024 zeros and n = 56, or with two zeros and n = 3083)
# take about 3.8 s and 1.3 s end to end on a 2-core machine
MIN_ORDER = 16
MAX_EXACT_WORK = 15 * 10**6
# the circle mean of log |B'| costs _QUAD_POINTS kernel evaluations per zero off the
# origin (about 1 s for MAX_ZEROS); a power map stores none
MAX_ZEROS = 1024
LIMIT_RTOL = 1e-12  # the limit is converged when its tail estimate is below this x C(0)


@dataclass(frozen=True)
class CirclePotential:
    """Trigonometric polynomial sum c_m e^(i m theta) as a sparse frequency map."""

    coeffs: tuple[tuple[int, complex], ...]

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

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        """Values at points of the unit circle as sum c_m e^(i m arg z): the power z^m
        of a float z with |z| = 1 + ulp overflows for |m| near FREQ_CAP."""
        import numpy as np
        theta = np.angle(z)
        out = np.zeros_like(z, dtype=complex)
        for m, c in self.coeffs:
            out += c * np.exp(1j * (m * theta))
        return out

    def to_doc(self) -> dict:
        return {"coeffs": [[m, c.real, c.imag] for m, c in self.coeffs]}

    @classmethod
    def from_doc(cls, doc: dict) -> "CirclePotential":
        try:
            return cls.from_map({parse_int(m, "frequency"): parse_complex(re, im)
                                 for m, re, im in doc["coeffs"]})
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed potential document: {exc}") from exc


@dataclass(frozen=True)
class BlaschkeMap:
    """B(z) = z^order * prod (z - a_i) / (1 - conj(a_i) z) with zeros a_i in the disk.

    Zeros at the origin are folded into ``order``, so a power map stores none.
    """

    zeros: tuple[complex, ...]
    order: int = 1

    def __post_init__(self) -> None:
        zeros = tuple(complex(a) for a in self.zeros)
        if not all(abs(a) < 1.0 for a in zeros):  # a NaN zero fails this too
            raise ValidationError("Blaschke zeros must lie inside the unit disk")
        nonzero = tuple(a for a in zeros if a != 0)
        if len(nonzero) > MAX_ZEROS:
            raise ValidationError(f"a Blaschke map takes at most {MAX_ZEROS} zeros "
                                  f"off the origin")
        if self.order < 1:
            raise ValidationError("the order of the zero at the origin must be >= 1")
        object.__setattr__(self, "zeros", nonzero)
        object.__setattr__(self, "order", self.order + len(zeros) - len(nonzero))

    @classmethod
    def power(cls, d: int) -> "BlaschkeMap":
        if d < 2:
            raise ValidationError("degree must be >= 2")
        return cls((), d)

    @property
    def degree(self) -> int:
        return len(self.zeros) + self.order

    @property
    def is_pure_power(self) -> bool:
        return not self.zeros

    def apply(self, z: np.ndarray) -> np.ndarray:
        import numpy as np
        z = np.asarray(z, dtype=complex)
        out = z.copy()
        for _ in range(self.order - 1):
            out = out * z
        for a in self.zeros:
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        return out


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
    return fsum(abs(c) ** 2 for _, c in sorted(acc.items())) / n


# ---------------------------------------------------------------------------
# exact correlations by series composition
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


def _blaschke_factor(g: list[complex], f: list[complex], a: complex) -> list[complex]:
    """g (f - a) / (1 - conj(a) f) for a series f with f(0) = 0.

    With h the result and u = g + conj(a) h, h = f u - a g term by term.
    """
    ca = a.conjugate()
    v = _valuation(f)
    h: list[complex] = []
    u: list[complex] = []
    for k, gk in enumerate(g):
        hk = sum(map(mul, f[v:k + 1], reversed(u[:k - v + 1]))) - a * gk
        h.append(hk)
        u.append(gk + ca * hk)
    return h


def _compose(b: BlaschkeMap, powers: list[list[complex]]) -> list[complex]:
    """B(f) truncated, from the powers f^j (powers[j], j >= 1) of a series f."""
    f = powers[1]
    out = powers[b.order] if b.order < len(powers) else [0j] * len(f)
    for a in b.zeros:
        out = _blaschke_factor(out, f, a)
    return out


def check_exact_work(n: int, phi: CirclePotential, degree: int) -> None:
    """Bound the series route by MAX_EXACT_WORK before any series or map is built."""
    size = phi.without_mean().max_frequency
    size = max(size, MIN_ORDER) if size else 0
    if n < 1 or n * size * size * (size + degree) > MAX_EXACT_WORK:
        raise ValidationError(
            f"the exact route needs n >= 1 and n x M^2 x (M + degree) <= {MAX_EXACT_WORK} "
            f"with M = max(max |frequency| of phi, {MIN_ORDER}); use --method mc "
            f"(Monte Carlo) for longer orbits or higher frequencies")


@dataclass(frozen=True)
class BirkhoffVariance:
    """Finite-n variance, its n -> infinity limit and the limit's tail estimate.

    ``limit_tail`` is 0 when the truncated iterate B^n vanished (every later
    correlation is then 0), a geometric continuation of the last correlations
    when they decay, and None when they do not.
    """

    value: float
    limit: float
    limit_tail: float | None
    converged: bool
    tolerance: float

    def to_doc(self) -> dict:
        return {"variance": self.value, "limit": self.limit, "limit_tail": self.limit_tail,
                "converged": self.converged, "tolerance": self.tolerance}


def _limit_tail(corr: list[complex], vanished: bool) -> float | None:
    """Omitted sum 2 sum_{k>=n} |C(k)|, continued geometrically from the last two
    windows of a quarter of the correlations each (None unless they decay)."""
    if vanished:
        return 0.0
    w = max(1, len(corr) // 4)
    if len(corr) < 2 * w:
        return None
    prev = fsum(abs(c) for c in corr[-2 * w:-w])
    last = fsum(abs(c) for c in corr[-w:])
    if not 0.0 < last < prev:
        return None
    ratio = last / prev
    return 2.0 * last * ratio / (1.0 - ratio)


def birkhoff_variance(phi: CirclePotential, b: BlaschkeMap, n: int) -> BirkhoffVariance:
    """(1/n) int |S_n phi_0|^2 dm for any Blaschke map, from exact correlations.

    The iterate B^k is a power series truncated at M = max |m|; its powers
    (B^k)^j, j <= M, give C(k), negative frequencies through the conjugate:
    C(k) = sum over p >= m > 0 of conj(c_p) c_m [z^p](B^k)^m
         + conj(c_-p) c_-m conj([z^p](B^k)^m).
    Only coefficients up to order M enter, so nothing is truncated beyond
    float rounding.  For z^d with d > M the iterate vanishes after one step.
    """
    if n < 1:
        raise ValidationError("need n >= 1")
    phi0 = phi.without_mean()
    if not phi0.coeffs:
        return BirkhoffVariance(0.0, 0.0, 0.0, True, LIMIT_RTOL)
    check_exact_work(n, phi0, b.degree)
    size = phi0.max_frequency
    # conj(c_p) and c_-p by p = 1..M: C(k) pairs them with row m of the powers
    conj_pos, neg = [0j] * (size + 1), [0j] * (size + 1)
    for m, c in phi0.coeffs:
        if m > 0:
            conj_pos[m] = c.conjugate()
        else:
            neg[-m] = c
    f = [0j] * (size + 1)
    f[1] = 1 + 0j  # B^0 = z
    corr: list[complex] = []
    for _ in range(n):
        powers = [[], f]
        for _ in range(size - 1):
            powers.append(_product(powers[-1], f))
        terms = [c.conjugate() * sum(map(mul, conj_pos[m:], powers[m][m:]))
                 for m, c in enumerate(conj_pos) if c]
        terms += [c * sum(map(mul, neg[m:], powers[m][m:])).conjugate()
                  for m, c in enumerate(neg) if c]
        corr.append(complex(fsum(t.real for t in terms), fsum(t.imag for t in terms)))
        f = _compose(b, powers)
        if not any(f):
            break
    c0 = corr[0].real
    value = fsum([c0, *(2.0 * (n - k) / n * c.real for k, c in enumerate(corr) if k)])
    limit = fsum([c0, *(2.0 * c.real for c in corr[1:])])
    tail = _limit_tail(corr, not any(f))
    converged = tail is not None and tail <= LIMIT_RTOL * c0
    return BirkhoffVariance(value, limit, tail, converged, LIMIT_RTOL)


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
    generator is counter-based, so a fixed seed reproduces outputs exactly.
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
        s += phi0.eval_array(z)
        z = b.apply(z)
        z /= np.abs(z)
    x = np.abs(s) ** 2 / n
    est = float(np.mean(x))
    err = float(np.std(x, ddof=1) / math.sqrt(samples))
    return est, err


def log_deriv_mean(b: BlaschkeMap) -> float:
    """Circle mean of log |B'|: exactly log(degree) for the pure power.

    For one zero a (order 1) Jensen's formula gives log|B'(0)| + log(1/|c|)
    with |B'(0)| = |a| and the critical point |c| = (1 - sqrt(1 - |a|^2))/|a|,
    which is log(1 + sqrt(1 - |a|^2)).  Otherwise a midpoint rule: on the
    circle |B'| = z B'/B = order + sum of the Poisson kernels (1 - |a|^2)/|z - a|^2.
    """
    if b.is_pure_power:
        return math.log(b.degree)
    if b.order == 1 and len(b.zeros) == 1:
        r = abs(b.zeros[0])
        return math.log1p(math.sqrt((1.0 - r) * (1.0 + r)))
    angles = [(i + 0.5) * (2.0 * math.pi / _QUAD_POINTS) for i in range(_QUAD_POINTS)]
    xs, ys = [math.cos(t) for t in angles], [math.sin(t) for t in angles]
    sums = [float(b.order)] * _QUAD_POINTS
    for a in b.zeros:
        w, ar, ai = (1.0 - abs(a)) * (1.0 + abs(a)), a.real, a.imag
        sums = [s + w / ((x - ar) * (x - ar) + (y - ai) * (y - ai))
                for s, x, y in zip(sums, xs, ys)]
    return fsum(map(math.log, sums)) / _QUAD_POINTS


@dataclass(frozen=True)
class CoboundaryCheck:
    lhs: float
    rhs: float
    residual: float

    def to_doc(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "residual": self.residual}


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
