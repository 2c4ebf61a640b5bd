"""Dynamical asymptotic variance on the unit circle.

For an expanding circle map B (here z^d exactly, or a sampled Blaschke
product) and a mean-zero trigonometric polynomial phi, the dynamical variance
is lim (1/n) int |S_n phi|^2 dm with S_n the Birkhoff sum.  Under z -> z^d
composition multiplies frequencies by d, so S_n phi is again a trigonometric
polynomial and the variance is an exact frequency-bookkeeping sum.

The virtual-coboundary cross-check: h(z) = z^-(d-1) equals g(z) - g(z^d) for
the unit lacunary series g, and var(h) / int log|B'| dm reproduces the
asymptotic variance 1/log d of g.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import TYPE_CHECKING

from .errors import CapacityError, FREQ_CAP, ValidationError, parse_int

if TYPE_CHECKING:
    import numpy as np
_QUAD_POINTS = 4096
MAX_SAMPLES = 10**7  # 100x the documented run; a sample costs about 100 bytes of arrays
# Monte Carlo work is n x degree x max(samples, MIN_BATCH): a step costs at least one numpy
# call's overhead; the documented run (50 x 2 x 10^5) is 10^7 and takes about 0.5 s
MIN_BATCH = 256
MAX_WORK = 10**8


@dataclass(frozen=True)
class CirclePotential:
    """Trigonometric polynomial sum c_m e^(i m theta) as a sparse frequency map."""

    coeffs: tuple[tuple[int, complex], ...]

    @classmethod
    def from_map(cls, mapping) -> "CirclePotential":
        items = []
        for m, c in dict(mapping).items():
            c = complex(c)
            if c != 0:
                items.append((int(m), c))
        return cls(tuple(sorted(items)))

    @property
    def mean(self) -> complex:
        for m, c in self.coeffs:
            if m == 0:
                return c
        return 0j

    def without_mean(self) -> "CirclePotential":
        return CirclePotential(tuple((m, c) for m, c in self.coeffs if m != 0))

    def eval_array(self, z: np.ndarray) -> np.ndarray:
        import numpy as np
        out = np.zeros_like(z, dtype=complex)
        for m, c in self.coeffs:
            out += c * z**m
        return out

    def to_doc(self) -> dict:
        return {"coeffs": [[m, c.real, c.imag] for m, c in self.coeffs]}

    @classmethod
    def from_doc(cls, doc: dict) -> "CirclePotential":
        try:
            return cls.from_map({parse_int(m, "frequency"): complex(re, im)
                                 for m, re, im in doc["coeffs"]})
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed potential document: {exc}") from exc


@dataclass(frozen=True)
class BlaschkeMap:
    """B(z) = z * prod (z - a_i) / (1 - conj(a_i) z) with zeros a_i in the disk."""

    zeros: tuple[complex, ...]

    def __post_init__(self) -> None:
        zeros = tuple(complex(a) for a in self.zeros)
        if any(abs(a) >= 1.0 for a in zeros):
            raise ValidationError("Blaschke zeros must lie inside the unit disk")
        object.__setattr__(self, "zeros", zeros)

    @classmethod
    def power(cls, d: int) -> "BlaschkeMap":
        if d < 2:
            raise ValidationError("degree must be >= 2")
        return cls((0j,) * (d - 1))

    @property
    def degree(self) -> int:
        return len(self.zeros) + 1

    @property
    def is_pure_power(self) -> bool:
        return all(a == 0 for a in self.zeros)

    def apply(self, z: np.ndarray) -> np.ndarray:
        import numpy as np
        z = np.asarray(z, dtype=complex)
        out = z.copy()
        for a in self.zeros:
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        return out

    def apply_circle(self, z: np.ndarray) -> np.ndarray:
        """Apply and renormalize to the circle (guards float drift on orbits)."""
        w = self.apply(z)
        return w / abs(w)

    def log_abs_derivative(self, z: np.ndarray) -> np.ndarray:
        """log |B'(z)| via the logarithmic derivative; valid for z off the zeros."""
        import numpy as np
        ratio = 1.0 / z
        for a in self.zeros:
            ratio = ratio + 1.0 / (z - a) + np.conj(a) / (1.0 - np.conj(a) * z)
        b = self.apply(z)
        return np.log(np.abs(b * ratio))


def birkhoff_variance_exact(phi: CirclePotential, d: int, n: int) -> float:
    """(1/n) int |S_n phi|^2 dm for B = z^d, by exact frequency bookkeeping."""
    if d < 2 or n < 1:
        raise ValidationError("need d >= 2 and n >= 1")
    if phi.mean != 0:
        raise ValidationError("potential must have mean zero")
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


def check_mc_work(n: int, samples: int, degree: int) -> None:
    """Bound a Monte Carlo run by MAX_SAMPLES and MAX_WORK before any map is built."""
    work = n * degree * max(samples, MIN_BATCH)
    if n < 1 or not 2 <= samples <= MAX_SAMPLES or work > MAX_WORK:
        raise ValidationError(f"need n >= 1, 2 <= samples <= {MAX_SAMPLES} and "
                              f"n x degree x max(samples, {MIN_BATCH}) <= {MAX_WORK}")


def birkhoff_variance_mc(phi: CirclePotential, b: BlaschkeMap, n: int,
                         samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the Birkhoff variance with its standard error.

    Starts are Lebesgue-uniform on the circle (the invariant measure); the
    generator is counter-based, so a fixed seed reproduces outputs exactly.
    """
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    check_mc_work(n, samples, b.degree)
    import numpy as np
    phi0 = phi.without_mean()
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
    """Circle mean of log |B'|; exactly log(degree) for the pure power."""
    if b.is_pure_power:
        return math.log(b.degree)
    import numpy as np
    theta = (np.arange(_QUAD_POINTS) + 0.5) * (2.0 * math.pi / _QUAD_POINTS)
    z = np.exp(1j * theta)
    vals = b.log_abs_derivative(z)
    return fsum(vals.tolist()) / _QUAD_POINTS


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
    # int log|B'| dm = log d for B = z^d; BlaschkeMap.power(d) would store d - 1 zeros
    lhs = birkhoff_variance_exact(h, d, n) / math.log(d)
    rhs = 1.0 / math.log(d)
    return CoboundaryCheck(lhs, rhs, abs(lhs - rhs))


def orbit_angles(b: BlaschkeMap, steps: int, samples: int, seed: int) -> np.ndarray:
    """Angles/2pi of orbit endpoints from uniform starts (invariance diagnostics)."""
    import numpy as np
    rng = np.random.Generator(np.random.Philox(seed))
    z = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, samples))
    for _ in range(steps):
        z = b.apply(z)
        z /= np.abs(z)
    return (np.angle(z) / (2.0 * math.pi)) % 1.0


def ks_uniform_statistic(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of samples in [0,1) from the uniform law."""
    import numpy as np
    x = np.sort(np.asarray(values))
    n = len(x)
    up = np.max(np.arange(1, n + 1) / n - x)
    down = np.max(x - np.arange(0, n) / n)
    return float(max(up, down))
