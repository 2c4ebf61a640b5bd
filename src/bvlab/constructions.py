"""Builders for the explicit Beltrami coefficients and vector fields.

The shell coefficient places the unit-modulus block (conj(z)/|z|)^(n_j - 2)
on the annulus r_j <= |z| < r_(j+1), with n_j = n0 * d^j and r_j = rho0^(1/n_j).
Its Cauchy transform is, coefficient by coefficient, the d-lacunary series
with moduli (2/n_j)(rho0^(1/d) - rho0), which is what makes every variance
formula in this package explicit.

Shell radii are handled in log form as log(rho0)/n_j; near the unit circle
the plain radius differs from 1 by less than an ulp long before the 64-bit
frequency capacity is reached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from math import fsum, inf
from typing import TYPE_CHECKING

from .annular import MonomialTerm, PiecewiseField, cauchy_exterior, pullback_power
from .errors import CapacityError, FREQ_CAP, ValidationError
from .formulas import check_degree
from .laurent import ExteriorLaurent, SelfSimilarity

if TYPE_CHECKING:
    import random

    import numpy as np

MAX_TERMS = 10**6  # shell_moduli builds a list of this many floats


def default_first_frequency(d: int) -> int:
    """First shell frequency n0: d - 1, except 2 for degree 2.

    For d = 2 the base choice d - 1 = 1 would require a negative conjugate
    power; doubling frequencies n_j = 2^(j+1) keep every identity except that
    the Cauchy-transform comparison with the lacunary field acquires an
    additive constant.  The variance formulas are unaffected.
    """
    if d < 2:
        raise ValidationError("degree must be >= 2")
    return 2 if d == 2 else d - 1


@dataclass(frozen=True)
class ShellParams:
    """Parameters of the shell coefficient and its Laurent truncation.

    ``d`` may be a real number > 1 for formula-only paths; materializing a
    field requires an integer degree.  ``shells`` is the number of annuli and
    ``max_freq`` the Laurent resolution cutoff carried by derived series.
    """

    d: float
    rho0: float
    n0: int | None = None
    shells: int = 10
    max_freq: int = FREQ_CAP

    def __post_init__(self) -> None:
        check_degree(self.d)
        if not 0.0 < self.rho0 < 1.0:
            raise ValidationError("rho0 must lie in (0, 1)")
        if self.shells < 0:
            raise ValidationError("shell count must be >= 0")
        if self.max_freq < 1:
            raise ValidationError("max_freq must be >= 1")
        if self.n0 is not None and self.n0 < 2:
            raise ValidationError("first shell frequency n0 must be >= 2")

    @property
    def degree(self) -> int:
        if self.d != int(self.d):
            raise ValidationError("field construction requires an integer degree")
        return int(self.d)

    @property
    def first_frequency(self) -> int:
        return self.n0 if self.n0 is not None else default_first_frequency(self.degree)

    def frequency(self, j: int) -> int:
        n = self.first_frequency * self.degree**j
        if n > FREQ_CAP:
            raise CapacityError(
                f"shell frequency n_{j} = {self.first_frequency}*{self.degree}^{j} "
                "exceeds 64-bit capacity")
        return n

    def frequencies(self) -> list[int]:
        return [self.frequency(j) for j in range(self.shells)]

    def log_radius(self, j: int) -> float:
        # exact integer frequency keeps log r_j = log(rho0)/n_j to full precision;
        # the outer radius of the last shell may exceed the frequency capacity,
        # which is fine since no Laurent frequency is created for it
        n = self.first_frequency * self.degree**j
        return math.log(self.rho0) / float(n)

    def series_cutoff(self) -> int:
        """Largest frequency at which shell-derived series are exact."""
        n = self.first_frequency * self.degree**self.shells
        return max(1, min(self.max_freq, n - 1, FREQ_CAP))

    @property
    def delta(self) -> float:
        """rho0^(1/d) - rho0, the limiting half-modulus of the transform coefficients."""
        return self.rho0 ** (1.0 / self.d) - self.rho0

    def clipped_to_max_freq(self) -> "ShellParams":
        """Largest shell count whose full product spectrum fits under max_freq."""
        j = 0
        while j < self.shells:
            n = self.first_frequency * self.degree**j
            if 2 * n > self.max_freq or n > FREQ_CAP:
                break
            j += 1
        return self if j == self.shells else replace(self, shells=j)


def build_shell(params: ShellParams) -> PiecewiseField:
    """The shell Beltrami coefficient as a piecewise field.

    Unit modulus on the union of shells, zero for |z| < r_0 and |z| >= r_J.
    """
    terms = []
    for j in range(params.shells):
        n = params.frequency(j)
        terms.append(MonomialTerm(1.0, n - 2, 0, float(2 - n),
                                  params.log_radius(j), params.log_radius(j + 1)))
    return PiecewiseField(tuple(terms))


def shell_cauchy_series(params: ShellParams) -> ExteriorLaurent:
    """Exterior Cauchy series of the shell field, with block metadata attached."""
    field = build_shell(params)
    return cauchy_exterior(field).truncated(params.series_cutoff()).with_self_similarity(
        params.degree, params.first_frequency)


def shell_beurling_series(params: ShellParams) -> ExteriorLaurent:
    """Exterior series of the transform of the shell field.

    Coefficient moduli are 2 (1 - 1/n_j) (rho0^(1/d) - rho0) at the
    frequencies n_j; the series is exact below the first missing shell.
    """
    return shell_cauchy_series(params).derivative().truncated(params.series_cutoff())


def shell_cauchy_identity_check(params: ShellParams, samples) -> tuple[float, float]:
    """Residual of C(mu) = -(2d/(d-1)) (rho0^(1/d) - rho0) v at exterior samples.

    Both sides are truncated after ``params.shells`` terms, so the residual is
    bounded by the first omitted term; the bound is returned alongside the
    maximal residual.  Requires the base construction n0 = d - 1 (degree >= 3),
    where the identity holds exactly; for degree 2 the comparison carries an
    additive constant and is not offered here.
    """
    d = params.degree
    if d < 3 or params.first_frequency != d - 1:
        raise ValidationError("identity check needs degree >= 3 with n0 = d - 1")
    series = shell_cauchy_series(params)
    lac = lacunary_vector_field(d, params.shells)
    scale = -(2.0 * d / (d - 1.0)) * params.delta
    worst = 0.0
    bound = 0.0
    for z in samples:
        if not abs(z) > 1.0:
            raise ValidationError("samples must lie outside the unit circle")
        worst = max(worst, abs(series.eval(z) - scale * lac.v.eval(z)))
        n_next = (d - 1) * d**params.shells
        log_tail = (1 - n_next) * math.log(abs(z)) - params.shells * math.log(d)
        tail = abs(scale) * (math.exp(log_tail) if log_tail > -700 else 0.0)
        bound = max(bound, tail)
    return worst, bound


def shell_moduli(params: ShellParams, n_terms: int) -> list[float]:
    """Transform coefficient moduli 2 (1 - 1/n_j) delta, formula-only.

    Works for real d > 1 and arbitrarily many terms; no frequencies are
    materialized.  Frequencies beyond the float range contribute the limiting
    modulus 2*delta.
    """
    if not 1 <= n_terms <= MAX_TERMS:
        raise ValidationError(f"need 1 <= n_terms <= {MAX_TERMS}")
    n0 = params.n0 if params.n0 is not None else (
        default_first_frequency(int(round(params.d))) if params.d == int(params.d)
        else params.d - 1.0)
    out = []
    log_d = math.log(params.d)
    for j in range(n_terms):
        log_n = math.log(n0) + j * log_d
        inv_n = 0.0 if log_n > 700.0 else math.exp(-log_n)
        out.append(2.0 * (1.0 - inv_n) * params.delta)
    return out


# ---------------------------------------------------------------------------
# lacunary and polynomial-perturbation vector fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LacunaryField:
    """Truncated solution of v(z^d) = d z^(d-1) v(z) + z on |z| > 1.

    ``constant`` is the frequency-zero part (nonzero only for d = 2), which a
    strictly-decaying Laurent series cannot carry; add it back when checking
    the functional equation.
    """

    v: ExteriorLaurent
    v_prime: ExteriorLaurent
    constant: complex
    d: int
    n_terms: int

    def functional_equation_residual(self, z: complex) -> tuple[float, float]:
        """|v(z^d) - d z^(d-1) v(z) - z| at a sample, with its analytic tail bound.

        For the N-term truncation the residual is exactly
        |z|^(d - (d-1) d^N) / d^N.
        """
        d, n = self.d, self.n_terms
        vz = self.v.eval(z) + self.constant
        vzd = self.v.eval(z**d) + self.constant
        res = abs(vzd - d * z ** (d - 1) * vz - z)
        log_bound = (d - (d - 1) * d**n) * math.log(abs(z)) - n * math.log(d)
        bound = math.exp(log_bound) if log_bound > -700 else 0.0
        return res, bound


def lacunary_vector_field(d: int, n_terms: int) -> LacunaryField:
    """v(z) = -(z/d) sum_(n < N) z^(-(d-1) d^n) / d^n and its derivative."""
    if d < 2:
        raise ValidationError("degree must be >= 2")
    v: dict[int, complex] = {}
    vp: dict[int, complex] = {}
    constant = 0j
    for n in range(n_terms):
        lam = (d - 1) * d**n
        if lam > FREQ_CAP:
            raise CapacityError("lacunary frequency exceeds capacity")
        c = -(1.0 / d ** (n + 1))
        if lam == 1:
            constant += c
        else:
            v[lam - 1] = v.get(lam - 1, 0) + c
        vp[lam] = vp.get(lam, 0) + (lam - 1.0) / d ** (n + 1)
    mf = max((d - 1) * d**n_terms - 1, 1) if n_terms else 1
    meta = SelfSimilarity(d, max(d - 1, 1))
    return LacunaryField(ExteriorLaurent(v, mf, meta), ExteriorLaurent(vp, mf, meta),
                         constant, d, n_terms)


@dataclass(frozen=True)
class PerturbationSpec:
    """Polynomial data Q (degree <= d - 2) driving a degree-d perturbation."""

    d: int
    q_coeffs: tuple[complex, ...]
    n_terms: int = 8

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValidationError("degree must be >= 2")
        if len(self.q_coeffs) > self.d - 1:
            raise ValidationError("polynomial degree must be <= d - 2")
        if self.n_terms < 0:
            raise ValidationError("series length must be >= 0")
        object.__setattr__(self, "q_coeffs", tuple(complex(c) for c in self.q_coeffs))


def perturbation_block(spec: PerturbationSpec, k: int) -> ExteriorLaurent:
    """Single block v_k(z) = (z/d) Q(z^(d^k)) / (d^k z^(d^(k+1)))."""
    d = spec.d
    coeffs: dict[int, complex] = {}
    scale = 1.0 / d ** (k + 1)
    for m, qm in enumerate(spec.q_coeffs):
        if qm == 0:
            continue
        freq = d**k * (d - m) - 1
        if freq > FREQ_CAP:
            raise CapacityError("perturbation frequency exceeds capacity")
        coeffs[freq] = coeffs.get(freq, 0) + qm * scale
    return ExteriorLaurent(coeffs, max(coeffs, default=1))


def perturbation_vector_field(spec: PerturbationSpec) -> ExteriorLaurent:
    """v(z) = (z/d) sum_(k < K) Q(z^(d^k)) / (d^k z^(d^(k+1)))."""
    coeffs: dict[int, complex] = {}
    for k in range(spec.n_terms):
        for f, c in perturbation_block(spec, k).coeffs.items():
            coeffs[f] = coeffs.get(f, 0) + c
    mf = max(2 * spec.d**spec.n_terms - 2, 1)
    mf = min(mf, FREQ_CAP)
    return ExteriorLaurent(coeffs, mf, SelfSimilarity(spec.d, max(spec.d - 1, 1)))


# ---------------------------------------------------------------------------
# truncation to polynomial Cauchy transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncationResult:
    field: PiecewiseField
    cutoff: int                  # exterior Cauchy frequencies > cutoff are cancelled
    correction_bound: float      # sup-norm bound of the added correction
    tail_bound: float            # geometric bound actually achieved
    rescaled: bool


def truncate_to_polynomial(mu: PiecewiseField, r1: float, eps: float,
                           rescale: bool = False) -> TruncationResult:
    """Cancel high Cauchy frequencies of ``mu`` by unit-modulus blocks on A(rho0, r1).

    ``mu`` must be supported in an annulus A(rho0, rho1) with rho1 < r1 < 1.
    The cutoff N is the smallest integer with
    sum_(j >= N+1) (rho1/r1)^j <= eps; the correction added for each cancelled
    frequency j has sup-norm |b_j| / ((2/(j+1)) (r1^(j+1) - rho0^(j+1))), so
    the perturbation of mu stays below the geometric bound.  The returned
    field has exterior Cauchy coefficients supported on frequencies <= N and
    unchanged transform value at the origin.
    """
    if not mu.terms:
        return TruncationResult(mu, 0, 0.0, 0.0, False)
    rho0 = mu.min_r_in()
    rho1 = mu.max_r_out()
    if not rho1 < r1 < 1.0:
        raise ValidationError("need support radius rho1 < r1 < 1")
    if not 0.0 < eps < inf:
        raise ValidationError("eps must be positive and finite")
    q = rho1 / r1
    # smallest N with q^(N+1) / (1-q) <= eps
    n_cut = max(0, math.ceil(math.log(eps * (1.0 - q)) / math.log(q)) - 1)
    while q ** (n_cut + 1) / (1.0 - q) > eps:
        n_cut += 1
    while n_cut > 0 and q ** n_cut / (1.0 - q) <= eps:
        n_cut -= 1
    if n_cut > FREQ_CAP:
        raise CapacityError("truncation cutoff exceeds frequency capacity")

    series = cauchy_exterior(mu)
    log_rho0 = -inf if rho0 == 0.0 else math.log(rho0)
    log_r1 = math.log(r1)
    corrections = []
    bounds = []
    for j in sorted(series.coeffs):
        if j <= n_cut:
            continue
        b = series.coeffs[j]
        denom = (2.0 / (j + 1)) * (math.exp((j + 1) * log_r1)
                                   - (0.0 if log_rho0 == -inf else math.exp((j + 1) * log_rho0)))
        amp = b / denom
        corrections.append(MonomialTerm(-amp, j - 1, 0, float(1 - j), log_rho0, log_r1))
        bounds.append(abs(amp))
    out = mu.add(PiecewiseField(tuple(corrections)))
    bound = fsum(bounds)
    rescaled = False
    if rescale and bound > 0:
        out = out.scaled(1.0 / (1.0 + bound))
        rescaled = True
    return TruncationResult(out, n_cut, bound, q ** (n_cut + 1) / (1.0 - q), rescaled)


def periodise(mu0: PiecewiseField, d: int, copies: int) -> PiecewiseField:
    """Sum of pullbacks of ``mu0`` under z -> z^(d^k) for k < copies.

    ``mu0`` must live in one fundamental annulus [r0, r0^(1/d)); the pullback
    copies then tile disjoint annuli accumulating at the unit circle.
    """
    if d < 2:
        raise ValidationError("degree must be >= 2")
    if copies < 1:
        return PiecewiseField.empty()
    if not mu0.terms:
        return mu0
    lo = min(t.log_r_in for t in mu0.terms)
    hi = max(t.log_r_out for t in mu0.terms)
    if lo == -inf or hi > lo / d + 1e-12:
        raise ValidationError("support must lie inside one fundamental annulus "
                              "[r0, r0^(1/d)) with 0 < r0 < 1")
    out = mu0
    for k in range(1, copies):
        out = out.add(pullback_power(mu0, d**k))
    return out


def random_unit_shell_field(rng: np.random.Generator | random.Random,
                            shells: int = 20, max_frequency: int = 10**6) -> PiecewiseField:
    """Random unit-modulus monomial shells with ||mu||_inf <= 1.

    Radii accumulate geometrically at the unit circle and angular orders grow
    like the inverse distance to the circle, so the transform has content on
    every dyadic-like scale inside ``max_frequency``.
    """
    x = float(rng.uniform(0.3, 0.7))  # x = -log r, shrinking toward 0
    terms = []
    for _ in range(shells):
        x_next = x / float(rng.uniform(1.6, 3.2))
        n = min(max(2, int(float(rng.uniform(0.5, 3.0)) / x) + 2), max_frequency)
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        phase = complex(math.cos(angle), math.sin(angle))
        terms.append(MonomialTerm(phase, n - 2, 0, float(2 - n), -x, -x_next))
        x = x_next
        if x < 1e-6:
            break
    return PiecewiseField(tuple(terms))
