"""Builders for the shell Beltrami coefficient, the lacunary vector field,
truncations to polynomial Cauchy transforms and random unit-modulus shell fields.

The shell coefficient places the unit-modulus block (conj(z)/|z|)^(n_j - 2)
on the annulus r_j <= |z| < r_(j+1), with n_j = n0 * d^j and r_j = rho0^(1/n_j).
Its Cauchy transform is, coefficient by coefficient, the d-lacunary series
with moduli (2/n_j)(rho0^(1/d) - rho0), which is what makes every variance
formula in this package explicit.  ``_shell_blocks`` spells the blocks once:
``build_shell`` wraps them as terms, and the shell series read them by
``laurent.cauchy_coefficients``, the term algebra's own rule, so ``annular``
loads only when a field is built.

Shell radii are handled in log form as log(rho0)/n_j; near the unit circle
the plain radius differs from 1 by less than an ulp long before the 64-bit
frequency capacity is reached.
"""
from __future__ import annotations

import math
from math import fsum, inf
from typing import TYPE_CHECKING

from . import annular
from .errors import CapacityError, FREQ_CAP, ValidationError
from .formulas import check_degree, optimal_rho0
from .laurent import (ExteriorLaurent, SelfSimilarity, cauchy_coefficients,
                      derivative_coefficients, radial_moment)
from .records import record

if TYPE_CHECKING:
    import random

    import numpy as np

    from .annular import PiecewiseField

MAX_TERMS = 10**6  # shell_moduli builds a list of this many floats


class ShellParams(record("ShellParams", "d rho0 n0 shells")):
    """Parameters of the shell coefficient, resolved when built.

    ``d`` is an integer degree >= 2, since the shell blocks sit at the integer
    frequencies n_j = n0 * d^j; a real degree belongs to the closed forms of
    ``formulas`` alone.  ``rho0="optimal"`` resolves to ``optimal_rho0(d)``.
    ``n0=None`` resolves to d - 1, except 2 for degree 2: there d - 1 = 1 would
    require a negative conjugate power, and doubling frequencies n_j = 2^(j+1)
    keep every identity except that the Cauchy-transform comparison with the
    lacunary field acquires an additive constant; the variance formulas are
    unaffected.  ``shells`` is the number of annuli J, and n_J - 1 the cutoff of
    the shell series (``series_cutoff``).
    """

    __slots__ = ()

    def __new__(cls, d: int, rho0: float | str, n0: int | None = None,
                shells: int = 10) -> "ShellParams":
        check_degree(d)
        if d != int(d):
            raise ValidationError("the shell degree must be an integer")
        d = int(d)
        if rho0 == "optimal":
            rho0 = optimal_rho0(d)
        if not 0.0 < rho0 < 1.0:
            raise ValidationError("rho0 must lie in (0, 1)")
        if shells < 0:
            raise ValidationError("shell count must be >= 0")
        if n0 is None:
            n0 = 2 if d == 2 else d - 1
        if n0 < 2:
            raise ValidationError("first shell frequency n0 must be >= 2")
        return super().__new__(cls, d, rho0, n0, shells)

    def frequency(self, j: int) -> int:
        n = self.n0 * self.d**j
        if n > FREQ_CAP:
            raise CapacityError(
                f"shell frequency n_{j} = {self.n0}*{self.d}^{j} exceeds 64-bit capacity")
        return n

    def log_radius(self, j: int) -> float:
        # exact integer frequency keeps log r_j = log(rho0)/n_j to full precision;
        # the outer radius of the last shell may exceed the frequency capacity,
        # which is fine since no Laurent frequency is created for it
        n = self.n0 * self.d**j
        return math.log(self.rho0) / float(n)

    def series_cutoff(self) -> int:
        """min(n_J - 1, FREQ_CAP): the shell series are exact up to it and hold nothing
        above n_(J-1), since shell j has its coefficients at n_j - 1 and n_j."""
        return min(self.n0 * self.d**self.shells - 1, FREQ_CAP)

    @property
    def delta(self) -> float:
        """rho0^(1/d) - rho0, the limiting half-modulus of the transform coefficients."""
        return self.rho0 ** (1.0 / self.d) - self.rho0

    def shells_below(self, freq: int) -> int:
        """The number of shell frequencies n_j <= freq."""
        return len(SelfSimilarity(self.d, self.n0).block_edges(freq))

    @property
    def capacity(self) -> int:
        """Largest shell count J whose product spectrum, up to 2 n_(J-1), fits in 64 bits."""
        return self.shells_below(FREQ_CAP // 2)

    def clipped_to_max_freq(self) -> "ShellParams":
        """At most ``capacity`` shells; the name stays because perfbench calls it."""
        shells = min(self.shells, self.capacity)
        return self if shells == self.shells else self._replace(shells=shells)


def _shell_blocks(params: ShellParams) -> list[tuple]:
    """The shell blocks (conj(z)/|z|)^(n_j - 2) on r_j <= |z| < r_(j+1), as the tuples
    (coeff, p, q, gamma, log_r_in, log_r_out) of the term algebra; every frequency
    is checked first."""
    frequencies = [params.frequency(j) for j in range(params.shells)]
    return [(1.0, n - 2, 0, float(2 - n), params.log_radius(j), params.log_radius(j + 1))
            for j, n in enumerate(frequencies)]


def build_shell(params: ShellParams) -> PiecewiseField:
    """The shell Beltrami coefficient as a piecewise field.

    Unit modulus on the union of shells, zero for |z| < r_0 and |z| >= r_J.
    """
    return annular.PiecewiseField(tuple(annular.MonomialTerm(*b) for b in _shell_blocks(params)))


def shell_cauchy_series(params: ShellParams) -> ExteriorLaurent:
    """Exterior Cauchy series of the shell field, whole below its cutoff, with block
    metadata attached."""
    return ExteriorLaurent(cauchy_coefficients(_shell_blocks(params)), params.series_cutoff(),
                           SelfSimilarity(params.d, params.n0))


def shell_beurling_series(params: ShellParams) -> ExteriorLaurent:
    """Exterior series of the transform of the shell field, whole below its cutoff.

    Coefficient moduli are 2 (1 - 1/n_j) (rho0^(1/d) - rho0) at the
    frequencies n_j; the series is exact below the first missing shell.  It is the
    z-derivative of the shell Cauchy series, by ``laurent.derivative_coefficients``.
    """
    return ExteriorLaurent(derivative_coefficients(cauchy_coefficients(_shell_blocks(params))),
                           params.series_cutoff(),
                           SelfSimilarity(params.d, params.n0))


def shell_cauchy_identity_check(params: ShellParams, samples) -> tuple[float, float]:
    """Residual of C(mu) = -(2d/(d-1)) (rho0^(1/d) - rho0) v at exterior samples.

    Both sides are truncated after ``params.shells`` terms, so the residual is
    bounded by the first omitted term; the bound is returned alongside the
    maximal residual.  Requires the base construction n0 = d - 1 (degree >= 3),
    where the identity holds exactly; for degree 2 the comparison carries an
    additive constant and is not offered here.
    """
    d = params.d
    if d < 3 or params.n0 != d - 1:
        raise ValidationError("identity check needs degree >= 3 with n0 = d - 1")
    series = shell_cauchy_series(params)  # the independent side is the lacunary field
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

    Works for arbitrarily many terms, as no frequency n_j = n0 * d^j is
    materialized: n_j is read through its log, and frequencies beyond the float
    range contribute the limiting modulus 2*delta.
    """
    if not 1 <= n_terms <= MAX_TERMS:
        raise ValidationError(f"need 1 <= n_terms <= {MAX_TERMS}")
    out = []
    log_d = math.log(params.d)
    for j in range(n_terms):
        log_n = math.log(params.n0) + j * log_d
        inv_n = 0.0 if log_n > 700.0 else math.exp(-log_n)
        out.append(2.0 * (1.0 - inv_n) * params.delta)
    return out


# ---------------------------------------------------------------------------
# lacunary vector fields
# ---------------------------------------------------------------------------

class LacunaryField(record("LacunaryField", "v constant d n_terms")):
    """Truncated solution of v(z^d) = d z^(d-1) v(z) + z on |z| > 1.

    ``v`` is an ExteriorLaurent.  ``constant`` is the frequency-zero part
    (nonzero only for d = 2), which a strictly-decaying Laurent series cannot
    carry; add it back when checking the functional equation.
    """

    __slots__ = ()

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
    """v(z) = -(z/d) sum_(n < N) z^(-(d-1) d^n) / d^n."""
    if d < 2:
        raise ValidationError("degree must be >= 2")
    v: dict[int, complex] = {}
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
    mf = max((d - 1) * d**n_terms - 1, 1) if n_terms else 1
    return LacunaryField(ExteriorLaurent(v, mf), constant, d, n_terms)


# ---------------------------------------------------------------------------
# truncation to polynomial Cauchy transforms
# ---------------------------------------------------------------------------

class TruncationResult(record("TruncationResult", [
        "field",             # a PiecewiseField
        "cutoff",            # exterior Cauchy frequencies > cutoff are cancelled
        "correction_bound",  # sup-norm bound of the added correction
        "tail_bound",        # geometric bound actually achieved
        "rescaled"])):
    __slots__ = ()


def truncate_to_polynomial(mu: PiecewiseField, r1: float, eps: float,
                           rescale: bool = False) -> TruncationResult:
    """Cancel high Cauchy frequencies of ``mu`` by unit-modulus blocks on A(rho0, r1).

    ``mu`` must be supported in an annulus A(rho0, rho1) with rho1 < r1 < 1,
    rho0 its smallest stored inner radius.  The cutoff N is the smallest integer
    with sum_(j >= N+1) (rho1/r1)^j <= eps; the correction for each cancelled
    frequency j has sup-norm |b_j| over a unit block's radial moment
    (2/(j+1)) (r1^(j+1) - rho0^(j+1)), so the perturbation of mu stays below the
    geometric bound.  The returned field has exterior Cauchy coefficients
    supported on frequencies <= N and unchanged transform value at the origin.
    """
    rho1 = mu.max_r_out()  # 0.0 for a field with no terms
    if not rho1 < r1 < 1.0:
        raise ValidationError("need support radius rho1 < r1 < 1")
    if not 0.0 < eps < inf:
        raise ValidationError("eps must be positive and finite")
    if not mu.terms:
        return TruncationResult(mu, 0, 0.0, 0.0, False)
    q = rho1 / r1
    # smallest N with q^(N+1) / (1-q) <= eps; the log of a sum, as eps (1-q) may underflow
    n_cut = max(0, math.ceil((math.log(eps) + math.log1p(-q)) / math.log(q)) - 1)
    while q ** (n_cut + 1) / (1.0 - q) > eps:
        n_cut += 1
    while n_cut > 0 and q ** n_cut / (1.0 - q) <= eps:
        n_cut -= 1
    if n_cut > FREQ_CAP:
        raise CapacityError("truncation cutoff exceeds frequency capacity")

    series = annular.cauchy_exterior(mu)
    log_rho0 = min(t.log_r_in for t in mu.terms)
    log_r1 = math.log(r1)
    corrections = []
    bounds = []
    for j, b in series.coeffs.items():
        if j <= n_cut:
            continue
        amp = b / radial_moment(1.0, j + 1, log_rho0, log_r1)  # a unit block's moment
        corrections.append(annular.MonomialTerm(-amp, j - 1, 0, float(1 - j), log_rho0, log_r1))
        bounds.append(abs(amp))
    out = mu.add(annular.PiecewiseField(tuple(corrections)))
    bound = fsum(bounds)
    rescaled = False
    if rescale and bound > 0:
        out = out.scaled(1.0 / (1.0 + bound))
        rescaled = True
    return TruncationResult(out, n_cut, bound, q ** (n_cut + 1) / (1.0 - q), rescaled)


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
        terms.append(annular.MonomialTerm(phase, n - 2, 0, float(2 - n), -x, -x_next))
        x = x_next
        if x < 1e-6:
            break
    return annular.PiecewiseField(tuple(terms))
