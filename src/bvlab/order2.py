"""Second-order term of the Neumann expansion of the deformation derivative.

For a Beltrami coefficient mu the log-derivative of the deformed map expands
as t*S(mu) + t^2*w + O(t^3) with

    w = S(mu * S(mu)) - (1/2) (S(mu))^2    on |z| > 1,

and the variance of w adds to the first-order variance.  For shell fields
both pieces are exact sparse Laurent series: the product field mu * S(mu)
stays in the monomial-annulus class, so its transform is again a finite
coefficient computation, and the self-product is a sparse convolution.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from math import fsum

from .annular import PiecewiseField, beurling, beurling_exterior, product_beurling_exterior
from .constructions import ShellParams, build_shell
from .errors import FREQ_CAP, UnresolvedTruncationError, ValidationError
from .formulas import sigma2_shell
from .laurent import ExteriorLaurent, convolve
from .variance import VarianceEstimate, variance_block_mass

COEFF_FLOOR = 1e-14  # coefficients of w below this modulus go to the tail mass
FLAG_TOL = 1e-9  # tail mass above this share of the kept mass leaves w unresolved
# parameter_search costs 6-8 us per unit of (J + 5)^2 at each point, J its effective
# shell count (0.3 ms at J = 2, 35 ms at d = 2 with 61 shells); the bound admits about
# a quarter of a second, 80 times the README grid (three points of six shells)
MAX_GRID_WORK = 3 * 10**4


@dataclass(frozen=True)
class Order2Field:
    """w as an exterior series plus the l2 mass dropped beyond the cutoff."""

    w: ExteriorLaurent
    tail_mass: float
    flagged: bool


@dataclass(frozen=True)
class Order2Report:
    first_order: float
    second_order: float
    total: float
    params: ShellParams
    shells_used: int
    max_freq_used: int
    tail_mass: float
    second_order_estimate: VarianceEstimate
    stability: float | None = None

    def to_doc(self) -> dict:
        doc = {
            "d": self.params.d,
            "rho0": self.params.rho0,
            "n0": self.params.first_frequency,
            "shells": self.shells_used,
            "max_freq": self.max_freq_used,
            "first_order": self.first_order,
            "second_order": self.second_order,
            "total": self.total,
            "tail_mass": self.tail_mass,
            "second_order_diagnostics": self.second_order_estimate.to_doc(),
        }
        if self.stability is not None:
            doc["stability"] = self.stability
        return doc


def order2_field(mu: PiecewiseField, max_freq: int) -> Order2Field:
    """Compute w = S(mu*S(mu)) - (1/2)(S(mu))^2 truncated at ``max_freq``.

    w is formed in full and cut once: the kept coefficients are those with
    k <= max_freq and modulus at least COEFF_FLOOR, and the tail mass is the
    l2 mass of all the others.
    """
    if max_freq < 1:
        raise ValidationError("max_freq must be >= 1")
    w = product_beurling_exterior(mu, beurling(mu))  # exact finite series
    s_ext = beurling_exterior(mu)
    square, _ = convolve(s_ext, s_ext, FREQ_CAP)
    for k, c in square.coeffs.items():
        w[k] = w.get(k, 0) - 0.5 * c
    kept, dropped = {}, []
    for k, c in w.items():
        if k <= max_freq and abs(c) >= COEFF_FLOOR:
            kept[k] = c
        else:
            dropped.append(abs(c) ** 2)
    tail = fsum(dropped)
    total_mass = fsum(abs(c) ** 2 for c in kept.values())
    flagged = tail > FLAG_TOL * max(total_mass, 1e-300)
    return Order2Field(ExteriorLaurent(kept, max_freq), tail, flagged)


def _second_order(params: ShellParams) -> tuple[VarianceEstimate, Order2Field, ShellParams]:
    eff = params.clipped_to_max_freq()
    if eff.shells < 2:
        raise ValidationError("need at least two shells below the frequency cutoff")
    # clipped_to_max_freq keeps 2 n_j <= max_freq for every shell, so w fits in full
    field = order2_field(build_shell(eff), 2 * eff.frequency(eff.shells - 1))
    w = field.w.with_self_similarity(eff.degree, eff.first_frequency)
    return variance_block_mass(w), field, eff


def order2_bound(params: ShellParams, refine: bool = False) -> Order2Report:
    """First- plus second-order lower bound for the shell coefficient.

    ``refine`` doubles the shell count and frequency cutoff and reports the
    relative change of the total, the stability diagnostic of the truncation.
    At shell capacity, where the doubled parameters clip back to the same
    shells, it compares with one shell fewer instead.
    """
    est, field, eff = _second_order(params)
    if field.flagged:
        raise UnresolvedTruncationError(
            f"dropped tail mass {field.tail_mass:.3e} above tolerance")
    first = sigma2_shell(eff.d, eff.rho0)
    total = first + est.value
    stability = None
    if refine:
        other = replace(params, shells=2 * eff.shells,
                        max_freq=min(2 * params.max_freq, FREQ_CAP))
        if other.clipped_to_max_freq().shells == eff.shells:
            if eff.shells < 3:
                raise ValidationError("refining at shell capacity needs at least three shells")
            other = replace(eff, shells=eff.shells - 1)
        est2, _, _ = _second_order(other)
        total2 = first + est2.value
        stability = abs(total2 - total) / max(abs(total), 1e-300)
    return Order2Report(first, est.value, total, params, eff.shells,
                        field.w.max_freq, field.tail_mass, est, stability)


def parameter_search(grid) -> tuple[Order2Report, list[Order2Report]]:
    """Evaluate a deterministic grid of shell parameters.

    Returns the best report and the full leaderboard sorted by descending
    total (ties broken by the parameter triple).  The grid may be lazy; its
    work is bounded by MAX_GRID_WORK before the first point is evaluated.
    """
    points, work = [], 0
    for p in grid:
        work += (p.clipped_to_max_freq().shells + 5) ** 2
        if work > MAX_GRID_WORK:
            raise ValidationError(f"the grid needs sum over its points of (shells + 5)^2 "
                                  f"<= {MAX_GRID_WORK}, with the shells each point keeps "
                                  f"below max_freq")
        points.append(p)
    reports = [order2_bound(p) for p in points]
    if not reports:
        raise ValidationError("empty parameter grid")
    board = sorted(reports, key=lambda r: (-r.total, r.params.d, r.params.rho0,
                                           r.params.first_frequency))
    return board[0], board


def shell_grid(degrees, rho0_values, n0_values, shells: int, max_freq: int):
    """Cartesian parameter grid in deterministic order, built lazily.

    ``rho0_values`` entries may be the string "optimal", resolved per degree;
    ``n0_values`` may contain None for the per-degree default.
    """
    for d in degrees:
        for rho in rho0_values:
            for n0 in n0_values:
                yield ShellParams(d=d, rho0=rho, n0=n0, shells=shells, max_freq=max_freq)
