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

from .annular import PiecewiseField, beurling, beurling_exterior, product_beurling_exterior
from .constructions import ShellParams, build_shell
from .errors import FREQ_CAP, ValidationError
from .formulas import sigma2_second_order, sigma2_shell
from .laurent import ExteriorLaurent, SelfSimilarity, convolve
from .records import record
from .variance import block_masses, limit_estimate

# parameter_search costs 1.7-1.9 us per unit of (J + 5)^2 at each point, J its effective
# shell count (0.09 ms at J = 2, 7.9 ms at d = 2 with 61 shells; 2-core Xeon, Python
# 3.11); the bound admits about 50 ms, 80 times the README grid (three points of six shells)
MAX_GRID_WORK = 3 * 10**4


class Order2Field(record("Order2Field", "w")):
    """w whole; a record, as the benchmark's tracer hook reads ``result.w.coeffs``."""

    __slots__ = ()


class Order2Report(record("Order2Report", [
        "first_order", "second_order", "total",
        "params",                 # the ShellParams asked for
        "shells_used", "max_freq_used",  # J, and 2 n_(J-1), the top frequency of its w
        "second_order_estimate",  # the VarianceEstimate of w
        "stability"])):
    """The J-shell bound; to_doc adds the closed form of its J -> oo limit as
    ``second_order_limit``."""

    __slots__ = ()

    def to_doc(self) -> dict:
        doc = {
            "d": self.params.d,
            "rho0": self.params.rho0,
            "n0": self.params.n0,
            "shells": self.shells_used,
            "max_freq": self.max_freq_used,
            "first_order": self.first_order,
            "second_order": self.second_order,
            "total": self.total,
            "second_order_limit": sigma2_second_order(self.params.d, self.params.rho0),
            "second_order_diagnostics": self.second_order_estimate.to_doc(),
        }
        if self.stability is not None:
            doc["stability"] = self.stability
        return doc


def order2_field(mu: PiecewiseField, max_freq: int) -> Order2Field:
    """Compute w = S(mu*S(mu)) - (1/2)(S(mu))^2 whole, declared exact up to ``max_freq``.

    w is a finite series and nothing is cut: a ``max_freq`` below its top
    frequency is a ValidationError (ExteriorLaurent's check).  The w of J shells
    has every coefficient at k <= 2 n_(J-1); more shells add only coefficients
    above it, so it is their w cut there, coefficient for coefficient.
    """
    w = product_beurling_exterior(mu, beurling(mu))  # exact finite series
    s_ext = beurling_exterior(mu)
    square, _ = convolve(s_ext, s_ext, FREQ_CAP)
    for k, c in square.coeffs.items():
        w[k] = w.get(k, 0) - 0.5 * c
    return Order2Field(ExteriorLaurent(w, max_freq))


def order2_bound(params: ShellParams, refine: bool = False) -> Order2Report:
    """First- plus second-order lower bound for the shell coefficient.

    ``refine`` compares with min(2J, capacity) shells and reports the relative
    change of the total, the stability diagnostic of the truncation.  At shell
    capacity, where that is J itself, it compares with J - 1 shells instead.  w
    and its block masses are computed once; each count's estimate is the limit
    of their prefix below its cut.
    """
    eff = params.clipped_to_max_freq()
    if eff.shells < 2:
        raise ValidationError("need at least two shells within the 64-bit capacity")
    counts = [eff.shells]  # then the shell count the refinement compares with
    if refine:
        if eff.shells == eff.capacity < 3:
            raise ValidationError("refining at shell capacity needs at least three shells")
        counts.append(min(2 * eff.shells, eff.capacity) if eff.shells < eff.capacity
                      else eff.shells - 1)
    # each count J reads its whole w, and the masses of its blocks, below 2 n_(J-1)
    cuts = [2 * eff.frequency(j - 1) for j in counts]
    field = order2_field(build_shell(eff._replace(shells=max(counts))), max(cuts))
    masses = block_masses(field.w, SelfSimilarity(eff.d, eff.n0))
    est, *compared = [limit_estimate(masses[:eff.shells_below(cut + 1) - 1], 1.0 / eff.d,
                                     "block_mass") for cut in cuts]
    first = sigma2_shell(eff.d, eff.rho0)
    total = first + est.value
    stability = (abs(first + compared[0].value - total) / max(abs(total), 1e-300)
                 if compared else None)
    return Order2Report(first, est.value, total, params, eff.shells,
                        cuts[0], est, stability)


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
                                  f"below the 64-bit capacity")
        points.append(p)
    reports = [order2_bound(p) for p in points]
    if not reports:
        raise ValidationError("empty parameter grid")
    board = sorted(reports, key=lambda r: (-r.total, r.params.d, r.params.rho0, r.params.n0))
    return board[0], board


def shell_grid(degrees, rho0_values, n0_values, shells: int):
    """Cartesian parameter grid in deterministic order, built lazily.

    ``rho0_values`` entries may be the string "optimal", resolved per degree;
    ``n0_values`` may contain None for the per-degree default.
    """
    for d in degrees:
        for rho in rho0_values:
            for n0 in n0_values:
                yield ShellParams(d=d, rho0=rho, n0=n0, shells=shells)
