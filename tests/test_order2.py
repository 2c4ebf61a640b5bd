"""Second-order term: route independence, convergence, bounds and search."""
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvlab.annular import (MonomialTerm, PiecewiseField, beurling, multiply)
from bvlab.constructions import ShellParams, build_shell
from bvlab.errors import ValidationError
from bvlab.formulas import optimal_rho0, sigma2_shell
from bvlab.order2 import (order2_bound, order2_field, parameter_search,
                          shell_grid)
from conftest import circle
from oracles import quad_beurling_at, quad_beurling_exterior


def analytic_block_mass_limit(d: float, rho0: float) -> float:
    """Limiting per-block mass of w for shell fields, derived by hand.

    Cross coefficients tend to 4 delta^2 n_small/n_large (summing to
    16 delta^4/(d^2-1) in square mass per block) and the diagonal tends to
    2(rho0^(2/d) - rho0^2) - 8 rho0 delta - 2 delta^2.
    """
    delta = rho0 ** (1.0 / d) - rho0
    cross = 16.0 * delta**4 / (d * d - 1.0)
    diag = 2.0 * (rho0 ** (2.0 / d) - rho0**2) - 8.0 * rho0 * delta - 2.0 * delta**2
    return cross + diag * diag


class TestOrder2Field:
    def test_disk_indicator_reduces_to_half_square(self):
        # the transform of the disk indicator vanishes on the support, so the
        # product route contributes nothing and w = -(1/2) S(mu)^2
        mu = PiecewiseField.of(MonomialTerm.make(1.0, 0, 0, 0.0, 0.0, 0.6))
        out = order2_field(mu, max_freq=100)
        rho = 0.6
        assert set(out.w.coeffs) == {4}
        assert out.w.coeffs[4] == pytest.approx(-0.5 * rho**4)
        z = circle(1.4, 0.8)
        s_quad = quad_beurling_exterior(mu, z, n_r=1000)
        assert out.w.eval(z) == pytest.approx(-0.5 * s_quad**2, rel=1e-4)

    def test_zero_field(self):
        out = order2_field(PiecewiseField(()), max_freq=10)
        assert out.w.coeffs == {} and out.tail_mass == 0.0

    def test_route_independence_small_instance(self):
        # stage 1: certify the on-support transform against the principal-value
        # quadrature; stage 2: compare w at exterior probes against direct
        # quadratures of the defining integrals
        params = ShellParams(d=3, rho0=0.3, shells=2)
        mu = build_shell(params)
        s_pw = beurling(mu)
        for j in range(2):
            r = math.exp(0.5 * (params.log_radius(j) + params.log_radius(j + 1)))
            for theta in (0.7, 2.9):
                z = circle(r, theta)
                q = quad_beurling_at(mu, z, n_r=500, n_t=1024, n_s=200, n_a=256)
                assert abs(s_pw.eval(z) - q) <= 1e-3 * max(1e-9, abs(q))

        out = order2_field(mu, max_freq=5000)
        probes = [circle(1.08 + 0.09 * i, 0.31 * i) for i in range(20)]
        s_prod = quad_beurling_exterior(multiply(mu, s_pw), probes, n_r=700, n_t=700)
        s_mu = quad_beurling_exterior(mu, probes, n_r=700, n_t=700)
        for z, sp, sm in zip(probes, s_prod, s_mu):
            w_quad = sp - 0.5 * sm**2
            assert abs(out.w.eval(z) - w_quad) <= 1e-3 * max(1e-12, abs(w_quad))

    def test_tail_mass_reported(self):
        mu = build_shell(ShellParams(d=3, rho0=0.3, shells=3))
        clipped = order2_field(mu, max_freq=20)
        full = order2_field(mu, max_freq=10**6)
        assert clipped.tail_mass > 0
        assert full.tail_mass <= 1e-25
        assert clipped.flagged

    @pytest.mark.parametrize("mu, max_freq, mass", [
        (build_shell(ShellParams(d=3, rho0=0.3, shells=3)), 20, 0.21536),
        (PiecewiseField.of(MonomialTerm.make(1.0, 3, 0, -1.0, 0.2, 0.5),
                           MonomialTerm.make(0.5, 1, 0, 0.0, 0.5, 0.7)), 5, 1.2230e-4)])
    def test_tail_mass_is_the_mass_of_w_beyond_the_cut(self, mu, max_freq, mass):
        # the square's dropped coefficients enter w at -1/2 and net against S(mu S(mu))
        full = order2_field(mu, max_freq=10**6)
        beyond = [abs(c) ** 2 for k, c in full.w.coeffs.items() if k > max_freq]
        tail = order2_field(mu, max_freq).tail_mass
        assert tail == pytest.approx(math.fsum(beyond), rel=1e-12, abs=0)
        assert tail == pytest.approx(mass, rel=1e-4)

    @given(st.lists(st.tuples(st.floats(-2, 2), st.integers(1, 12), st.sampled_from([0.0, -1.0]),
                              st.floats(0.05, 0.9), st.floats(0.02, 0.5)),
                    min_size=2, max_size=4),
           st.integers(1, 48))
    @settings(max_examples=50, deadline=None)
    def test_single_cut(self, terms, cutoff):
        # cutting at c keeps exactly the uncut w below c and counts the rest as tail
        mu = PiecewiseField(tuple(MonomialTerm.make(c, p, 0, gamma, r, min(r + width, 0.99))
                                  for c, p, gamma, r, width in terms))
        full, cut = order2_field(mu, 10**6), order2_field(mu, cutoff)
        assert cut.w.coeffs == {k: c for k, c in full.w.coeffs.items() if k <= cutoff}
        rest = [abs(c) ** 2 for k, c in full.w.coeffs.items() if k > cutoff]
        assert cut.tail_mass == pytest.approx(math.fsum([*rest, full.tail_mass]),
                                              rel=1e-12, abs=0)


class TestOrder2Bound:
    def test_degree16_bound(self):
        # the bound and its stability are the selfcheck entry order2_degree16
        params = ShellParams(d=16, rho0=optimal_rho0(16), n0=15, shells=7)
        report = order2_bound(params)
        assert report.total == pytest.approx(report.first_order + report.second_order)

    def test_degree16_matches_analytic_limit(self):
        params = ShellParams(d=16, rho0=optimal_rho0(16), n0=15, shells=7)
        report = order2_bound(params)
        expected = analytic_block_mass_limit(16, params.rho0) / math.log(16)
        assert report.second_order == pytest.approx(expected, rel=1e-2)

    def test_degree20_exceeds_first_order(self):
        params = ShellParams(d=20, rho0=optimal_rho0(20), shells=6)
        report = order2_bound(params)
        assert report.second_order >= 0.0
        assert report.total > 0.8791

    def test_degree2_exceeds_first_order(self):
        params = ShellParams(d=2, rho0=0.25, shells=12)
        report = order2_bound(params)
        assert report.total > sigma2_shell(2, 0.25)
        assert report.second_order >= 0.0

    def test_block_mass_convergence_diagnostics(self):
        params = ShellParams(d=16, rho0=optimal_rho0(16), n0=15, shells=7)
        report = order2_bound(params)
        values = [v for _, v in report.second_order_estimate.diagnostics]
        # running tail averages stabilize as the early-shell deficits wash out
        assert abs(values[-1] - values[-2]) <= 2e-3 * values[-1]
        errors = [abs(v - values[-1]) for v in values]
        assert errors == sorted(errors, reverse=True)

    def test_needs_two_shells(self):
        with pytest.raises(ValidationError):
            order2_bound(ShellParams(d=3, rho0=0.3, shells=1))

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_refine_at_capacity_compares_one_shell_fewer(self, d):
        # doubling clips back to the capacity there, so J is compared with J - 1
        params = ShellParams(d=d, rho0=optimal_rho0(d))
        params = replace(params, shells=params.capacity)
        report = order2_bound(params, refine=True)
        lower = order2_bound(replace(params, shells=params.capacity - 1))
        assert report.shells_used == params.capacity
        assert report.stability > 0
        assert report.stability == abs(report.total - lower.total) / abs(report.total)

    def test_refine_below_capacity_doubles(self):
        params = ShellParams(d=16, rho0=optimal_rho0(16), n0=15, shells=4)
        report = order2_bound(params, refine=True)
        doubled = order2_bound(replace(params, shells=8))
        assert report.stability == abs(doubled.total - report.total) / abs(report.total)

    def test_refine_at_a_capacity_of_two_shells(self):
        # max_freq 480 keeps n_0 = 15 and n_1 = 240, and so does its double
        params = ShellParams(d=16, rho0=0.3, n0=15, shells=2, max_freq=480)
        assert params.capacity == 2 == replace(params, max_freq=960).capacity
        assert order2_bound(params).shells_used == 2
        with pytest.raises(ValidationError, match="at least three shells"):
            order2_bound(params, refine=True)


class TestParameterSearch:
    def test_leaderboard_sorted_and_contains_reference_point(self):
        grid = shell_grid([12, 16, 20], ["optimal"], [None], shells=6,
                          max_freq=2**63 - 1)
        best, board = parameter_search(grid)
        totals = [r.total for r in board]
        assert totals == sorted(totals, reverse=True)
        assert best.params.d == 16
        assert best.total >= 0.893 - 0.002

    def test_single_point_grid(self):
        grid = shell_grid([4], [0.3], [None], shells=6, max_freq=2**63 - 1)
        best, board = parameter_search(grid)
        assert len(board) == 1 and best is board[0]
        assert best.params.d == 4 and best.params.rho0 == 0.3

    def test_first_frequency_choices_converge_to_same_limit(self):
        # the limiting second-order mass does not depend on the first shell
        # frequency; finite truncations differ only in their diagnostics
        base = ShellParams(d=16, rho0=optimal_rho0(16), n0=15, shells=7)
        other = replace(base, n0=31)
        r1 = order2_bound(base)
        r2 = order2_bound(other)
        assert r1.second_order == pytest.approx(r2.second_order, rel=5e-3)
