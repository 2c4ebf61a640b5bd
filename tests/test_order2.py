"""Second-order term: route independence, convergence, bounds and search."""
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvlab.annular import (MonomialTerm, PiecewiseField, beurling, multiply)
from bvlab.constructions import ShellParams, build_shell
from bvlab.errors import ValidationError
from bvlab.formulas import optimal_rho0, sigma2_second_order, sigma2_shell
from bvlab.laurent import ExteriorLaurent, SelfSimilarity
from bvlab.order2 import order2_bound, order2_field, parameter_search, shell_grid
from bvlab.variance import block_masses, limit_estimate, variance_block_mass
from conftest import circle
from oracles import mp_order2_block_masses, quad_beurling_at, quad_beurling_exterior, truncated


def spy_fields(monkeypatch) -> list[tuple[int, int]]:
    """Record the shell count and cut of every field order2_bound hands to order2_field."""
    shells = []

    def spy(mu, max_freq):
        shells.append((len(mu.terms), max_freq))
        return order2_field(mu, max_freq)

    monkeypatch.setattr("bvlab.order2.order2_field", spy)
    return shells


def bits(coeffs: dict) -> dict:
    return {k: (c.real.hex(), c.imag.hex()) for k, c in coeffs.items()}


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
        assert out.w == ExteriorLaurent({}, 10)

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

    @given(st.lists(st.tuples(st.floats(-2, 2), st.integers(1, 12), st.sampled_from([0.0, -1.0]),
                              st.floats(0.05, 0.9), st.floats(0.02, 0.5)),
                    min_size=2, max_size=4),
           st.integers(1, 48))
    @settings(max_examples=50, deadline=None)
    def test_single_cut(self, terms, cutoff):
        # w is never cut: a cutoff at or above its top frequency declares the whole w
        # exact up to it, bit for bit, and one below it is refused
        mu = PiecewiseField(tuple(MonomialTerm.make(c, p, 0, gamma, r, min(r + width, 0.99))
                                  for c, p, gamma, r, width in terms))
        full = order2_field(mu, 10**6).w
        if full.coeffs and cutoff < max(full.coeffs):
            with pytest.raises(ValidationError, match="stored frequency exceeds max_freq"):
                order2_field(mu, cutoff)
        else:
            cut = order2_field(mu, cutoff).w
            assert cut.max_freq == cutoff and bits(cut.coeffs) == bits(full.coeffs)

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_fewer_shells_give_a_prefix_of_w(self, d):
        # the w of J shells is whole below 2 n_(J-1) and is the w of more shells cut
        # there, bit for bit: J against 2J, and the capacity against one shell fewer
        params = ShellParams(d=d, rho0=optimal_rho0(d))
        cap = params.capacity
        for shells, more in ((3, 6), (cap // 2, 2 * (cap // 2)), (cap - 1, cap)):
            fewer, wider = params._replace(shells=shells), params._replace(shells=more)
            cut = 2 * fewer.frequency(shells - 1)
            own = order2_field(build_shell(fewer), cut).w
            wide = order2_field(build_shell(wider), 2 * wider.frequency(more - 1)).w
            assert own.coeffs and bits(own.coeffs) == bits(truncated(wide, cut).coeffs)


class TestOrder2Bound:
    def test_degree16_bound(self):
        # the bound and its stability are the selfcheck entry order2_degree16
        params = ShellParams(d=16, rho0=optimal_rho0(16), n0=15, shells=7)
        report = order2_bound(params)
        assert report.total == pytest.approx(report.first_order + report.second_order)

    def test_degree16_matches_analytic_limit(self):
        # measured 3.9e-11 at seven shells
        params = ShellParams(d=16, rho0=optimal_rho0(16), n0=15, shells=7)
        report = order2_bound(params)
        expected = sigma2_second_order(16, params.rho0)
        assert report.second_order == pytest.approx(expected, rel=1e-9)
        assert abs(report.second_order - expected) <= report.second_order_estimate.error

    @pytest.mark.parametrize("d", [16, 20])
    def test_second_order_matches_the_closed_form(self, d):
        # eight shells at the optimal radius: measured 3.3e-15 (d = 16) and 2.0e-16 (d = 20)
        rho0 = optimal_rho0(d)
        report = order2_bound(ShellParams(d=d, rho0=rho0, shells=8))
        assert abs(report.second_order - sigma2_second_order(d, rho0)) <= 3e-14

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
        # the raw block masses approach their limit as the early-shell deficits wash out
        assert abs(values[-1] - values[-2]) <= 2e-3 * values[-1]
        errors = [abs(v - values[-1]) for v in values]
        assert errors == sorted(errors, reverse=True)

    def test_needs_two_shells(self):
        with pytest.raises(ValidationError):
            order2_bound(ShellParams(d=3, rho0=0.3, shells=1))

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_refine_at_capacity_compares_one_shell_fewer(self, d, monkeypatch):
        # doubling clips back to the capacity there, so J is compared with J - 1, read
        # from the one w of J shells; at d = 2 and 16 both limits agree to the last bit
        params = ShellParams(d=d, rho0=optimal_rho0(d))
        params = params._replace(shells=params.capacity)
        shells = spy_fields(monkeypatch)
        report = order2_bound(params, refine=True)
        assert shells == [(params.capacity, 2 * params.frequency(params.capacity - 1))]
        lower = order2_bound(params._replace(shells=params.capacity - 1))
        assert report.shells_used == params.capacity
        assert report.stability == abs(report.total - lower.total) / abs(report.total)

    def test_second_order_at_capacity_is_converged(self):
        # at d = 3 the last block masses differ by rounding only (up to 10 eps |value|),
        # which the rounding floor of the limit rule supports
        params = ShellParams(d=3, rho0=optimal_rho0(3), shells=10**6)
        est = order2_bound(params).second_order_estimate
        assert est.converged and est.error <= 1e-15 * est.value

    def test_refine_below_capacity_doubles(self):
        params = ShellParams(d=16, rho0=optimal_rho0(16), n0=15, shells=4)
        report = order2_bound(params, refine=True)
        doubled = order2_bound(params._replace(shells=8))
        assert report.stability == abs(doubled.total - report.total) / abs(report.total)

    @pytest.mark.parametrize("d, rho0, shells", [(16, "optimal", 4), (3, 0.05, 5),
                                                 (2, 0.6, 10**6), (20, "optimal", 10**6)])
    def test_refined_report_keeps_the_unrefined_fields(self, d, rho0, shells):
        # below capacity the comparison doubles, at capacity it drops one shell
        params = ShellParams(d=d, rho0=rho0, shells=shells)
        plain, refined = order2_bound(params), order2_bound(params, refine=True)
        assert refined._replace(stability=None) == plain
        eff = params.clipped_to_max_freq()
        other = params._replace(shells=2 * eff.shells)
        if other.clipped_to_max_freq().shells == eff.shells:
            other = eff._replace(shells=eff.shells - 1)
        assert refined.stability == abs(order2_bound(other).total - plain.total) / plain.total

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("shells", [4, 10**6])
    def test_one_field_per_call(self, shells, refine, monkeypatch):
        # the field of the larger shell count, cut where its w is whole: 8 shells at
        # 2 n_7 for a refined run of 4, the capacity at its own cut with or without refine
        params = ShellParams(d=16, rho0=optimal_rho0(16), n0=15, shells=shells)
        calls = spy_fields(monkeypatch)
        order2_bound(params, refine=refine)
        used = 8 if (shells, refine) == (4, True) else params.clipped_to_max_freq().shells
        assert calls == [(used, 2 * params.frequency(used - 1))]

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("d, shells", [(2, 5), (16, 4), (16, 10**6)])
    def test_w_built_and_bucketed_once(self, d, shells, refine, monkeypatch):
        # three series, S(mu), its square and w at the larger cut, and one pass of block
        # masses, whose prefixes give the estimates of both shell counts
        params = ShellParams(d=d, rho0=optimal_rho0(d), shells=shells)
        buckets, built = [], []
        monkeypatch.setattr("bvlab.order2.block_masses",
                            lambda g, blocks: buckets.append(g) or block_masses(g, blocks))
        new = ExteriorLaurent.__new__
        monkeypatch.setattr(ExteriorLaurent, "__new__", staticmethod(
            lambda cls, coeffs, max_freq, ss=None: built.append(max_freq) or new(
                cls, coeffs, max_freq, ss)))
        report = order2_bound(params, refine=refine)
        assert len(buckets) == 1 and buckets[0].self_similarity is None
        assert len(built) == 3 and built.count(buckets[0].max_freq) == 1
        # a refined run below capacity reads its own w at a smaller cut, not rebuilt there
        assert built.count(report.max_freq_used) == (report.max_freq_used == buckets[0].max_freq)

    @pytest.mark.parametrize("d", [2, 3, 16])
    @pytest.mark.parametrize("at_capacity", [False, True])
    def test_compared_estimate_is_the_block_mass_of_the_cut_w(self, d, at_capacity,
                                                              monkeypatch):
        # bit for bit the estimate of the smaller w, cut and given its block structure
        params = ShellParams(d=d, rho0=optimal_rho0(d))
        params = params._replace(shells=params.capacity if at_capacity else 5)
        estimates = []
        monkeypatch.setattr("bvlab.order2.limit_estimate",
                            lambda *args: estimates.append(limit_estimate(*args)) or estimates[-1])
        report = order2_bound(params, refine=True)
        counts = [params.capacity, params.capacity - 1] if at_capacity else [5, 10]
        cuts = [2 * params.frequency(j - 1) for j in counts]
        w = order2_field(build_shell(params._replace(shells=max(counts))), max(cuts)).w
        w = w._replace(self_similarity=SelfSimilarity(d, params.n0))
        expected = [variance_block_mass(w if cut == max(cuts) else truncated(w, cut))
                    for cut in cuts]
        assert [repr(e.to_doc()) for e in estimates] == [repr(e.to_doc()) for e in expected]
        assert report.second_order_estimate == estimates[0]

    @pytest.mark.parametrize("rho0", [1e-12, 1e-30])
    def test_small_radius_is_resolved(self, rho0):
        # 2 (1e-12) or all 36 (1e-30) coefficients of w lie below 1e-14, and none is dropped:
        # w keeps all J (J + 1) / 2 = 36, the smallest 3.9e-15 (1e-12) and 3.9e-33 (1e-30)
        params = ShellParams(d=2, rho0=rho0, shells=8)
        report = order2_bound(params, refine=True)
        miss = abs(report.second_order - sigma2_second_order(2, rho0))
        w = order2_field(build_shell(params), report.max_freq_used).w
        small = sum(abs(c) < 1e-14 for c in w.coeffs.values())
        assert len(w.coeffs) == 36 and small == (2 if rho0 == 1e-12 else 36)
        assert miss <= min(1e-13, report.second_order_estimate.error)

    def test_refine_at_a_capacity_of_two_shells(self):
        # n_0 = 2^31 - 1 and n_1 = 2^62 - 2^31 fit under 2^62, and n_2 does not
        params = ShellParams(d=2**31, rho0=0.3, n0=2**31 - 1, shells=2)
        assert params.capacity == 2
        assert order2_bound(params).shells_used == 2
        assert order2_bound(params._replace(shells=10)).shells_used == 2
        with pytest.raises(ValidationError, match="at least three shells"):
            order2_bound(params, refine=True)


class TestReferee:
    """The block masses and their limit against a 50-digit rebuild of w from its
    definitions (oracles.mp_order2_w), near shell capacity (d = 16, 20) and at it (d = 2)."""

    CASES = [(d, shells, rho0) for d, shells in ((16, 14), (20, 13), (2, 61))
             for rho0 in ("optimal", 0.05, 0.6)]

    @pytest.mark.parametrize("d, shells, rho0", CASES)
    def test_block_masses(self, d, shells, rho0):
        # measured worst 6.3e-15 (d = 16 at 0.05); the first block of d = 2 is empty
        params = ShellParams(d=d, rho0=rho0, shells=shells)
        report = order2_bound(params)
        assert report.shells_used == shells
        masses = [v for _, v in report.second_order_estimate.diagnostics]
        reference = mp_order2_block_masses(params)
        assert len(masses) == len(reference) == (shells if d == 2 else shells - 1)
        assert all(abs(m - r) <= 1e-14 * r for m, r in zip(masses, reference))

    @pytest.mark.parametrize("d, shells, rho0", CASES)
    def test_limit_is_the_closed_form(self, d, shells, rho0):
        # the Richardson limit of the referee's masses at 50 digits; measured worst
        # 1.1e-15 (d = 2 at 0.6), the rounding of the float closed form
        params = ShellParams(d=d, rho0=rho0, shells=shells)
        reference = mp_order2_block_masses(params)
        with mpmath.workdps(50):
            limit = reference[-1] + (reference[-1] - reference[-2]) / (d - 1)
            miss = abs(limit - sigma2_second_order(d, params.rho0)) / limit
        assert miss <= 2e-15


class TestParameterSearch:
    def test_leaderboard_sorted_and_contains_reference_point(self):
        grid = shell_grid([12, 16, 20], ["optimal"], [None], shells=6)
        best, board = parameter_search(grid)
        totals = [r.total for r in board]
        assert totals == sorted(totals, reverse=True)
        assert best.params.d == 16
        assert best.total >= 0.893 - 0.002

    def test_single_point_grid(self):
        grid = shell_grid([4], [0.3], [None], shells=6)
        best, board = parameter_search(grid)
        assert len(board) == 1 and best is board[0]
        assert best.params.d == 4 and best.params.rho0 == 0.3

    def test_first_frequency_choices_converge_to_same_limit(self):
        # the limiting second-order mass does not depend on the first shell
        # frequency; finite truncations differ only in their diagnostics
        base = ShellParams(d=16, rho0=optimal_rho0(16), n0=15, shells=7)
        other = base._replace(n0=31)
        r1 = order2_bound(base)
        r2 = order2_bound(other)
        assert r1.second_order == pytest.approx(r2.second_order, rel=5e-3)
