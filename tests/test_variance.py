"""Variance estimators against closed forms, quadrature and one another."""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvlab.annular import beurling_exterior
from bvlab.constructions import (ShellParams, random_unit_shell_field,
                                 shell_beurling_series, shell_cauchy_series,
                                 shell_moduli)
from bvlab.errors import FREQ_CAP, UnresolvedScaleError, ValidationError
from bvlab.formulas import optimal_rho0, sigma2_optimal, sigma2_shell
from bvlab.laurent import ExteriorLaurent, SelfSimilarity
from bvlab.variance import (CESARO_R0_MAX, MAX_MEANS_WORK, MAX_POINTS, ROUNDING_FLOOR,
                            TOLERANCE, _radial_fourth_order_integral, block_masses, block_need,
                            cesaro_sigma4, curve_slope, growth_slope, integral_means,
                            integral_means_log, limit_estimate, means_curve,
                            resolving_freq, variance_block, variance_block_mass,
                            variance_lacunary)
from oracles import (angular_mean_square, bloch_seminorm, derivative, mp_radial_fourth_order,
                     truncated)

LOG2 = math.log(2.0)


def laurent_eval_array(g: ExteriorLaurent):
    def f(z):
        out = np.zeros(z.shape, dtype=complex)
        for k in sorted(g.coeffs):
            out += g.coeffs[k] * z ** (-k)
        return out
    return f


class TestIntegralMeans:
    def test_single_term(self):
        g = ExteriorLaurent({1: 1.0}, 1)
        for R in (1.001, 1.5, 4.0):
            assert integral_means(g, R) == pytest.approx(R**-2, rel=1e-15)

    def test_lacunary_against_angular_quadrature(self):
        # frequencies <= 1500 keep the 4096-point rule alias-free
        g = ExteriorLaurent({2**n: 1.0 for n in range(11)}, 1024)
        exact = integral_means(g, 1.001)
        quad = angular_mean_square(laurent_eval_array(g), 1.001)
        assert abs(exact - quad) <= 1e-8

    def test_deep_lacunary_at_resolved_scale(self):
        g = ExteriorLaurent({2**n: 1.0 for n in range(31)}, 2**31)
        exact = integral_means(g, 1.01)
        quad = angular_mean_square(laurent_eval_array(g), 1.01)
        assert abs(exact - quad) <= 1e-8

    def test_orthogonality_exactness_random_series(self, rng):
        # the 4096-point rule is alias-free for frequencies <= 1500
        for _ in range(6):
            freqs = rng.choice(np.arange(1, 1501), size=12, replace=False)
            g = ExteriorLaurent(
                {int(k): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for k in freqs}, 1500)
            for R in (1.001, 1.05, 1.7):
                exact = integral_means(g, R)
                quad = angular_mean_square(laurent_eval_array(g), R)
                assert abs(exact - quad) <= 1e-8

    def test_monotone_decreasing_in_R(self):
        g = ExteriorLaurent({1: 1.0, 3: 0.5, 9: 2.0}, 9)
        values = [integral_means(g, R) for R in (1.01, 1.1, 1.5, 2.0, 5.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_shell_ratio_trend(self):
        # the raw ratio approaches the variance only logarithmically; check the
        # trend and the matching fitted slope at desk scale
        params = ShellParams(d=2, rho0=0.25, shells=32)
        g = shell_beurling_series(params)
        ratios = []
        for exponent in (3, 5, 8):
            x = 10.0**-exponent
            ratios.append(integral_means(g, 1.0 + x) / math.log(1.0 / x))
        target = sigma2_shell(2, 0.25)
        errors = [abs(r - target) for r in ratios]
        assert errors == sorted(errors, reverse=True)
        # the raw ratio carries an O(1/log) edge deficit; 15% at R - 1 = 1e-8
        assert errors[-1] <= 0.2 * target
        slope = growth_slope(g, 1 + 1e-8, 1 + 1e-3, 40)
        assert slope == pytest.approx(target, abs=5e-3)


class TestLacunaryVariance:
    def test_unit_coefficients(self):
        est = variance_lacunary([1.0] * 128, 2)
        assert est.value == pytest.approx(1.0 / LOG2, abs=1e-14)
        assert est.value == est.diagnostics[-1][1]
        assert est.converged

    def test_shell_coefficients_d20(self):
        params = ShellParams(d=20, rho0=optimal_rho0(20), shells=10)
        est = variance_lacunary(shell_moduli(params, 2000), 20)
        assert est.value == pytest.approx(0.8791, abs=1e-4)

    def test_empty(self):
        # no moduli means no estimate: a value of 0 would claim convergence
        with pytest.raises(ValidationError):
            variance_lacunary([], 2)
        with pytest.raises(ValidationError):
            shell_moduli(ShellParams(d=3, rho0=0.2), 0)

    def test_non_convergent_sequence_flagged(self):
        # squared moduli alternate between long runs of 0 and 1, so the Cesaro
        # means oscillate; the estimator reports its best value unconverged
        moduli = []
        for k in range(9):
            moduli.extend([float(k % 2)] * 2**k)
        est = variance_lacunary(moduli, 2)
        assert not est.converged
        assert 0.0 < est.value < 1.0 / LOG2


class TestLimitEstimate:
    @given(st.floats(-10, 10), st.floats(-10, 10), st.integers(2, 64), st.integers(2, 24))
    @settings(max_examples=200, deadline=None)
    def test_recovers_the_limit_of_a_geometric_sequence(self, limit, c, d, n):
        r = 1.0 / d
        values = [limit + c * r**l for l in range(n)]
        est = limit_estimate(values, r, "geometric")
        # the rounding of the last two values, at most twice amplified, and of the sum
        assert abs(est.value - limit) <= 4 * sys.float_info.epsilon * (
            abs(limit) + abs(c) * r ** (n - 2))
        assert est.diagnostics == tuple(enumerate(values))

    def test_supported_ratio_converges(self):
        est = limit_estimate([1.0 + 1e-6 * 0.5**l for l in range(6)], 0.5, "geometric")
        assert est.converged and est.error == pytest.approx(1e-6 * 0.5**5)

    @pytest.mark.parametrize("values", [
        [1.0 + 1e-6 * 0.9**l for l in range(6)],   # shrinks by 0.9, not by 1/2
        [1.0 + 1e-6 * (-0.5)**l for l in range(6)],  # alternates
        [1.0 + 4.3e-10, 1.0 + 2.2e-10, 1.0 - 6.2e-9],  # the last value breaks the pattern
    ])
    def test_disagreeing_ratio_is_not_converged(self, values):
        est = limit_estimate(values, 0.5, "geometric")
        assert est.error <= TOLERANCE * est.value  # small, but not supported
        assert not est.converged

    def test_rounding_noise_is_supported(self):
        # differences of a few ulps have no ratio to test; at the floor they count as
        # converged, just past it they must show the ratio
        eps = sys.float_info.epsilon
        noise = [1.0, 1.0 + 10 * eps, 1.0 - 10 * eps]
        assert limit_estimate(noise, 1 / 3, "rounding").converged
        for factor, converged in ((ROUNDING_FLOOR, True), (2 * ROUNDING_FLOOR, False)):
            values = [1.0, 1.0 + 10 * eps, 1.0 + 10 * eps + factor]
            assert limit_estimate(values, 1 / 3, "floor").converged == converged

    def test_one_or_two_values_are_not_converged(self):
        one = limit_estimate([1.0], 0.5, "short")
        assert (one.value, one.error, one.converged) == (1.0, None, False)
        two = limit_estimate([1.0, 1.0], 0.5, "short")
        assert (two.value, two.error, two.converged) == (1.0, 0.0, False)


@pytest.mark.parametrize("d", [2, 3, 4, 8, 12, 16, 20, 32])
def test_converged_estimates_on_the_sweep_grid_are_within_tolerance(d):
    # the grid of scripts/variance_method_sweep.py; a converged estimate also lies
    # within its error of the closed form, up to the rounding of both
    params = ShellParams(d=d, rho0=optimal_rho0(d), shells=22 if d == 2 else 12)
    g = shell_beurling_series(params)
    target = sigma2_optimal(d)
    for est in (variance_lacunary(shell_moduli(params, 2000), d),
                variance_block(g, d, 1.5, 14 if d == 2 else 8),
                variance_block_mass(g),
                cesaro_sigma4(shell_cauchy_series(params), 1.5, d)):
        if est.converged:
            miss = abs(est.value - target)
            assert miss <= TOLERANCE * target, est.method
            assert miss <= est.error + 4 * sys.float_info.epsilon * target, est.method


class TestBlockVariance:
    def test_shell_d2_example(self):
        params = ShellParams(d=2, rho0=0.25, shells=20)
        g = shell_beurling_series(params)
        est = variance_block(g, 2, 1.1, 8)
        assert est.value == pytest.approx(0.3607, abs=5e-3)
        # one step past the last raw increment, within the error it reports, and
        # closer than the tail average of Aitken values, 0.3630796850889242
        error = abs(est.value - sigma2_shell(2, 0.25))
        assert error < abs(est.diagnostics[-1][1] - sigma2_shell(2, 0.25))
        assert error < abs(0.3630796850889242 - sigma2_shell(2, 0.25))
        assert error <= est.error

    def test_unit_lacunary(self):
        g = ExteriorLaurent({2**n: 1.0 for n in range(20)}, 2**20,
                            SelfSimilarity(2, 1))
        est = variance_block(g, 2, 1.1, 8)
        assert est.value == pytest.approx(1.0 / LOG2, abs=1e-2)

    def test_finite_series_estimates_zero(self):
        g = ExteriorLaurent({3: 1.0, 7: 0.5}, 10**9)
        est = variance_block(g, 2, 1.5, 12)
        assert abs(est.value) <= 5e-3

    def test_unresolved_scale(self):
        g = ExteriorLaurent({2**n: 1.0 for n in range(8)}, 2**8)
        with pytest.raises(UnresolvedScaleError):
            variance_block(g, 2, 1.1, 12)


class TestBlockMass:
    def test_shell_masses(self):
        params = ShellParams(d=3, rho0=0.1, shells=12)
        g = shell_beurling_series(params)
        est = variance_block_mass(g)
        delta = 0.1 ** (1 / 3) - 0.1
        limit = 4.0 * delta * delta
        # the last block mass carries the (1 - 1/n)^2 factor of its shell
        n_last = params.frequency(11)
        raw_masses = [abs(g.coeffs[params.frequency(j)]) ** 2 for j in range(12)]
        assert raw_masses[-1] == pytest.approx(limit * (1 - 1 / n_last) ** 2, rel=1e-12)
        # the step removes the O(1/n) deficits of the shells (measured 2.4e-11)
        assert est.value == pytest.approx(sigma2_shell(3, 0.1), rel=1e-9)
        assert est.converged

    def test_requires_metadata(self):
        g = ExteriorLaurent({4: 1.0}, 8)
        with pytest.raises(ValidationError):
            variance_block_mass(g)

    def test_empty_series(self):
        g = ExteriorLaurent({}, 64, SelfSimilarity(2, 2))
        assert variance_block_mass(g).value == 0.0

    @pytest.mark.parametrize("max_freq, blocks", [(14, 2), (15, 3), (16, 3)])
    def test_block_ending_at_the_cutoff(self, max_freq, blocks):
        # [8, 16) is complete when its upper edge 16 is at most max_freq + 1
        g = ExteriorLaurent({2: 1.0, 4: 1.0, 8: 1.0}, max_freq, SelfSimilarity(2, 2))
        assert len(variance_block_mass(g).diagnostics) == blocks

    @given(st.dictionaries(st.integers(1, 3000), st.complex_numbers(
               max_magnitude=1e3, allow_nan=False, allow_infinity=False), max_size=60),
           st.integers(2, 5), st.integers(1, 4), st.integers(1, 3000))
    @settings(max_examples=60, deadline=None)
    def test_masses_below_a_smaller_cutoff_are_a_prefix(self, coeffs, base, first, cut):
        # order2_bound reads the estimate of each shell count from one list of masses
        blocks = SelfSimilarity(base, first)
        g = ExteriorLaurent(coeffs, 3000)
        complete = len(blocks.block_edges(cut + 1)) - 1
        if complete < 1:
            with pytest.raises(UnresolvedScaleError):
                block_masses(truncated(g, cut), blocks)
            return
        assert block_masses(truncated(g, cut), blocks) == block_masses(g, blocks)[:complete]
        own = variance_block_mass(truncated(g, cut)._replace(self_similarity=blocks))
        assert own == limit_estimate(block_masses(g, blocks)[:complete], 1 / base, "block_mass")


class TestCoefficientOrder:
    """The estimators sum with fsum, so the order of the coefficient dict is immaterial."""

    @given(st.dictionaries(st.integers(1, 4000),
                           st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                              allow_infinity=False), min_size=1, max_size=60),
           st.randoms(use_true_random=False), st.floats(1e-6, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_shuffled_coefficients(self, coeffs, rnd, log_R):
        items = sorted(coeffs.items())
        shuffled = rnd.sample(items, len(items))
        ss = SelfSimilarity(2, 1)
        g, h = ExteriorLaurent(items, 4000, ss), ExteriorLaurent(shuffled, 4000, ss)
        assert integral_means_log(h, log_R) == integral_means_log(g, log_R)
        assert variance_block_mass(h) == variance_block_mass(g)


class TestCesaro:
    def test_lacunary_matches_variance(self):
        # v with v' = unit-coefficient lacunary series, sigma^2 = 1/log 2
        v = ExteriorLaurent({2**n - 1: -1.0 / (2**n - 1) for n in range(1, 22)},
                            2**22)
        est = cesaro_sigma4(v, 1.5, 2)
        assert est.value == pytest.approx(1.0 / LOG2, rel=0.02)

    def test_zero_field(self):
        v = ExteriorLaurent({}, 2**20)
        assert cesaro_sigma4(v, 1.5, 2).value == 0.0

    def test_shell_d20(self):
        params = ShellParams(d=20, rho0=optimal_rho0(20), shells=10)
        est = cesaro_sigma4(shell_cauchy_series(params), 1.5, 20)
        assert est.value == pytest.approx(0.879, abs=1e-2)

    def test_unresolved(self):
        v = ExteriorLaurent({3: 1.0}, 4)
        with pytest.raises(UnresolvedScaleError):
            cesaro_sigma4(v, 1.5, 2)

    def test_deepest_annulus_is_resolved_for_the_third_derivative(self):
        # at 10/(R - 1) the deepest annulus of the d = 2 sweep series was under-resolved
        # for |v'''|^2: its raw error jumped from 2.2e-10 to -6.2e-9
        params = ShellParams(d=2, rho0=optimal_rho0(2), shells=22)
        est = cesaro_sigma4(shell_cauchy_series(params), 1.5, 2)
        assert est.converged and abs(est.value - sigma2_optimal(2)) <= est.error


@pytest.mark.parametrize("order", [0, 3])
def test_resolving_freq_is_where_the_weight_falls_to_e_minus_20(order):
    # the weight m^(2n) R^(-2m), in y = 2m(R - 1), against its peak at y = 2n
    y = 2 * resolving_freq(0.01, order) * 0.01
    assert y > 2 * order
    log_share = 2 * order * math.log(y / (2 * order)) - (y - 2 * order) if order else -y
    assert log_share == pytest.approx(-20.0, abs=1e-12)
    assert resolving_freq(0.01) == 10.0 / 0.01


def test_block_need_rejects_exactly_the_counts_past_the_capacity():
    # 1.5^(1/2^58) needs a cutoff of 7.1e18 and 1.5^(1/2^59) one of 1.4e19, past 2^63 - 1
    assert block_need(1.5, 2, 58) == resolving_freq(math.expm1(math.log(1.5) / 2**58))
    assert 2**62 < block_need(1.5, 2, 58) <= FREQ_CAP
    for blocks in (59, 10**6):
        with pytest.raises(ValidationError, match=f"{blocks} blocks"):
            block_need(1.5, 2, blocks)


def _resolved_annuli(v: ExteriorLaurent, R0: float, d: int) -> list[tuple[float, float]]:
    """(log r_lo, log r_hi) of every annulus that cesaro_sigma4 resolves."""
    out = []
    log_hi = math.log(R0)
    while resolving_freq(math.expm1(log_hi / d), 3) <= v.max_freq:
        out.append((log_hi / d, log_hi))
        log_hi /= d
    return out


class TestRadialClosedForm:
    """The closed form against an independent 30-digit quadrature in log x."""

    @staticmethod
    def check_shallowest_and_deepest_annulus(v: ExteriorLaurent, d: int,
                                             R0: float = 1.5) -> None:
        mass = {k: abs(c) ** 2 for k, c in derivative(v, 3).coeffs.items()}
        annuli = _resolved_annuli(v, R0, d)
        assert len(annuli) == len(cesaro_sigma4(v, R0, d).diagnostics)
        for log_lo, log_hi in (annuli[0], annuli[-1]):
            ref = mp_radial_fourth_order(mass, log_lo, log_hi)
            got = _radial_fourth_order_integral(mass, log_lo, log_hi)
            assert got == pytest.approx(ref, rel=1e-13, abs=0)

    @pytest.mark.parametrize("d", [2, 3, 16, 20])
    def test_shell_series(self, d):
        params = ShellParams(d=d, rho0=optimal_rho0(d), shells=22 if d == 2 else 12)
        self.check_shallowest_and_deepest_annulus(shell_cauchy_series(params), d)

    @pytest.mark.parametrize("d", [2, 3, 16, 20])
    def test_shell_series_at_the_r0_cap(self, d):
        # the shallowest annulus spans x from R0^(2/d) - 1 to R0^2 - 1, the
        # largest finite range any admitted R0 gives
        params = ShellParams(d=d, rho0=optimal_rho0(d), shells=22 if d == 2 else 12)
        self.check_shallowest_and_deepest_annulus(shell_cauchy_series(params), d,
                                                  CESARO_R0_MAX)

    def test_lowest_frequency_both_branches(self):
        # third derivative -6 z^-4: the logarithmic antiderivative on the
        # shallowest annulus (4 t > 2), the head series on the deepest
        self.check_shallowest_and_deepest_annulus(ExteriorLaurent({1: 1.0}, 2**20), 2)

    @pytest.mark.parametrize("m", [4, 5, 1000])
    @pytest.mark.parametrize("z", [1.99, 2.01])
    def test_single_frequency_at_the_branch_switch(self, m, z):
        # m t = z at r_hi: just below 2 the head series takes its most terms,
        # just above the tails cancel the most
        log_hi = -0.5 * math.log1p(-z / m)
        mass = {m: 1.0}
        ref = mp_radial_fourth_order(mass, log_hi / 2, log_hi)
        got = _radial_fourth_order_integral(mass, log_hi / 2, log_hi)
        assert got == pytest.approx(ref, rel=1e-13, abs=0)


class TestThirdDerivative:
    def test_hyperbolic_ratio_bound_for_shell_fields(self):
        # |v'''| (|z|^2-1)^2 / 4 <= 3/2 for transforms of unit coefficients
        params = ShellParams(d=4, rho0=optimal_rho0(4), shells=12)
        v3 = derivative(shell_cauchy_series(params), 3)
        worst = 0.0
        for i in range(10):
            R = 1.0 + 10.0 ** (-0.4 * i)
            for j in range(10):
                z = R * complex(math.cos(0.63 * j), math.sin(0.63 * j))
                ratio = abs(v3.eval(z)) * (R * R - 1.0) ** 2 / 4.0
                worst = max(worst, ratio)
        assert worst <= 1.5 + 1e-9


class TestGrowthSlope:
    def test_shell_d20(self):
        params = ShellParams(d=20, rho0=optimal_rho0(20), shells=8)
        g = shell_beurling_series(params)
        slope = growth_slope(g, 1 + 1e-5, 1 + 1e-2, 40)
        assert slope <= 1.0
        assert slope == pytest.approx(0.879, abs=0.02)

    def test_finite_series_slope_vanishes(self):
        g = ExteriorLaurent({2: 1.0}, 10**9)
        assert abs(growth_slope(g, 1 + 1e-6, 1 + 1e-3, 30)) <= 1e-3

    def test_unit_lacunary_exceeds_one(self):
        # not the transform of a unit-bounded coefficient: slope ~ 1.44
        g = ExteriorLaurent({2**n: 1.0 for n in range(26)}, 2**26)
        slope = growth_slope(g, 1 + 1e-5, 1 + 1e-2, 40)
        assert slope == pytest.approx(1.0 / LOG2, abs=0.05)


    @pytest.mark.parametrize("r_lo, r_hi, n_pts", [(0.0, 1e-3, 10), (1e-3, 1e-3, 10),
                                                   (1e-3, 1e-8, 10), (1e-8, 1e-3, 1)])
    def test_grid_needs_ordered_positive_ends(self, r_lo, r_hi, n_pts):
        g = ExteriorLaurent({2: 1.0}, 10**9)
        with pytest.raises(ValidationError):
            means_curve(g, r_lo, r_hi, n_pts)
        with pytest.raises(ValidationError):
            growth_slope(g, 1.0 + r_lo, 1.0 + r_hi, n_pts)

    @pytest.mark.parametrize("edge, past", [
        ((2.0**-52, 0.5, 40), (2.0**-53, 0.5, 40)),  # 1 + 2^-53 rounds to 1
        ((1e-6, math.nextafter(1.0, 0.0), 40), (1e-6, 1.0, 40)),
        ((1e-6, 0.5, MAX_POINTS), (1e-6, 0.5, MAX_POINTS + 1)),
    ], ids=["r_lo", "r_hi", "points"])
    def test_grid_bound_at_its_edge(self, edge, past):
        # the means-curve command's rule, worded with its flags
        g = ExteriorLaurent({2: 1.0}, 10**9)
        assert len(means_curve(g, *edge)) == edge[2]
        with pytest.raises(ValidationError, match=r"need 1 \+ r_min > 1"):
            means_curve(g, *past)

    @pytest.mark.parametrize("past", [False, True], ids=["edge", "past"])
    def test_work_bound_at_its_edge(self, past, monkeypatch):
        # points x stored coefficients is checked before the first mean; the means are
        # stubbed, so the edge costs nothing
        g = ExteriorLaurent({k: 1.0 for k in range(1, 1001)}, 1000)
        n_pts = MAX_MEANS_WORK // 1000 + past
        calls = []
        monkeypatch.setattr("bvlab.variance.integral_means_log",
                            lambda g, log_r: calls.append(log_r) or 1.0)
        if past:
            with pytest.raises(ValidationError, match="points x coefficients of the series"):
                means_curve(g, 1e-6, 0.5, n_pts)
            assert calls == []
        else:
            assert len(means_curve(g, 1e-6, 0.5, n_pts)) == len(calls) == n_pts

    def test_slope_of_the_curve(self):
        # the curve runs from r_hi down to r_lo, and growth_slope is the fit over it
        g = shell_beurling_series(ShellParams(d=2, rho0=0.25, shells=30))
        curve = means_curve(g, 1e-8, 1e-3, 40)
        assert curve[0][0] == pytest.approx(1e-3, rel=1e-15)
        assert curve[-1][0] == pytest.approx(1e-8, rel=1e-15)
        assert all(m == integral_means_log(g, math.log1p(x)) for x, m in curve)
        assert growth_slope(g, 1 + 1e-8, 1 + 1e-3, 40) == curve_slope(
            means_curve(g, (1 + 1e-8) - 1, (1 + 1e-3) - 1, 40))


class TestSeminormAndBounds:
    def test_single_term_seminorm(self):
        g = ExteriorLaurent({1: 1.0}, 1)
        s = bloch_seminorm(g)
        assert 0.999 <= s <= 1.0

    def test_variance_below_squared_seminorm(self):
        params = ShellParams(d=2, rho0=0.25, shells=18)
        g = shell_beurling_series(params)
        s = bloch_seminorm(g)
        var = variance_block_mass(g).value
        assert var <= s * s + 1e-12
        assert s >= math.sqrt(var)

    def test_variance_below_squared_seminorm_more_series(self, rng):
        lacunary = ExteriorLaurent({2**n: 1.0 for n in range(20)}, 2**20,
                                   SelfSimilarity(2, 1))
        series = [lacunary]
        for _ in range(3):
            mu = random_unit_shell_field(rng)
            series.append(truncated(beurling_exterior(mu), 10**7))
        for g in series:
            s = bloch_seminorm(g)
            var = variance_block(g, 2, 1.2, 8).value
            assert var <= s * s + 1e-9

    def test_apriori_bound_on_random_transforms(self, rng):
        # no transform of a unit-bounded coefficient has variance above 6
        for _ in range(8):
            mu = random_unit_shell_field(rng)
            g = truncated(beurling_exterior(mu), 10**7)
            ss = SelfSimilarity(2, max(min(g.frequencies(), default=2), 1))
            est = variance_block_mass(ExteriorLaurent(g.coeffs, g.max_freq, ss))
            assert est.value <= 6.0
