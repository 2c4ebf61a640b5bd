"""Variance estimators against closed forms, quadrature and one another."""
import math

import numpy as np
import pytest

from bvlab.annular import beurling_exterior
from bvlab.constructions import (ShellParams, random_unit_shell_field,
                                 shell_beurling_series, shell_cauchy_series,
                                 shell_moduli)
from bvlab.errors import UnresolvedScaleError, ValidationError
from bvlab.formulas import optimal_rho0, sigma2_shell
from bvlab.laurent import ExteriorLaurent, SelfSimilarity
from bvlab.variance import (CESARO_R0_MAX, _radial_fourth_order_integral, bloch_seminorm,
                            cesaro_sigma4, growth_slope,
                            integral_means, linspace,
                            variance_block, variance_block_mass,
                            variance_lacunary)
from oracles import angular_mean_square, mp_radial_fourth_order

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


class TestBlockVariance:
    def test_shell_d2_example(self):
        params = ShellParams(d=2, rho0=0.25, shells=20)
        g = shell_beurling_series(params)
        est = variance_block(g, 2, 1.1, 8)
        assert est.value == pytest.approx(0.3607, abs=5e-3)
        assert est.value == est.diagnostics[-1][1]

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
        # the tail average keeps the O(1/n) deficits of its shells
        assert est.value == pytest.approx(sigma2_shell(3, 0.1), rel=1e-3)

    def test_requires_metadata(self):
        g = ExteriorLaurent({4: 1.0}, 8)
        with pytest.raises(ValidationError):
            variance_block_mass(g)

    def test_empty_series(self):
        g = ExteriorLaurent({}, 64, SelfSimilarity(2, 2))
        assert variance_block_mass(g).value == 0.0


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


def _resolved_annuli(v: ExteriorLaurent, R0: float, d: int) -> list[tuple[float, float]]:
    """(log r_lo, log r_hi) of every annulus that cesaro_sigma4 resolves."""
    out = []
    log_hi = math.log(R0)
    while 10.0 / math.expm1(log_hi / d) <= v.max_freq:
        out.append((log_hi / d, log_hi))
        log_hi /= d
    return out


class TestRadialClosedForm:
    """The closed form against an independent 30-digit quadrature in log x."""

    @staticmethod
    def check_shallowest_and_deepest_annulus(v: ExteriorLaurent, d: int,
                                             R0: float = 1.5) -> None:
        mass = {k: abs(c) ** 2 for k, c in v.third_derivative().coeffs.items()}
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
        v3 = shell_cauchy_series(params).third_derivative()
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


class TestLinspace:
    @pytest.mark.parametrize("start, stop, num", [
        (math.log(1e-4), math.log(40.0), 60),   # bloch_seminorm's radii
        (0.01, 0.99, 197),                      # selfcheck's rho0 grid
    ])
    def test_bit_equal_to_numpy(self, start, stop, num):
        assert linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


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
            series.append(beurling_exterior(mu).truncated(10**7))
        for g in series:
            s = bloch_seminorm(g)
            var = variance_block(g, 2, 1.2, 8).value
            assert var <= s * s + 1e-9

    def test_apriori_bound_on_random_transforms(self, rng):
        # no transform of a unit-bounded coefficient has variance above 6
        for _ in range(8):
            mu = random_unit_shell_field(rng)
            g = beurling_exterior(mu).truncated(10**7)
            ss = SelfSimilarity(2, max(min(g.frequencies(), default=2), 1))
            est = variance_block_mass(ExteriorLaurent(g.coeffs, g.max_freq, ss))
            assert est.value <= 6.0
