"""Closed-form bounds and dimension formulas, cross-validated numerically."""
import math

import mpmath
import numpy as np
import pytest

from bvlab import formulas
from bvlab.errors import FREQ_CAP, ValidationError
from bvlab.formulas import (best_integer_degree, best_real_degree, distortion_constant,
                            julia_dim_k, julia_dim_t, lambda_lemma_coeff,
                            optimal_rho0, pointwise_sigma_bound, sigma2_optimal,
                            sigma2_shell, smirnov_dim_k, smirnov_dim_t, table2,
                            truncate_display)

TABLE2_EXPECTED = {
    2: ("0.3606", "0.3606"),
    3: ("0.4045", "0.5394"),
    4: ("0.4057", "0.6441"),
    20: ("0.3012", "0.8791"),
}


class TestShellVariance:
    def test_degree2_value(self):
        assert sigma2_shell(2, 0.25) == pytest.approx(0.360674, abs=5e-7)

    def test_vanishes_at_endpoints(self):
        # delta ~ rho0^(1/d) near 0 and ~ (1 - rho0) near 1
        assert sigma2_shell(5, 1e-30) <= 1e-11
        assert sigma2_shell(5, 1 - 1e-9) <= 1e-17
        decreasing = [sigma2_shell(5, 10.0**-e) for e in (4, 8, 12, 16)]
        assert decreasing == sorted(decreasing, reverse=True)

    def test_optimal_radius_values(self):
        assert optimal_rho0(2) == pytest.approx(0.25)
        d = 16
        expected = 4 * 16 ** (-2 / 15) * 225 / (256 * math.log(16))
        assert sigma2_shell(d, optimal_rho0(d)) == pytest.approx(expected, rel=1e-14)

    def test_optimal_radius_against_50_digit_maximization(self):
        # the root of the numerical derivative of the shell variance in rho0, bracketed
        # away from the zeros of the variance at 0 and 1
        for d in (2, 3, 7.5, 20):
            with mpmath.workdps(50):
                f = lambda r: 4 * (r ** (1 / mpmath.mpf(d)) - r) ** 2 / mpmath.log(d)
                x = mpmath.findroot(lambda r: mpmath.diff(f, r), (1e-3, 0.9),
                                    solver="illinois")
                fx = f(x)
            assert optimal_rho0(d) == pytest.approx(float(x), rel=1e-15, abs=0)
            assert sigma2_shell(d, optimal_rho0(d)) == pytest.approx(float(fx), rel=1e-15)

    def test_argmax_property(self, rng):
        d = 11
        best = sigma2_shell(d, optimal_rho0(d))
        for rho in rng.uniform(1e-6, 1 - 1e-6, 1000):
            assert sigma2_shell(d, float(rho)) <= best + 1e-15

    def test_sigma2_optimal_is_substitution(self):
        for d in (2, 3, 4, 16, 20, 37.5):
            assert sigma2_optimal(d) == pytest.approx(
                sigma2_shell(d, optimal_rho0(d)), rel=1e-14)


class TestDegreeOptimizers:
    def test_integer_argmax(self):
        # the floor or ceiling of the real maximizer equals a full scan
        for d_min in range(2, 81):
            best = (d_min, sigma2_optimal(d_min))
            for d_max in range(d_min, 81):
                if sigma2_optimal(d_max) > best[1]:
                    best = (d_max, sigma2_optimal(d_max))
                assert best_integer_degree(d_min, d_max) == best

    def test_monotone_beyond_argmax(self):
        values = [sigma2_optimal(d) for d in range(20, 65)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_single_degree(self):
        assert best_integer_degree(2, 2) == (2, pytest.approx(0.3607, abs=1e-4))

    def test_real_argmax(self):
        d, value = best_real_degree()
        assert 19 < d < 21
        # derivative changes sign at the maximizer
        h = 1e-3
        assert sigma2_optimal(d + h) < value and sigma2_optimal(d - h) < value
        assert value >= sigma2_optimal(20)

    def test_real_argmax_far_from_zero_terminates(self):
        # a range above the maximizer reports its lower end, exactly
        assert best_real_degree(1e17, 2e17) == (1e17, sigma2_optimal(1e17))

    def test_stationary_degree_is_the_50_digit_root(self):
        # d/dd log sigma2_optimal = 2 log d/(d-1)^2 - 1/(d log d) vanishes where
        # 2 d (log d)^2 = (d-1)^2; the maximizer of sigma2_optimal itself agrees
        with mpmath.workdps(50):
            root = mpmath.findroot(lambda d: 2 * d * mpmath.log(d) ** 2 - (d - 1) ** 2, 19)
            objective = lambda d: (4 * d ** (2 / (1 - d)) * (d - 1) ** 2
                                   / (d * d * mpmath.log(d)))
            argmax = mpmath.findroot(lambda d: mpmath.diff(objective, d), 19)
        assert formulas.D_STAR == float(root) == float(argmax)

    def test_real_range_reports_the_clamped_stationary_degree(self):
        for a in range(2, 81):
            for b in range(a, 81):
                d, value = best_real_degree(a, b)
                assert a <= d <= b
                if a > formulas.D_STAR:
                    assert d == a
                if b < formulas.D_STAR:
                    assert d == b
                assert value >= best_integer_degree(a, b)[1]

    @pytest.mark.parametrize("lo, hi", [(2, 64), (2, FREQ_CAP), (19, 20), (19.7, 19.8),
                                        (1.0000001, 1e300), (formulas.D_STAR, 64),
                                        (2, formulas.D_STAR)])
    def test_every_range_holding_the_maximizer_reports_it(self, lo, hi):
        assert best_real_degree(lo, hi) == (formulas.D_STAR, sigma2_optimal(formulas.D_STAR))


class TestDimensionFormulas:
    def test_quadratic_coefficient_degree2(self):
        coeff = julia_dim_t(2, 1.0) - 1.0
        assert coeff == pytest.approx(1.0 / (16.0 * math.log(2.0)), rel=1e-15)
        assert coeff == pytest.approx(0.09016844, abs=5e-8)

    def test_zero_perturbation(self):
        assert julia_dim_t(7, 0.0) == 1.0
        assert julia_dim_k(7, 0.0) == 1.0

    def test_distortion_constants(self):
        assert distortion_constant(2) == 1.0
        assert distortion_constant(20) == pytest.approx(0.5854, abs=5e-5)
        for d in range(3, 65):
            assert distortion_constant(d) < 1.0

    def test_parametrization_consistency(self):
        for d in (2, 3, 16, 20, 64):
            for t in (0.01, 0.2, 0.7):
                k = distortion_constant(d) * t / 2.0
                assert julia_dim_k(d, k) == pytest.approx(julia_dim_t(d, t), rel=1e-14)

    def test_smirnov_small_distortion_coefficient(self):
        for t in (1e-3, 1e-2):
            assert (smirnov_dim_t(t) - 1.0) / t**2 == pytest.approx(0.25, abs=1e-4)
        assert smirnov_dim_t(0.0) == 1.0

    def test_smirnov_dominates_all_degrees(self):
        for d in range(2, 65):
            for k in (0.01, 0.05, 0.1):
                assert julia_dim_k(d, k) <= smirnov_dim_k(k)

    def test_improved_coefficient_margin_below_one(self):
        # every integer degree up to the frequency capacity, without a scan
        assert best_integer_degree(2, FREQ_CAP) == (20, sigma2_optimal(20))
        assert sigma2_optimal(20) <= 1.0 - 0.12


class TestPointwiseBounds:
    def test_minimum_at_two(self):
        values = {m: pointwise_sigma_bound(m) for m in range(1, 11)}
        assert min(values, key=values.get) == 2

    def test_log_gamma_branch_continuity(self):
        direct = pointwise_sigma_bound(80)
        lg = math.exp(2 * math.lgamma(82) + 2 * math.lgamma(80)
                      - math.lgamma(160) - 4 * math.lgamma(41))
        assert direct == pytest.approx(lg, rel=1e-10)
        assert pointwise_sigma_bound(120) > 6.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            pointwise_sigma_bound(0)


class TestTable:
    def test_rows_match_reference_display(self):
        rows = {int(r["d"]): r for r in table2()}
        assert sorted(rows) == [2, 3, 4, 20]
        for d, (lam_disp, imp_disp) in TABLE2_EXPECTED.items():
            r = rows[d]
            assert truncate_display(r["lambda_lemma"]) == lam_disp
            assert truncate_display(r["improved"]) == imp_disp
            assert abs(r["lambda_lemma"] - lambda_lemma_coeff(d)) <= 5e-5
            assert abs(r["improved"] - sigma2_optimal(d)) <= 5e-5

    def test_improved_dominates_basic(self):
        for r in table2():
            assert r["improved"] >= r["lambda_lemma"]
            if r["d"] >= 3:
                assert r["improved"] > r["lambda_lemma"]

    def test_degree2_columns_coincide(self):
        row = next(r for r in table2() if r["d"] == 2)
        assert row["lambda_lemma"] == pytest.approx(row["improved"], rel=1e-15)

    def test_row_serialization(self):
        assert list(table2()[0]) == ["d", "lambda_lemma", "improved", "c_d", "optimal_rho0"]


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(7))
