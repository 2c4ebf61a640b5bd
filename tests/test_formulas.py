"""Closed-form bounds and dimension formulas, cross-validated numerically."""
import math

import numpy as np
import pytest

from bvlab.errors import FREQ_CAP, ValidationError
from bvlab.formulas import (best_integer_degree, best_real_degree,
                            distortion_constant, golden_section_maximize,
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

    def test_optimal_radius_against_grid_maximization(self):
        # the maximum is flat, so the argmax is only sqrt(eps)-determined in
        # doubles; the optimal value agrees to 1e-10 and far beyond
        for d in (2.0, 3.0, 7.5, 20.0):
            x, fx = golden_section_maximize(lambda r: sigma2_shell(d, r),
                                            1e-6, 1 - 1e-6, xtol=1e-12)
            assert x == pytest.approx(optimal_rho0(d), abs=1e-7)
            assert abs(fx - sigma2_shell(d, optimal_rho0(d))) <= 1e-10

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
        # an absolute xtol of 1e-8 is below the float spacing near 1e17
        d, value = best_real_degree(1e17, 2e17)
        assert 1e17 <= d < 1e17 + 1e3 and value == pytest.approx(sigma2_optimal(1e17))


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
        rows = {int(r.d): r for r in table2()}
        assert sorted(rows) == [2, 3, 4, 20]
        for d, (lam_disp, imp_disp) in TABLE2_EXPECTED.items():
            r = rows[d]
            assert truncate_display(r.lambda_lemma_coeff) == lam_disp
            assert truncate_display(r.improved_coeff) == imp_disp
            assert abs(r.lambda_lemma_coeff - lambda_lemma_coeff(d)) <= 5e-5
            assert abs(r.improved_coeff - sigma2_optimal(d)) <= 5e-5

    def test_improved_dominates_basic(self):
        for r in table2():
            assert r.improved_coeff >= r.lambda_lemma_coeff
            if r.d >= 3:
                assert r.improved_coeff > r.lambda_lemma_coeff

    def test_degree2_columns_coincide(self):
        row = next(r for r in table2() if r.d == 2)
        assert row.lambda_lemma_coeff == pytest.approx(row.improved_coeff, rel=1e-15)

    def test_row_serialization(self):
        doc = table2()[0].to_doc()
        assert set(doc) == {"d", "lambda_lemma", "improved", "c_d", "optimal_rho0"}


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(7))
