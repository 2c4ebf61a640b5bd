"""Dynamical variance on the circle: exact bookkeeping, series composition,
sampling, coboundaries."""
import math

import numpy as np
import pytest

from bvlab.dynamics import (MAX_EXACT_WORK, MAX_SAMPLES, MAX_WORK, MIN_BATCH, MIN_ORDER,
                            BlaschkeMap, CirclePotential, birkhoff_variance,
                            birkhoff_variance_exact, birkhoff_variance_mc, check_exact_work,
                            check_mc_work, coboundary_check, log_deriv_mean)
from bvlab.errors import ValidationError
from oracles import (apply_circle, ks_uniform_statistic, log_abs_derivative, orbit_angles,
                     quad_log_deriv_mean)


class TestExactVariance:
    def test_single_negative_frequency_is_one(self):
        for d in (2, 3, 5):
            phi = CirclePotential.from_map({-(d - 1): 1.0})
            for n in (1, 4, 9):
                assert birkhoff_variance_exact(phi, d, n) == pytest.approx(1.0, abs=1e-15)

    def test_zero_potential(self):
        assert birkhoff_variance_exact(CirclePotential.from_map({}), 2, 5) == 0.0

    def test_zero_potential_does_not_loop(self):
        assert birkhoff_variance_exact(CirclePotential.from_map({}), 2, 10**12) == 0.0

    def test_mean_zero_required(self):
        with pytest.raises(ValidationError):
            birkhoff_variance_exact(CirclePotential.from_map({0: 1.0}), 2, 3)

    def test_collision_bookkeeping(self):
        # phi = z + z^2 under doubling: frequency 2 collides at n >= 2
        phi = CirclePotential.from_map({1: 1.0, 2: 1.0})
        # S_2 phi has frequencies {1: 1, 2: 1+1, 4: 1}: integral = (1+4+1)/2
        assert birkhoff_variance_exact(phi, 2, 2) == pytest.approx(3.0)

    def test_variance_differences_decay(self):
        rng = np.random.Generator(np.random.Philox(99))
        for d in (2, 3):
            for _ in range(5):
                freqs = rng.choice(np.arange(-5, 6), size=3, replace=False)
                coeffs = {int(m): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for m in freqs if m != 0}
                phi = CirclePotential.from_map(coeffs)
                var = [birkhoff_variance_exact(phi, d, n) for n in (2, 4, 8, 16, 32)]
                gaps = [abs(b - a) for a, b in zip(var, var[1:])]
                assert all(x >= y - 1e-12 for x, y in zip(gaps, gaps[1:]))


class TestMonteCarlo:
    def test_matches_exact_path(self):
        phi = CirclePotential.from_map({-1: 1.0, 1: 1.0})
        exact = birkhoff_variance_exact(phi, 2, 10)
        est, err = birkhoff_variance_mc(phi, BlaschkeMap.power(2), 10, 40000, seed=11)
        assert abs(est - exact) <= 3 * err

    def test_constant_after_mean_removal(self):
        phi = CirclePotential.from_map({0: 2.5})
        est, err = birkhoff_variance_mc(phi, BlaschkeMap.power(2), 5, 1000, seed=3)
        assert est == 0.0 and err == 0.0

    def test_reproducible_under_seed(self):
        phi = CirclePotential.from_map({-1: 0.5, 2: 1.0})
        b = BlaschkeMap((0.3 + 0j,))
        a1 = birkhoff_variance_mc(phi, b, 8, 5000, seed=7)
        a2 = birkhoff_variance_mc(phi, b, 8, 5000, seed=7)
        assert a1 == a2
        a3 = birkhoff_variance_mc(phi, b, 8, 5000, seed=8)
        assert a1 != a3

    @pytest.mark.parametrize("n, samples, degree", [(50, 100000, 2),
                                                    (1, 2, MAX_WORK // MIN_BATCH)])
    def test_work_bound_admits(self, n, samples, degree):
        check_mc_work(n, samples, degree)

    @pytest.mark.parametrize("n, samples, degree", [(10**8, 2, 2), (0, 100, 2),
                                                    (1, 2, MAX_WORK // MIN_BATCH + 1),
                                                    (4, MAX_SAMPLES, 3)])
    def test_work_bound_rejects(self, n, samples, degree):
        with pytest.raises(ValidationError):
            check_mc_work(n, samples, degree)

    def test_work_bound_counts_potential_terms(self):
        check_mc_work(10000, 2, 2)
        with pytest.raises(ValidationError):
            check_mc_work(10000, 2, 2, 3000)

    @pytest.mark.parametrize("samples, seed", [(1, 0), (MAX_SAMPLES + 1, 0), (100, -1)])
    def test_sample_count_and_seed_checked_before_sampling(self, samples, seed):
        phi = CirclePotential.from_map({1: 1.0})
        with pytest.raises(ValidationError):
            birkhoff_variance_mc(phi, BlaschkeMap.power(2), 4, samples, seed)

    def test_potential_document_frequencies_are_integers(self):
        assert CirclePotential.from_doc({"coeffs": [[-1.0, 1.0, 0.0]]}).coeffs == ((-1, 1.0),)
        with pytest.raises(ValidationError):
            CirclePotential.from_doc({"coeffs": [[1.5, 1.0, 0.0]]})

    def test_nontrivial_blaschke_stable_under_depth(self):
        phi = CirclePotential.from_map({-1: 0.5, 1: 0.5})   # Re z
        b = BlaschkeMap((0.3 + 0j,))
        e1, s1 = birkhoff_variance_mc(phi, b, 16, 60000, seed=5)
        e2, s2 = birkhoff_variance_mc(phi, b, 32, 60000, seed=6)
        assert abs(e1 - e2) <= 3 * (s1 + s2)
        assert e1 > 0


def _potential(seed: int, freqs) -> CirclePotential:
    rng = np.random.Generator(np.random.Philox(seed))
    return CirclePotential.from_map({m: complex(*rng.uniform(-1, 1, 2)) for m in freqs})


POTENTIALS = [(-1, 1), (-3, 2, 5), (-7, -4, 1, 2, 3, 4)]


class TestSeriesVariance:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("freqs", POTENTIALS)
    def test_matches_frequency_bookkeeping(self, d, freqs):
        phi = _potential(len(freqs), freqs)
        for n in (1, 4, 13):
            exact = birkhoff_variance_exact(phi, d, n)
            value = birkhoff_variance(phi, BlaschkeMap.power(d), n).value
            assert abs(value - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("zeros", [(-0.6 + 0.3j,), (0.5 + 0.2j, -0.4j), (0j, -0.5 + 0.3j)])
    def test_monte_carlo_within_four_standard_errors(self, zeros):
        # M = 3 with two negative frequencies: every coefficient of the composed
        # series up to order 3 enters, the division by 1 - conj(a) f included
        phi = _potential(17, (-2, -1, 1, 3))
        b = BlaschkeMap(zeros)
        exact = birkhoff_variance(phi, b, 12).value
        est, err = birkhoff_variance_mc(phi, b, 12, 40000, seed=23)
        assert abs(est - exact) <= 4 * err

    def test_single_zero_correlations_are_geometric(self):
        # phi = z: C(k) = [z] B^k = B'(0)^k = (-a)^k, so the limit is (1 - a)/(1 + a)
        a, n = 0.3, 60
        result = birkhoff_variance(CirclePotential.from_map({1: 1.0}), BlaschkeMap((a,)), n)
        value = 1 + 2 * math.fsum((1 - k / n) * (-a) ** k for k in range(1, n))
        assert result.value == pytest.approx(value, rel=1e-14)
        assert result.limit == pytest.approx((1 - a) / (1 + a), rel=1e-14)
        assert result.converged and result.limit_tail <= 1e-12

    def test_pure_power_limit_is_exact(self):
        # z^2 pushes frequency 5 past M after three steps: the iterate vanishes
        result = birkhoff_variance(_potential(3, (-3, 2, 5)), BlaschkeMap.power(2), 10)
        assert result.converged and result.limit_tail == 0.0

    def test_slow_decay_is_not_converged(self):
        result = birkhoff_variance(_potential(2, (-1, 1)), BlaschkeMap((0.9,)), 10)
        assert not result.converged

    def test_zero_potential_does_not_loop(self):
        phi = CirclePotential.from_map({0: 2.0})
        result = birkhoff_variance(phi, BlaschkeMap((0.3,)), 10**12)
        assert (result.value, result.limit, result.converged) == (0.0, 0.0, True)

    def test_work_bound(self):
        phi = _potential(40, range(-40, 41))
        check_exact_work(50, phi, 3)
        small = CirclePotential.from_map({1: 1.0})
        steps = MAX_EXACT_WORK // (MIN_ORDER**2 * (MIN_ORDER + 2))
        check_exact_work(steps, small, 2)
        with pytest.raises(ValidationError):
            check_exact_work(steps + 1, small, 2)
        with pytest.raises(ValidationError, match="--method mc"):
            check_exact_work(1, _potential(5, range(-1500, 1501)), 2)

    def test_power_map_stores_no_zeros(self):
        b = BlaschkeMap.power(10**9)
        assert b.zeros == () and b.degree == 10**9
        assert BlaschkeMap((0j, 0.3, 0j)) == BlaschkeMap((0.3,), order=3)


class TestLogDerivative:
    def test_pure_powers_exact(self):
        assert log_deriv_mean(BlaschkeMap.power(2)) == math.log(2)
        assert log_deriv_mean(BlaschkeMap.power(20)) == math.log(20)

    @pytest.mark.parametrize("a", [1e-3, 0.3, 0.5 + 0.2j, -0.7j, 0.9, 0.99])
    def test_jensen_formula_matches_quadrature(self, a):
        b = BlaschkeMap((a,))
        assert abs(log_deriv_mean(b) - quad_log_deriv_mean(b)) <= 1e-13

    @pytest.mark.parametrize("zeros", [(0.5 + 0.2j, -0.4j), (0j, 0.6j),
                                       (0.4 + 0.2j, -0.1 + 0.6j, 0.95)])
    def test_midpoint_rule_matches_quadrature(self, zeros):
        b = BlaschkeMap(zeros)
        assert abs(log_deriv_mean(b) - quad_log_deriv_mean(b)) <= 1e-13

    def test_blaschke_positive_and_matches_orbit_average(self):
        b = BlaschkeMap((0.5 + 0j,))
        quad = log_deriv_mean(b)
        assert quad > 0
        # orbit average over the invariant measure
        rng = np.random.Generator(np.random.Philox(123))
        z = np.exp(1j * rng.uniform(0, 2 * math.pi, 200))
        total = []
        for _ in range(400):
            total.append(log_abs_derivative(b, z))
            z = apply_circle(b, z)
        samples = np.concatenate(total)
        mc = float(np.mean(samples))
        stderr = float(np.std(samples) / math.sqrt(400 * 200 / 10.0))  # correlated
        assert abs(mc - quad) <= 3 * stderr

    def test_circle_preserved(self):
        b = BlaschkeMap((0.4 + 0.2j, -0.1 + 0.6j))
        th = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        w = b.apply(np.exp(1j * th))
        assert np.max(np.abs(np.abs(w) - 1.0)) <= 1e-12

    def test_zero_validation(self):
        with pytest.raises(ValidationError):
            BlaschkeMap((1.2 + 0j,))


class TestCoboundary:
    @pytest.mark.parametrize("d", [2, 3, 20])
    def test_identity(self, d):
        # the residual at this depth is the selfcheck entry coboundary_exact_d<d>
        assert coboundary_check(d, 12).rhs == pytest.approx(1.0 / math.log(d), rel=1e-15)

    def test_depth_one_already_exact(self):
        check = coboundary_check(2, 1)
        assert check.residual <= 1e-15

    def test_huge_degree_builds_no_map(self):
        # a power map of degree 10^9 would store 10^9 - 1 zeros
        check = coboundary_check(10**9, 1)
        assert check.residual <= 1e-15 and check.rhs == 1.0 / math.log(10**9)


class TestInvariance:
    def test_uniform_starts_stay_uniform(self):
        b = BlaschkeMap((0.3 + 0j,))
        angles = orbit_angles(b, steps=8, samples=100000, seed=42)
        stat = ks_uniform_statistic(angles)
        # 1% critical value of the Kolmogorov-Smirnov statistic
        assert stat <= 1.628 / math.sqrt(len(angles))
