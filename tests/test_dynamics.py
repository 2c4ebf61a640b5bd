"""Dynamical variance on the circle: exact bookkeeping, the composition matrix,
sampling, coboundaries."""
import math
import random

import numpy as np
import pytest

from bvlab.dynamics import (MAX_EXACT_WORK, MAX_SAMPLES, MAX_WORK, MIN_BATCH, MIN_ORDER,
                            BlaschkeMap, CirclePotential, _composition_rows, _correlations,
                            birkhoff_variance,
                            birkhoff_variance_exact, birkhoff_variance_mc, check_exact_work,
                            check_mc_work, coboundary_check, log_deriv_mean)
from bvlab.errors import UnresolvedScaleError, ValidationError
from oracles import (apply_circle, blaschke_values, composed_correlations,
                     ks_uniform_statistic, log_abs_derivative, mp_birkhoff_limit, orbit_angles,
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

    def test_potential_document_repeated_frequency_rejected(self):
        with pytest.raises(ValidationError, match="frequency -1 is listed twice"):
            CirclePotential.from_doc({"coeffs": [[-1, 1.0, 0.0], [1, 0.5, 0.0],
                                                 [-1.0, 2.0, 0.0]]})

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

    @pytest.mark.parametrize("n", [50, 3000])
    @pytest.mark.parametrize("delta", [1e-6, 1e-9])
    def test_finite_orbit_near_the_circle_is_the_fejer_sum(self, delta, n):
        # a = -(1 - delta): C(k) = t^k with t = -a, so the value is the Fejer sum
        # 1 + 2 sum_{0<k<n} (1 - k/n) t^k.  The closed form (1 + t)/(1 - t) minus
        # (2/n) t (1 - t^n)/(1 - t)^2 cancels here: it misses by 4.0e-8 and 2.6e-12
        # (delta 1e-6) and by 3.0e-3 and 3.9e-6 (delta 1e-9), relative, with t^n = t**n
        import mpmath as mp
        a = -(1 - delta)
        result = birkhoff_variance(CirclePotential.from_map({1: 1.0}), BlaschkeMap((a,)), n)
        with mp.workdps(50):
            t = mp.mpf(-a)
            fejer = 1 + 2 * mp.fsum((1 - mp.mpf(k) / n) * t**k for k in range(1, n))
            assert abs(result.value - fejer) <= 2e-15 * fejer
            assert abs(result.limit - (1 + t) / (1 - t)) <= 2**-52 * (1 + t) / (1 - t)

    @pytest.mark.parametrize("a", [0.3, 0.9, 0.999, 0.999999, 1 - 1e-9, 1 - 1e-13])
    def test_limit_of_phi_z_is_closed_form(self, a):
        # T = (-a), and the limit is (1 + T) / (1 - T) with 1 - a exact in floats;
        # 2 Re sum C(k) - C(0) missed by 2.9e-13 at a = 0.999 and 1.1e-3 at 1 - 1e-13
        result = birkhoff_variance(CirclePotential.from_map({1: 1.0}), BlaschkeMap((a,)), 10)
        assert result.limit == pytest.approx((1 - a) / (1 + a), rel=2.2e-16, abs=0)

    def test_limit_near_the_circle_matches_50_digits(self):
        # real zeros within 1e-12 of +-1 and real potentials: the limit is far below C(0)
        # or far above it, and the 50-digit substitution on the same T is the reference
        rng = random.Random(26)
        for _ in range(60):
            zeros = [rng.choice((-1, 1)) * (1 - 10 ** -rng.uniform(1, 12))
                     for _ in range(rng.randint(1, 3))]
            b = BlaschkeMap(zeros, rng.randint(1, 2))
            phi = CirclePotential.from_map(
                {m: rng.uniform(-1, 1)
                 for m in rng.sample([m for m in range(-6, 7) if m], rng.randint(1, 3))})
            reference = mp_birkhoff_limit(_composition_rows(b, phi.max_frequency), phi)
            limit = birkhoff_variance(phi, b, 5).limit
            assert limit == pytest.approx(reference, rel=1e-14, abs=0)

    def test_slow_decay_limit_is_exact(self):
        # phi = Re z under one zero at 0.9: C(k) = (-0.9)^k C(0) has not decayed after 10
        # steps (0.9^10 = 0.35), yet the limit is the closed form (1 - a)/(2 (1 + a))
        phi = CirclePotential.from_map({-1: 0.5, 1: 0.5})
        result = birkhoff_variance(phi, BlaschkeMap((0.9,)), 10)
        assert result.limit == pytest.approx(0.1 / 3.8, rel=1e-14)

    def test_pure_power_limit_is_exact(self):
        # z^2 sends frequency 2 to 4 and then, with -3 and 5, past M = 5: the iterates
        # vanish after two steps, and C(1) pairs 4 with no coefficient
        phi = _potential(3, (-3, 2, 5))
        corr, _ = _correlations(phi, BlaschkeMap.power(2), 10)
        assert corr[1:] == [0j]
        result = birkhoff_variance(phi, BlaschkeMap.power(2), 10)
        assert result.limit == pytest.approx(
            corr[0].real + 2 * sum(c.real for c in corr[1:]), rel=1e-15)

    def test_matches_per_step_composition(self):
        # the reference composes B^k with B at every step; the limit is compared only
        # where the reference's geometric tail guess is below 1e-12
        rng = random.Random(25)
        limits = 0
        for _ in range(60):
            zeros = [rng.uniform(0, 0.95) * complex(math.cos(t), math.sin(t))
                     for t in (rng.uniform(0, 2 * math.pi) for _ in range(rng.randint(1, 3)))]
            b = BlaschkeMap(zeros, rng.randint(1, 3))
            phi = CirclePotential.from_map(
                {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for m in rng.sample([m for m in range(-8, 9) if m], rng.randint(1, 4))})
            ref, tail = composed_correlations(phi, b, 400)
            corr, _ = _correlations(phi, b, 400)
            corr += [0j] * (len(ref) - len(corr))
            assert max(abs(c - r) for c, r in zip(corr, ref)) <= 1e-14 * abs(ref[0])
            n = rng.randint(1, len(ref))
            value = math.fsum([ref[0].real,
                               *(2 * (n - k) / n * c.real for k, c in enumerate(ref[:n]) if k)])
            result = birkhoff_variance(phi, b, n)
            assert result.value == pytest.approx(value, rel=1e-14)
            if tail is not None and tail < 1e-12:
                limits += 1
                summed = math.fsum([ref[0].real, *(2 * c.real for c in ref[1:])])
                assert result.limit == pytest.approx(summed, rel=1e-14)
        assert limits >= 50

    def test_zero_potential_does_not_loop(self):
        phi = CirclePotential.from_map({0: 2.0})
        result = birkhoff_variance(phi, BlaschkeMap((0.3,)), 10**12)
        assert (result.value, result.limit) == (0.0, 0.0)

    def test_fields_are_value_and_limit(self):
        result = birkhoff_variance(_potential(2, (-1, 1)), BlaschkeMap((0.3,)), 5)
        assert result._fields == ("value", "limit")
        assert result.to_doc() == {"variance": result.value, "limit": result.limit}

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
                                       (0.4 + 0.2j, -0.1 + 0.6j, 0.95),
                                       (0.99, 0.99j), (0.99, -0.99), (0.993, 0.993j)])
    def test_midpoint_rule_matches_quadrature(self, zeros):
        # near the circle too: the rules differ by 1.4e-15 relative at radius 0.993
        b = BlaschkeMap(zeros)
        assert abs(log_deriv_mean(b) - quad_log_deriv_mean(b)) <= 1e-13

    @pytest.mark.parametrize("zeros", [(0.99999, 0.99999j), (0.999, -0.999), (0.995, 0.995j)])
    def test_unresolved_near_the_circle(self, zeros):
        # the 2048- and 4096-point rules differ by 0.37, 2.9e-3 and 3.6e-7 (relative)
        with pytest.raises(UnresolvedScaleError, match="from half the points"):
            log_deriv_mean(BlaschkeMap(zeros))

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
        # the oracle that drives the orbit referees maps the circle to itself
        b = BlaschkeMap((0.4 + 0.2j, -0.1 + 0.6j), order=2)
        th = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        w = blaschke_values(b, np.exp(1j * th))
        assert np.max(np.abs(np.abs(w) - 1.0)) <= 1e-12

    def test_zero_validation(self):
        with pytest.raises(ValidationError):
            BlaschkeMap((1.2 + 0j,))

    def test_identity_map_rejected(self):
        # the identity z would make I - T singular
        with pytest.raises(ValidationError, match="degree must be >= 2"):
            BlaschkeMap(())
        with pytest.raises(ValidationError, match="degree must be >= 2"):
            BlaschkeMap.power(1)


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
