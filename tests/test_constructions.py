"""Shell builders, lacunary fields and truncation to polynomial Cauchy transforms."""
import math

import pytest

from bvlab.annular import (MonomialTerm, PiecewiseField, beurling_exterior, cauchy_exterior,
                           cauchy_full, pullback_power)
from bvlab.constructions import (ShellParams, build_shell, lacunary_vector_field,
                                 shell_beurling_series,
                                 shell_cauchy_identity_check, shell_cauchy_series,
                                 truncate_to_polynomial)
from bvlab.errors import FREQ_CAP, BVLabError, CapacityError, ValidationError
from bvlab.formulas import optimal_rho0
from bvlab.laurent import ExteriorLaurent, SelfSimilarity, derivative_coefficients
from bvlab.variance import variance_lacunary
from conftest import circle
from oracles import derivative, fields_allclose, sup_norm_sampled


class TestShellParams:
    def test_radii_invariant(self):
        p = ShellParams(d=3, rho0=0.2, shells=8)
        for j in range(8):
            n = p.frequency(j)
            r = math.exp(p.log_radius(j))
            assert r ** n == pytest.approx(0.2, abs=1e-12)
        radii = [math.exp(p.log_radius(j)) for j in range(9)]
        assert radii == sorted(radii)

    def test_default_first_frequency(self):
        assert ShellParams(d=2, rho0=0.25).n0 == 2
        assert ShellParams(d=7, rho0=0.2).n0 == 6

    def test_capacity(self):
        p = ShellParams(d=16, rho0=0.05, shells=40)
        with pytest.raises(CapacityError):
            [p.frequency(j) for j in range(p.shells)]

    def test_real_degree_rejected(self):
        # shells sit at integer frequencies; a real degree is for formulas alone
        with pytest.raises(ValidationError, match="the shell degree must be an integer"):
            ShellParams(d=2.5, rho0=0.3)

    def test_integral_degree_stored_as_int(self):
        d = ShellParams(d=16.0, rho0=0.3).d
        assert d == 16 and type(d) is int

    def test_first_frequency_resolved_as_int(self):
        for p, n0 in ((ShellParams(d=2, rho0=0.25), 2), (ShellParams(d=7, rho0=0.2), 6),
                      (ShellParams(d=16, rho0=0.3, n0=15), 15)):
            for q in (p, p._replace(shells=3), p._replace(rho0=0.5)):
                assert q.n0 == n0 and type(q.n0) is int

    def test_deep_shell_log_radii_keep_accuracy(self):
        # near the circle the plain radius is useless: 1 - r is below an ulp,
        # but the log form keeps r^n = rho0 exact
        p = ShellParams(d=16, rho0=optimal_rho0(16), n0=15, shells=14)
        j = 13
        n = p.frequency(j)
        assert math.exp(n * p.log_radius(j)) == pytest.approx(p.rho0, rel=1e-12)
        assert math.exp(p.log_radius(j)) == 1.0  # the collapse the log form avoids


class TestBuildShell:
    def test_degree2_radii_convention(self):
        p = ShellParams(d=2, rho0=0.25, shells=4)
        mu = build_shell(p)
        radii = sorted(t.r_in for t in mu.terms)
        assert radii == pytest.approx([0.25 ** (0.5 ** (j + 1)) for j in range(4)])

    def test_degree3_first_radius(self):
        rho0 = 3.0 ** (-1.5)
        p = ShellParams(d=3, rho0=rho0, shells=3)
        assert math.exp(p.log_radius(0)) == pytest.approx(rho0 ** 0.5)

    def test_no_shells(self):
        assert build_shell(ShellParams(d=3, rho0=0.2, shells=0)).terms == ()

    def test_unit_modulus_everywhere_on_support(self):
        mu = build_shell(ShellParams(d=3, rho0=0.2, shells=5))
        for z in (circle(0.6, 0.3), circle(0.8, 2.0), circle(0.95, 5.1)):
            assert abs(mu.eval(z)) == pytest.approx(1.0, abs=1e-13)


def _outcome(build):
    """(coefficients bit for bit, cutoff, ladder) of a series, or (error type, message)."""
    try:
        g = build()
    except BVLabError as exc:
        return type(exc).__name__, str(exc)
    return ({k: (c.real.hex(), c.imag.hex()) for k, c in g.coeffs.items()}, g.max_freq,
            g.self_similarity)


def _cut_derivative(g):
    """The termwise derivative of the coefficients of g below its cutoff c, exact up to c:
    the derivative of g cut at c - 1, without the series cut at c - 1, which for no
    shells and n0 = 2 would have the cutoff 0 that no series has."""
    c = g.max_freq
    return ExteriorLaurent(derivative_coefficients({k: b for k, b in g.coeffs.items() if k < c}),
                           c, g.self_similarity)


class TestShellSeries:
    @pytest.mark.parametrize("d", [2, 3, 16, 20])
    def test_transform_series_is_the_cut_derivative_of_the_cauchy_series(self, d):
        # shell counts up to one past the last that builds.  The Cauchy series is cut
        # one below the cutoff first, since a series cut at FREQ_CAP has no derivative
        # within the capacity
        cap = ShellParams(d=d, rho0=0.3).shells_below(FREQ_CAP)
        for rho0 in (0.3, optimal_rho0(d)):
            for shells in (0, 1, 3, cap - 1, cap, cap + 1):
                p = ShellParams(d=d, rho0=rho0, shells=shells)
                assert _outcome(lambda: shell_beurling_series(p)) == _outcome(
                    lambda: _cut_derivative(shell_cauchy_series(p)))

    @pytest.mark.parametrize("n0", [None, 5])
    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 20, 64])
    def test_series_hold_every_coefficient_of_the_transforms(self, d, n0):
        # the shells put nothing above n_(J-1), so the cutoff min(n_J - 1, FREQ_CAP)
        # removes nothing and each series is the whole transform with its blocks;
        # every shell count that builds, the capacity and past it included
        for rho0 in (1e-12, 0.05, "optimal", 0.6):
            params = ShellParams(d=d, rho0=rho0, n0=n0)
            blocks = SelfSimilarity(d, params.n0)
            for shells in range(params.shells_below(FREQ_CAP) + 1):
                p = params._replace(shells=shells)
                cutoff = min(p.n0 * d**shells - 1, FREQ_CAP)
                mu = build_shell(p)
                for series, whole in ((shell_cauchy_series(p), cauchy_exterior(mu)),
                                      (shell_beurling_series(p), beurling_exterior(mu))):
                    assert len(series.coeffs) == shells
                    assert series.coeffs == whole.coeffs
                    assert (series.max_freq, series.self_similarity) == (cutoff, blocks)


class TestShellCauchyIdentity:
    """C(mu) = -(2d/(d-1)) (rho0^(1/d) - rho0) v on |z| > 1, v the lacunary field."""

    def test_degree3(self):
        params = ShellParams(d=3, rho0=0.2, shells=10)
        res, _ = shell_cauchy_identity_check(params, [circle(1.5, 0.7)])
        assert res <= 1e-10

    def test_large_argument(self):
        mu = build_shell(ShellParams(d=3, rho0=0.2, shells=6))
        lac = lacunary_vector_field(3, 6)
        for R in (10.0, 100.0):
            assert abs(cauchy_exterior(mu).eval(R)) <= 2.0 / R
            assert abs(lac.v.eval(R)) <= 1.0 / R

    def test_degree20_near_circle(self):
        params = ShellParams(d=20, rho0=optimal_rho0(20), shells=4)
        res, tail = shell_cauchy_identity_check(params, [circle(1.05, 2.0)])
        assert res <= tail + 1e-12

    def test_degree2_rejected(self):
        with pytest.raises(ValidationError):
            shell_cauchy_identity_check(ShellParams(d=2, rho0=0.25, shells=4), [2.0])

    def test_transform_coefficients_match_lacunary_derivative(self):
        # S mu and -(2d/(d-1)) delta v' agree coefficient by coefficient,
        # exactly, for the base construction n0 = d - 1
        for d in (3, 5, 20):
            params = ShellParams(d=d, rho0=optimal_rho0(d), shells=6)
            s = shell_beurling_series(params)
            lac = lacunary_vector_field(d, 6)
            scale = -(2.0 * d / (d - 1.0)) * params.delta
            v_prime = derivative(lac.v)
            assert set(s.coeffs) == set(v_prime.coeffs)
            for k in s.coeffs:
                assert s.coeffs[k] == pytest.approx(scale * v_prime.coeffs[k],
                                                    rel=1e-13)


class TestLacunaryField:
    def test_functional_equation_residual(self):
        lac = lacunary_vector_field(2, 8)
        for k in range(10):
            z = circle(1.2 + 0.1 * k, 0.5 + 0.6 * k)
            res, bound = lac.functional_equation_residual(z)
            assert res <= bound * (1 + 1e-9) + 1e-15

    def test_degree2_constant(self):
        lac = lacunary_vector_field(2, 5)
        assert lac.constant == pytest.approx(-0.5)
        assert lacunary_vector_field(3, 5).constant == 0

    def test_derivative_variance_formula(self):
        # sigma^2(v') = (d-1)^2 / (d^2 log d)
        for d in (2, 3, 5):
            v_prime = derivative(lacunary_vector_field(d, 12).v)
            for n in range(12):
                freq = (d - 1) * d**n
                # (freq - 1) times the coefficient 1/d^(n+1) of v, as the derivative forms it
                assert abs(v_prime.coeffs.get(freq, 0.0)) == pytest.approx(
                    (freq - 1) * (1.0 / d ** (n + 1)), abs=1e-16)
            # the coefficient moduli tend to (d-1)/d; extend by the formula
            moduli = [(d - 1) / d - (1.0 / d ** (n + 1) if n < 300 else 0.0)
                      for n in range(400)]
            est = variance_lacunary(moduli, d)
            expected = (d - 1) ** 2 / (d * d * math.log(d))
            assert est.value == pytest.approx(expected, rel=1e-2)

    def test_empty(self):
        lac = lacunary_vector_field(2, 0)
        assert lac.v.coeffs == {} and derivative(lac.v).coeffs == {}


class TestTruncation:
    def annulus_field(self) -> PiecewiseField:
        return PiecewiseField.of(MonomialTerm.make(1.0, 1, 0, -1.0, 0.2, 0.5),
                                 MonomialTerm.make(0.5j, 4, 0, -4.0, 0.2, 0.5))

    def test_worked_example_cutoff(self):
        result = truncate_to_polynomial(self.annulus_field(), 0.7, 0.01)
        assert result.cutoff == 17
        assert result.tail_bound <= 0.01

    def test_low_frequency_field_unchanged(self):
        result = truncate_to_polynomial(self.annulus_field(), 0.7, 0.01)
        # all Cauchy content sits at frequencies 2 and 5, below the cutoff
        assert result.correction_bound == 0.0
        assert fields_allclose(result.field, self.annulus_field(), tol=1e-14)

    def test_high_frequencies_cancelled(self):
        mu = PiecewiseField.of(MonomialTerm.make(1.0, 1, 0, -1.0, 0.2, 0.5),
                               MonomialTerm.make(1.0, 24, 0, -24.0, 0.2, 0.5),
                               MonomialTerm.make(0.3, 39, 0, -39.0, 0.2, 0.5),
                               MonomialTerm.make(0.4, 17, 0, -17.0, 0.2, 0.5))
        result = truncate_to_polynomial(mu, 0.7, 0.01)
        series = cauchy_exterior(result.field)
        assert result.cutoff == 17
        for k, c in series.coeffs.items():
            if k > result.cutoff:
                assert abs(c) <= 1e-12
        assert abs(series.coeffs[2]) > 0
        # the transform value at the origin is preserved
        assert cauchy_full(result.field).eval(0) == pytest.approx(
            cauchy_full(mu).eval(0), abs=1e-14)

    def test_sup_norm_growth_and_rescale(self):
        mu = PiecewiseField.of(MonomialTerm.make(1.0, 24, 0, -24.0, 0.2, 0.5))
        raw = truncate_to_polynomial(mu, 0.7, 0.05)
        assert raw.correction_bound <= 0.05 + 1e-12
        assert sup_norm_sampled(raw.field) <= 1.0 + raw.correction_bound + 1e-9
        scaled = truncate_to_polynomial(mu, 0.7, 0.05, rescale=True)
        assert scaled.rescaled
        assert sup_norm_sampled(scaled.field) <= 1.0 + 1e-9

    def test_perturbation_stays_below_tolerance_pointwise(self):
        mu = PiecewiseField.of(MonomialTerm.make(1.0, 24, 0, -24.0, 0.2, 0.5))
        result = truncate_to_polynomial(mu, 0.7, 0.05)
        diff = result.field.add(mu.scaled(-1.0))
        assert sup_norm_sampled(diff, 96, 48) <= 0.05 + 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            truncate_to_polynomial(self.annulus_field(), 0.4, 0.01)

    def test_corrections_start_at_the_stored_inner_log_radius(self):
        # a log bound that exp and log do not round-trip, as about half the logs in (-1, 0)
        log_in = next(l for l in (-0.7 - k / 997 for k in range(200))
                      if math.log(math.exp(l)) != l)
        mu = PiecewiseField.of(MonomialTerm(1.0, 24, 0, -24.0, log_in, math.log(0.5)),
                               MonomialTerm(0.5, 30, 0, -30.0, math.log(0.5), math.log(0.6)))
        result = truncate_to_polynomial(mu, 0.95, 0.01)
        corrections = [t for t in result.field.terms if t not in mu.terms]
        assert result.cutoff < 25 and len(corrections) == 2
        assert {t.log_r_in for t in corrections} == {log_in}
        # so each correction block cancels its frequency to rounding
        for k, c in cauchy_exterior(result.field).coeffs.items():
            assert k <= result.cutoff or abs(c) <= 1e-15 * abs(cauchy_exterior(mu).coeffs[k])

    @pytest.mark.parametrize("r1", [0.51, 0.7, 0.99])
    def test_smallest_eps_gives_the_smallest_passing_cutoff(self, r1):
        # eps (1 - q) underflows to 0 at the least subnormal; the cutoff stays the
        # smallest N whose float test q^(N+1) / (1 - q) <= eps passes
        eps, q = 5e-324, 0.5 / r1
        n = truncate_to_polynomial(self.annulus_field(), r1, eps).cutoff
        assert q ** (n + 1) / (1.0 - q) <= eps < q ** n / (1.0 - q)


class TestPeriodise:
    def test_shell_equals_periodised_first_shell(self):
        # the shell is the z^d-periodisation of its first shell: the sum of its pullbacks
        params = ShellParams(d=3, rho0=0.2, shells=4)
        shell = build_shell(params)
        innermost = PiecewiseField.of(min(shell.terms, key=lambda t: t.log_r_in))
        rebuilt = innermost
        for k in range(1, 4):
            rebuilt = rebuilt.add(pullback_power(innermost, 3**k))
        assert fields_allclose(shell, rebuilt, tol=1e-12)
