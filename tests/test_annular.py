"""Transform algebra against closed forms, quadrature oracles and invariants."""
import json
import math
from math import inf

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bvlab.annular import (MonomialTerm, PiecewiseField, bergman_coefficients,
                           beurling, beurling_exterior, cauchy_exterior,
                           cauchy_full, derivative_z, eval_taylor, moment,
                           multiply, product_beurling_exterior, pullback_power)
from bvlab.constructions import ShellParams, build_shell
from bvlab.errors import (FREQ_CAP, BVLabError, CapacityError, DivergentMomentError,
                          UnsupportedTermError, ValidationError)
from bvlab.manifest import json_text
from conftest import circle
from oracles import (quad_bergman_coefficient, quad_cauchy_at, quad_moment,
                     sup_norm_sampled, wirtinger_dbar, wirtinger_dz)


def block(n: int, r: float, rho: float, coeff=1.0) -> MonomialTerm:
    return MonomialTerm.make(coeff, n - 2, 0, float(2 - n), r, rho)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class TestEval:
    def test_unit_block_on_support(self, mu4):
        z = 0.6
        assert mu4.eval(z) == pytest.approx(1.0)
        z = circle(0.6, 0.8)
        assert abs(mu4.eval(z)) == pytest.approx(1.0, abs=1e-14)
        assert mu4.eval(z) == pytest.approx(complex(math.cos(-1.6), math.sin(-1.6)))

    def test_outside_support_is_zero(self, mu4):
        for z in (0.3, 0.9, 1.5, 0.49999, 0.8):
            assert mu4.eval(z) == 0

    def test_half_open_convention(self, mu4):
        assert abs(mu4.eval(0.5)) == pytest.approx(1.0)   # r_in included
        assert mu4.eval(0.8) == 0                          # r_out excluded

    def test_shell_field_unit_modulus(self):
        params = ShellParams(d=2, rho0=0.25, shells=6)
        mu = build_shell(params)
        z = circle(0.9, math.pi / 3)
        assert abs(mu.eval(z)) == pytest.approx(1.0, abs=1e-13)
        # 0.9 lies in the third shell (n = 8): the value is exp(-6 i theta) = 1 here
        radii = [math.exp(params.log_radius(j)) for j in range(7)]
        assert radii[2] < 0.9 < radii[3]
        assert mu.eval(z) == pytest.approx(
            complex(math.cos(-6 * math.pi / 3), math.sin(-6 * math.pi / 3)), abs=1e-13)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

class TestMoment:
    def test_basic_block_closed_form(self, mu4):
        assert moment(mu4.terms[0], 2) == pytest.approx(0.5 * (0.8**4 - 0.5**4))
        assert moment(mu4.terms[0], 2) == pytest.approx(0.17355)

    def test_against_quadrature(self, mu4):
        q = quad_moment(mu4, 2, n_r=1500)
        assert abs(moment(mu4.terms[0], 2) - q) <= 1e-6

    def test_randomized_against_quadrature(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 24))
            r = float(rng.uniform(0.2, 0.6))
            rho = float(rng.uniform(r + 0.1, 0.95))
            t = block(n, r, rho)
            exact = moment(t, n - 2)
            q = quad_moment(PiecewiseField.of(t), n - 2, n_r=max(1500, 80 * n))
            assert abs(exact - q) <= 1e-6 * max(1.0, abs(exact))

    @given(st.integers(0, 8), st.integers(-8, 8), st.integers(-10, 10))
    @settings(max_examples=40, deadline=None)
    def test_angular_orthogonality(self, p, q, j):
        t = MonomialTerm.make(1.3 - 0.2j, p, q, 0.5, 0.4, 0.9)
        if j != p - q:
            assert moment(t, j) == 0

    def test_indicator_area(self):
        t = MonomialTerm.make(1.0, 0, 0, 0.0, 0.3, 0.7)
        assert moment(t, 0) == pytest.approx(0.7**2 - 0.3**2)

    def test_logarithmic_case(self):
        t = MonomialTerm.make(1.0, 0, 2, -2.0, 0.4, 0.8)  # e = 0 at j = -2
        assert moment(t, -2) == pytest.approx(2.0 * math.log(2.0))

    def test_divergent_moment(self):
        t = MonomialTerm.make(1.0, 2, 0, 0.0, 0.5, inf)
        with pytest.raises(DivergentMomentError):
            moment(t, 2)


# ---------------------------------------------------------------------------
# Cauchy transform
# ---------------------------------------------------------------------------

class TestCauchy:
    def test_basic_block_exterior_series(self):
        # the coefficient value is the selfcheck entry basic_cauchy_closed_form
        series = cauchy_exterior(PiecewiseField.of(block(4, 0.5, 0.8)))
        assert set(series.coeffs) == {3}

    def test_shell_series_coefficients(self):
        params = ShellParams(d=3, rho0=0.2, shells=5)
        series = cauchy_exterior(build_shell(params))
        delta = 0.2 ** (1 / 3) - 0.2
        for j in range(5):
            n = params.frequency(j)
            assert series.coeffs[n - 1] == pytest.approx((2 / n) * delta, rel=1e-13)
            # the shell radii satisfy r_j^(n_j) = rho0 by construction
            assert math.exp(n * params.log_radius(j)) == pytest.approx(0.2, abs=1e-12)

    def test_frequency_past_capacity(self):
        with pytest.raises(CapacityError):
            cauchy_exterior(PiecewiseField.of(MonomialTerm.make(1.0, FREQ_CAP, 0, 0.0, 0.5, 1.0)))

    def test_conjugate_type_terms_have_no_exterior_series(self):
        f = PiecewiseField.of(MonomialTerm.make(1.0, 0, 3, 0.0, 0.4, 0.9))
        assert cauchy_exterior(f).coeffs == {}

    def test_full_matches_exterior(self, mu4):
        F = cauchy_full(mu4)
        series = cauchy_exterior(mu4)
        for z in (circle(1.1, 0.3), circle(2.5, 2.0), circle(1.001, 4.0)):
            assert F.eval(z) == pytest.approx(series.eval(z), abs=1e-14)

    def test_vanishes_at_origin(self, mu4):
        assert cauchy_full(mu4).eval(0) == 0

    def test_on_support_against_quadrature(self, mu4):
        z = circle(0.65, 1.1)
        exact = cauchy_full(mu4).eval(z)
        q = quad_cauchy_at(mu4, z)
        assert abs(exact - q) <= 1e-5 * abs(exact)

    def test_breakpoint_continuity(self, mu4):
        F = cauchy_full(mu4)
        for r in F.breakpoints():
            for j in range(16):
                z = circle(1.0, 2 * math.pi * (j + 0.3) / 16)
                lo = F.eval(r * (1 - 1e-11) * z)
                hi = F.eval(r * (1 + 1e-11) * z)
                assert abs(lo - hi) <= 1e-9

    def test_dbar_recovers_field(self, mu4, rng):
        F = cauchy_full(mu4)
        count = 0
        while count < 50:
            r = float(rng.uniform(0.1, 1.2))
            if min(abs(r - b) for b in (0.5, 0.8)) < 1e-4:
                continue
            z = circle(r, float(rng.uniform(0, 2 * math.pi)))
            lhs = wirtinger_dbar(F.eval, z)
            rhs = mu4.eval(z)
            assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(rhs))
            count += 1

    def test_logarithmic_term_rejected(self):
        # conjugate-reflected block: e = 2p + gamma + 2 = 0
        f = PiecewiseField.of(MonomialTerm.make(1.0, 0, 2, -2.0, 0.4, 0.9))
        with pytest.raises(UnsupportedTermError):
            cauchy_full(f)


# ---------------------------------------------------------------------------
# derivative and the singular transform
# ---------------------------------------------------------------------------

class TestBeurling:
    def test_derivative_rule_instances(self):
        radial = PiecewiseField.of(MonomialTerm.make(2.0, 0, 0, 3.0, 0.4, 0.9))
        out = derivative_z(radial)
        assert len(out.terms) == 1
        t = out.terms[0]
        assert (t.p, t.q, t.gamma) == (1, 0, 1.0)
        assert t.coeff == pytest.approx(3.0)
        constant = PiecewiseField.of(MonomialTerm.make(5.0, 0, 0, 0.0, 0.4, 0.9))
        assert derivative_z(constant).terms == ()

    def test_derivative_against_finite_differences(self, mu4):
        F = cauchy_full(mu4)
        dF = derivative_z(F)
        for r in (0.6, 0.9, 1.5):
            z = circle(r, 0.7)
            fd = wirtinger_dz(F.eval, z)
            assert abs(dF.eval(z) - fd) <= 1e-5 * max(1.0, abs(fd))

    @given(st.integers(0, 5), st.integers(-5, 5), st.floats(-6, 6))
    @settings(max_examples=40, deadline=None)
    def test_derivative_rule_random_terms(self, p, q, gamma):
        f = PiecewiseField.of(MonomialTerm.make(1.1 + 0.4j, p, q, gamma, 0.4, 0.9))
        df = derivative_z(f)
        z = circle(0.7, 2.1)
        fd = wirtinger_dz(f.eval, z, h=1e-6)
        assert abs(df.eval(z) - fd) <= 2e-5 * max(1.0, abs(fd))

    def test_basic_block_closed_form(self):
        n, r, rho = 4, 0.5, 0.8
        S = beurling(PiecewiseField.of(block(n, r, rho)))
        z = circle(1.7, 0.9)
        expected = -(2 * (n - 1) / n) * (rho**n - r**n) * z**(-n)
        assert S.eval(z) == pytest.approx(expected, rel=1e-13)

    def test_shell_exterior_moduli(self):
        params = ShellParams(d=2, rho0=0.25, shells=8)
        series = beurling_exterior(build_shell(params))
        for j in range(8):
            n = params.frequency(j)
            assert abs(series.coeffs[n]) == pytest.approx(2 * (1 - 1 / n) * 0.25, rel=1e-13)
        assert abs(series.coeffs[params.frequency(7)]) == pytest.approx(0.5, abs=2e-3)

    def test_pointwise_bound(self, rng):
        # |S mu| <= 1/(R-1)^2 for any coefficient bounded by one in the disk
        from bvlab.constructions import random_unit_shell_field
        R = 1.5
        for _ in range(5):
            mu = random_unit_shell_field(rng, shells=8)
            series = beurling_exterior(mu)
            for j in range(8):
                z = circle(R, 2 * math.pi * j / 8)
                assert abs(series.eval(z)) <= 1.0 / (R - 1.0) ** 2 + 1e-12

    def test_exterior_restriction_matches_laurent_route(self, mu4):
        S = beurling(mu4)
        exterior_terms = [t for t in S.terms if t.log_r_in >= math.log(0.8) - 1e-12
                          and t.log_r_out == inf]
        series = beurling_exterior(mu4)
        assert len(exterior_terms) == len(series.coeffs) == 1
        t = exterior_terms[0]
        assert t.p == 0 and t.gamma == 0.0
        assert t.coeff == pytest.approx(series.coeffs[-t.q], abs=1e-12)

    def test_exterior_consistency_coefficientwise_shell(self):
        mu = build_shell(ShellParams(d=2, rho0=0.25, shells=8))
        S = beurling(mu)
        series = beurling_exterior(mu)
        collected: dict[int, complex] = {}
        for t in S.terms:
            if t.log_r_out == inf:
                assert t.p == 0 and t.gamma == 0.0
                collected[-t.q] = collected.get(-t.q, 0) + t.coeff
        assert set(collected) == set(series.coeffs)
        for k, c in collected.items():
            assert abs(c - series.coeffs[k]) <= 1e-12

    def test_closure_of_operations(self):
        # transforms, products and pullbacks of the standard constructions
        # never leave the monomial-annulus class
        mu = build_shell(ShellParams(d=3, rho0=0.3, shells=3))
        s = beurling(mu)
        prod = multiply(mu, s)
        nested = beurling(prod)
        pulled = pullback_power(prod, 2)
        dz = derivative_z(nested)
        for f in (s, prod, nested, pulled, dz):
            assert isinstance(f, PiecewiseField)
            value = f.eval(circle(0.7, 1.3))
            assert abs(value) < 1e6 and value == value  # finite, not NaN


# ---------------------------------------------------------------------------
# interior projection
# ---------------------------------------------------------------------------

class TestBergman:
    def test_reflection_relation(self, mu4):
        mixed = mu4.add(PiecewiseField.of(MonomialTerm.make(0.5, 0, 2, -1.0, 0.3, 0.6)))
        coeffs = bergman_coefficients(mixed)
        for theta in (2.2, 4.4):  # theta 0.9 is projection_reflection_relation
            z = circle(2.0, theta)
            lhs = eval_taylor(coeffs, 1.0 / z)
            rhs = -z * z * beurling_exterior(mixed.reflect_conjugate()).eval(z)
            assert abs(lhs - rhs) <= 1e-8

    def test_radial_field_projects_to_constant(self):
        f = PiecewiseField.of(MonomialTerm.make(1.0, 0, 0, 0.0, 0.3, 0.7))
        coeffs = bergman_coefficients(f)
        assert set(coeffs) == {0}
        assert coeffs[0] == pytest.approx(0.7**2 - 0.3**2)

    def test_against_quadrature(self):
        f = PiecewiseField.of(MonomialTerm.make(0.8 - 0.1j, 0, 2, -1.0, 0.3, 0.6))
        c2 = bergman_coefficients(f)[2]
        q = quad_bergman_coefficient(f, 2, n_r=1200)
        assert abs(c2 - q) <= 1e-6

    def test_support_validation(self):
        f = PiecewiseField.of(MonomialTerm.make(1.0, 0, 0, 0.0, 0.9, 1.4))
        with pytest.raises(ValidationError):
            bergman_coefficients(f)


# ---------------------------------------------------------------------------
# products and pullback
# ---------------------------------------------------------------------------

class TestMultiply:
    def test_exponents_add(self, mu4):
        prod = multiply(mu4, mu4)
        assert len(prod.terms) == 1
        t = prod.terms[0]
        assert (t.p, t.q, t.gamma) == (4, 0, -4.0)
        assert t.r_in == pytest.approx(0.5) and t.r_out == pytest.approx(0.8)

    def test_disjoint_supports(self, mu4):
        other = PiecewiseField.of(block(3, 0.85, 0.95))
        assert multiply(mu4, other).terms == ()

    def test_pointwise_product(self, mu4):
        g = PiecewiseField.of(MonomialTerm.make(0.3 + 0.7j, 1, 2, -0.5, 0.4, 0.7),
                              MonomialTerm.make(1.1, 0, 1, 0.0, 0.7, 0.9))
        prod = multiply(mu4, g)
        for z in (circle(0.55, 0.4), circle(0.65, 1.9), circle(0.72, 3.1),
                  circle(0.45, 0.1), circle(0.79, 5.5)):
            assert prod.eval(z) == pytest.approx(mu4.eval(z) * g.eval(z), abs=1e-14)


def multiply_all_pairs(f: PiecewiseField, g: PiecewiseField) -> PiecewiseField:
    """Reference product: every pair of terms tested, in a-major, b-minor order."""
    out = []
    for a in f.terms:
        for b in g.terms:
            lin = max(a.log_r_in, b.log_r_in)
            lout = min(a.log_r_out, b.log_r_out)
            if lin < lout and a.coeff * b.coeff != 0:
                out.append(MonomialTerm(a.coeff * b.coeff, a.p + b.p, a.q + b.q,
                                        a.gamma + b.gamma, lin, lout))
    return PiecewiseField(tuple(out))


def transform_routes(f: PiecewiseField, g: PiecewiseField):
    """The product transform by both routes: coefficients, or the error class raised."""
    routes = []
    for route in (lambda: beurling_exterior(multiply(f, g)).coeffs,
                  lambda: product_beurling_exterior(f, g)):
        try:
            routes.append(route())
        except BVLabError as exc:
            routes.append(type(exc))
    return routes


def shell_ladder(d: int, rho0):
    """Shell fields at a few shell counts from one to capacity."""
    cap = ShellParams(d=d, rho0=rho0).capacity
    for shells in sorted({1, 2, 3, 5, cap // 4, cap // 2, cap - 1, cap}):
        yield build_shell(ShellParams(d=d, rho0=rho0, shells=shells))


# radii that give supports reaching 0, nested, overlapping and disjoint; gammas that
# give products with e = 2p + gamma + 2 = 0 when p = 0
_TERM = st.builds(lambda c, p, q, gamma, r_in, width: MonomialTerm.make(
                      c, p, q, gamma, r_in, r_in + width),
                  st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
                  st.integers(0, 3), st.integers(-4, 2), st.sampled_from([-2.0, -1.0, 0.0, 1.5]),
                  st.sampled_from([0.0, 0.0, 0.0, 0.2, 0.5]), st.sampled_from([0.15, 0.3, 0.6]))
_FIELD = st.lists(_TERM, min_size=1, max_size=5).map(lambda ts: PiecewiseField(tuple(ts)))


class TestProductTransform:
    """product_beurling_exterior against beurling_exterior(multiply(f, g)), bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 16])
    @pytest.mark.parametrize("rho0", ["optimal", 0.3])
    def test_shell_fields(self, d, rho0):
        for mu in shell_ladder(d, rho0):
            old, new = transform_routes(mu, beurling(mu))
            assert new == old and isinstance(new, dict)

    @given(_FIELD, _FIELD)
    @settings(max_examples=150, deadline=None)
    def test_random_fields(self, f, g):
        old, new = transform_routes(f, g)
        assert new == old

    def test_logarithmic_product(self):
        f = PiecewiseField.of(MonomialTerm.make(1.0, 0, 0, -1.0, 0.3, 0.6))
        g = PiecewiseField.of(MonomialTerm.make(0.5j, 0, 0, -1.0, 0.2, 0.5))
        old, new = transform_routes(f, g)
        assert new == old and list(new) == [2]
        assert new[2] == pytest.approx(-2.0 * 0.5j * math.log(0.5 / 0.3), rel=1e-15)
        def reaching_zero(field):
            return PiecewiseField(tuple(MonomialTerm(t.coeff, t.p, t.q, t.gamma, -inf,
                                                     t.log_r_out) for t in field.terms))

        assert transform_routes(reaching_zero(f), reaching_zero(g)) \
            == [DivergentMomentError] * 2

    def test_unbounded_product_rejected(self):
        f = PiecewiseField.of(MonomialTerm.make(1.0, 2, 0, -2.0, 0.5, inf))
        g = PiecewiseField.of(MonomialTerm.make(1.0, 0, -3, 0.0, 0.7, inf),
                              MonomialTerm.make(0.0, 0, 0, 0.0, 0.6, inf))
        assert transform_routes(f, g) == [ValidationError] * 2
        # a zero product is no term, so its support is never tested
        assert transform_routes(f, PiecewiseField.of(g.terms[0].scaled(0))) == [{}, {}]

    def test_frequency_at_capacity(self):
        # e = 2p + gamma + 2 = 2 keeps the moment finite at a conjugate power near FREQ_CAP
        def field(p):
            return PiecewiseField.of(MonomialTerm.make(1.0, p, 0, -float(2 * p), 0.5, 0.8))

        indicator = PiecewiseField.of(MonomialTerm.make(1.0, 0, 0, 0.0, 0.4, 0.9))
        old, new = transform_routes(field(FREQ_CAP - 2), indicator)
        assert new == old and list(new) == [FREQ_CAP]
        assert transform_routes(field(FREQ_CAP - 1), indicator) == [CapacityError] * 2
        assert transform_routes(field(FREQ_CAP), indicator) == [CapacityError] * 2

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_multiply_keeps_the_all_pairs_terms(self, d):
        for mu in shell_ladder(d, "optimal"):
            g = beurling(mu)
            assert repr(multiply(mu, g).terms) == repr(multiply_all_pairs(mu, g).terms)

    @given(_FIELD, _FIELD)
    @settings(max_examples=100, deadline=None)
    def test_multiply_keeps_the_all_pairs_terms_random(self, f, g):
        assert repr(multiply(f, g).terms) == repr(multiply_all_pairs(f, g).terms)


class TestPullback:
    def test_preserves_unit_modulus(self, mu4):
        pulled = pullback_power(mu4, 2)
        z = circle(math.sqrt(0.6), 1.0)
        assert abs(pulled.eval(z)) == pytest.approx(1.0, abs=1e-13)

    @given(st.integers(0, 6), st.integers(-6, 6), st.integers(-6, 6),
           st.integers(2, 4), st.floats(0.25, 0.5), st.floats(0.6, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_vector_field_identity_random_terms(self, p, q, g2, d, r_in, r_out):
        gamma = float(g2)
        assume(2 * p + gamma + 2.0 != 0.0)
        assume(d * (2 * p + gamma) + 2 * (d - 1) + 2.0 != 0.0)
        f = PiecewiseField.of(MonomialTerm.make(0.8 - 0.3j, p, q, gamma, r_in, r_out))
        F = cauchy_full(f)
        Fp = cauchy_full(pullback_power(f, d))
        z = circle(0.9, 1.234)
        lhs = (F.eval(z**d) - F.eval(0)) / (d * z ** (d - 1))
        assert abs(lhs - Fp.eval(z)) <= 1e-9 * max(1.0, abs(lhs))

    def test_vector_field_identity(self, mu4):
        d = 3
        F = cauchy_full(mu4)
        Fp = cauchy_full(pullback_power(mu4, d))
        for k in range(20):
            z = circle(0.6 + 0.05 * k, 0.7 + 0.21 * k)
            lhs = (F.eval(z**d) - F.eval(0)) / (d * z ** (d - 1))
            assert abs(lhs - Fp.eval(z)) <= 1e-8

    def test_pullback_transform_vanishes_at_origin(self, mu4):
        assert cauchy_full(pullback_power(mu4, 4)).eval(0) == 0

    def test_sup_norm_preserved(self, mu4):
        assert sup_norm_sampled(pullback_power(mu4, 3)) == pytest.approx(
            sup_norm_sampled(mu4), abs=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_round_trip_bit_stable(self, mu4):
        # the document round trip is the selfcheck entry serialization_roundtrip
        assert PiecewiseField.from_doc(mu4.to_doc()) == mu4

    def test_spec_schema_keys_accepted(self):
        doc = {"terms": [{"re": 1.0, "im": 0.0, "p": 2, "q": 0, "gamma": -2.0,
                          "r_in": 0.5, "r_out": 0.8}]}
        f = PiecewiseField.from_doc(doc)
        assert abs(f.eval(0.6)) == pytest.approx(1.0)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
           st.integers(0, 50), st.integers(-50, 50),
           st.floats(-40, 40), st.floats(0.05, 0.5), st.floats(0.55, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random_terms(self, re, im, p, q, gamma, r_in, r_out):
        f = PiecewiseField.of(MonomialTerm.make(complex(re, im), p, q, gamma, r_in, r_out))
        doc = f.to_doc()
        assert PiecewiseField.from_doc(doc).to_doc() == doc

    @pytest.mark.parametrize("r_in, r_out", [(0.0, 0.5), (0.5, math.inf), (0.0, math.inf)])
    def test_round_trip_support_reaching_zero_or_infinity(self, r_in, r_out):
        # a bound at 0 or infinity is written as r_in 0 or r_out null, without its log key
        f = PiecewiseField.of(MonomialTerm.make(1 + 2j, 0, 3, 0.0, r_in, r_out))
        term = f.to_doc()["terms"][0]
        assert ("log_r_in" in term) == (r_in > 0) and ("log_r_out" in term) == (r_out < inf)
        assert term["r_out"] == (None if r_out == inf else r_out)
        assert PiecewiseField.from_doc(f.to_doc()) == f
        assert PiecewiseField.from_doc(json.loads(json_text(f.to_doc()))) == f
        for key in ("log_r_in", "log_r_out"):  # the plain radii alone
            doc = f.to_doc()
            doc["terms"][0].pop(key, None)
            assert PiecewiseField.from_doc(doc) == f

    def test_each_bound_read_from_its_log_key_else_its_radius(self):
        term = {"re": 1.0, "im": 0.0, "p": 0, "q": 2, "gamma": 0.0, "r_in": 0.2, "r_out": 0.5}
        both = MonomialTerm.from_doc(term)
        assert MonomialTerm.from_doc({**term, "log_r_in": -1.0}).log_r_in == -1.0
        assert MonomialTerm.from_doc({**term, "log_r_out": -0.25}).log_r_in == both.log_r_in
        assert MonomialTerm.from_doc({**term, "r_out": inf}).log_r_out == inf
        with pytest.raises(ValidationError):
            MonomialTerm.from_doc({**term, "r_in": -0.1})

    def test_finite_bounds_keep_their_bytes(self):
        f = PiecewiseField.of(MonomialTerm.make(0.5 - 1j, 3, 1, -2.5, 0.25, 0.75))
        assert json_text(f.to_doc()) == (
            '{"terms": [{"gamma": -2.5, "im": -1, "log_r_in": -1.3862943611198906, '
            '"log_r_out": -0.2876820724517809, "p": 3, "q": 1, "r_in": 0.25, '
            '"r_out": 0.75, "re": 0.5}]}\n')

    @pytest.mark.parametrize("key, value", [
        ("log_r_in", math.inf), ("log_r_out", -math.inf), ("log_r_in", math.nan),
        ("log_r_out", math.nan), ("r_in", math.inf), ("r_out", -math.inf), ("r_out", math.nan)])
    def test_wrong_signed_or_nan_radius_rejected(self, key, value):
        term = {"re": 1.0, "im": 0.0, "p": 0, "q": 2, "gamma": 0.0, "r_in": 0.2, "r_out": 0.5,
                key: value}
        if key.startswith("log"):  # the log key, when present, is read before the radius
            term = {"log_r_in": -1.6, "log_r_out": -0.7, **term}
        with pytest.raises(ValidationError, match=f"{key} must be a finite number"):
            PiecewiseField.from_doc({"terms": [term]})

    def test_malformed_document(self):
        with pytest.raises(ValidationError):
            PiecewiseField.from_doc({"terms": [{"re": 1.0}]})

    @pytest.mark.parametrize("key, value", [("p", 2.5), ("q", 0.5)])
    def test_non_integral_powers_rejected(self, key, value):
        term = {"re": 1.0, "im": 0.0, "p": 2, "q": 0, "gamma": -2.0,
                "r_in": 0.5, "r_out": 0.8, key: value}
        with pytest.raises(ValidationError):
            PiecewiseField.from_doc({"terms": [term]})
