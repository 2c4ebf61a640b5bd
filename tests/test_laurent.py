"""Sparse exterior series: arithmetic, calculus, metadata and serialization, and the
radial moment that makes each coefficient computed from a field."""
import math
from math import inf

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvlab.errors import FREQ_CAP, CapacityError, DivergentMomentError, ValidationError
from bvlab.laurent import (ExteriorLaurent, SelfSimilarity, convolve, derivative_coefficients,
                           radial_moment, radial_power)
from conftest import circle
from oracles import contour_derivative, derivative


class TestConstruction:
    def test_frequency_validation(self):
        with pytest.raises(ValidationError):
            ExteriorLaurent({0: 1.0}, 10)
        with pytest.raises(ValidationError):
            ExteriorLaurent({5: 1.0}, 3)

    @pytest.mark.parametrize("max_freq", [-3, 0])
    @pytest.mark.parametrize("coeffs", [{}, {1: 0.0}])
    def test_cutoff_below_one_rejected(self, coeffs, max_freq):
        # no series is exact up to a frequency below 1, whether or not it stores a term
        with pytest.raises(ValidationError, match=f"max_freq must be >= 1, got {max_freq}"):
            ExteriorLaurent(coeffs, max_freq)

    def test_zero_coefficients_dropped(self):
        g = ExteriorLaurent({1: 0.0, 2: 1.0}, 10)
        assert g.frequencies() == [2]

    def test_capacity(self):
        with pytest.raises(CapacityError):
            ExteriorLaurent({2**63: 1.0}, 2**63)

    def test_third_derivative_capacity(self):
        g = ExteriorLaurent({2**63 - 2: 1.0}, 2**63 - 1)
        with pytest.raises(CapacityError):
            derivative(g, 3)
        # derivative_coefficients guards both orders at the first frequency past FREQ_CAP
        with pytest.raises(CapacityError):
            derivative(ExteriorLaurent({FREQ_CAP: 1.0}, FREQ_CAP))
        with pytest.raises(CapacityError):
            derivative(ExteriorLaurent({FREQ_CAP - 2: 1.0}, FREQ_CAP), 3)
        assert derivative(ExteriorLaurent({FREQ_CAP - 1: 1.0}, FREQ_CAP - 1)).frequencies() \
            == [FREQ_CAP]
        assert derivative(ExteriorLaurent({FREQ_CAP - 3: 1.0}, FREQ_CAP - 3), 3) \
            .frequencies() == [FREQ_CAP]

    def test_cutoff_capacity(self):
        # a cutoff past FREQ_CAP would claim exactness beyond the 64-bit range
        assert ExteriorLaurent({1: 1.0}, FREQ_CAP).max_freq == FREQ_CAP
        with pytest.raises(CapacityError, match="max_freq"):
            ExteriorLaurent({1: 1.0}, FREQ_CAP + 1)
        # the n-th derivative is exact up to max_freq + n, so it raises past the cap
        assert derivative(ExteriorLaurent({1: 1.0}, FREQ_CAP - 3), 3).max_freq == FREQ_CAP
        with pytest.raises(CapacityError, match="max_freq"):
            derivative(ExteriorLaurent({1: 1.0}, FREQ_CAP), 3)
        with pytest.raises(CapacityError):
            ExteriorLaurent.from_doc({"coeffs": [[2, 1.0, 0.0]], "max_freq": 2**63})

    def test_eval_requires_exterior_point(self):
        g = ExteriorLaurent({1: 1.0}, 1)
        with pytest.raises(ValidationError):
            g.eval(0.9)


class TestCalculus:
    def test_derivative(self):
        g = ExteriorLaurent({1: 2.0, 5: -1.0j}, 10)
        dg = derivative(g)
        assert dg.coeffs == {2: -2.0, 6: 5.0j}

    def test_third_derivative_single_term(self):
        g = ExteriorLaurent({1: 1.0}, 1)
        assert derivative(g, 3).coeffs == {4: -6.0}

    def test_third_derivative_against_contour(self):
        g = ExteriorLaurent({1: 0.7, 2: -0.4 + 0.1j, 5: 0.9j}, 10)
        z = circle(1.2, 0.6)
        exact = derivative(g, 3).eval(z)
        numeric = contour_derivative(g.eval, z, 3, radius=0.05)
        assert abs(exact - numeric) <= 1e-6 * max(1.0, abs(numeric))

    @given(st.lists(st.tuples(st.one_of(st.integers(1, 40),
                                        st.integers(FREQ_CAP - 4, FREQ_CAP + 1)),
                              st.one_of(st.just(0j), st.complex_numbers())),
                    max_size=6),
           st.sampled_from([1, 3]))
    @settings(max_examples=200, deadline=None)
    def test_derivative_coefficients_rule(self, items, n):
        # bit for bit -k a (n = 1) and -k (k+1) (k+2) a (n = 3), with the same
        # capacity errors in the same order as the rule stated termwise
        coeffs = dict(items)

        def outcome(rule):
            try:
                out = rule(coeffs)
            except CapacityError as exc:
                return str(exc)
            return {k: (c.real.hex(), c.imag.hex()) for k, c in out.items()}

        def termwise(coeffs):
            out = {}
            for k, a in coeffs.items():
                if k > FREQ_CAP:
                    raise CapacityError(f"frequency {k} exceeds 64-bit capacity")
                if a != 0:
                    if k + n > FREQ_CAP:
                        raise CapacityError(f"frequency {k + n} exceeds 64-bit capacity")
                    out[k + n] = -k * a if n == 1 else -k * (k + 1) * (k + 2) * a
            return out

        assert outcome(lambda c: derivative_coefficients(c, n)) == outcome(termwise)

    def test_derivative_matches_contour(self):
        g = ExteriorLaurent({1: 1.0, 3: 2.0}, 5)
        z = circle(1.5, 1.0)
        assert abs(derivative(g).eval(z)
                   - contour_derivative(g.eval, z, 1, radius=0.1)) <= 1e-10


class TestAlgebra:
    def test_convolution_matches_pointwise_product(self):
        a = ExteriorLaurent({1: 1.0, 4: -0.5j}, 10)
        b = ExteriorLaurent({2: 0.3, 3: 1.0 + 1.0j}, 10)
        prod, dropped = convolve(a, b, max_freq=20)
        assert dropped == 0.0
        for z in (circle(1.3, 0.2), circle(2.0, 2.7)):
            assert prod.eval(z) == pytest.approx(a.eval(z) * b.eval(z), abs=1e-14)

    def test_convolution_truncation_mass(self):
        a = ExteriorLaurent({3: 2.0}, 3)
        prod, dropped = convolve(a, a, max_freq=5)
        assert prod.coeffs == {}
        assert dropped == pytest.approx(16.0)

    def test_convolution_capacity(self):
        # the largest pair of frequencies decides: FREQ_CAP fits, FREQ_CAP + 1 does not
        b = ExteriorLaurent({1: 1.0, 2: 0.5}, 2)
        prod, _ = convolve(ExteriorLaurent({FREQ_CAP - 2: 1.0}, FREQ_CAP), b, FREQ_CAP)
        assert prod.frequencies() == [FREQ_CAP - 1, FREQ_CAP]
        with pytest.raises(CapacityError, match="^product frequency exceeds capacity$"):
            convolve(ExteriorLaurent({FREQ_CAP - 1: 1.0}, FREQ_CAP), b, FREQ_CAP)

    @given(st.lists(st.tuples(st.integers(1, 12),
                              st.complex_numbers(max_magnitude=5, allow_nan=False,
                                                 allow_infinity=False)),
                    min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_convolution_random(self, items):
        coeffs = {}
        for k, c in items:
            coeffs[k] = coeffs.get(k, 0) + c
        a = ExteriorLaurent(coeffs, 12)
        prod, _ = convolve(a, a, max_freq=24)
        z = circle(1.4, 0.9)
        assert prod.eval(z) == pytest.approx(a.eval(z) ** 2, abs=1e-9)


class TestMetadataAndSerialization:
    def test_block_edges(self):
        ss = SelfSimilarity(3, 2)
        assert ss.block_edges(200) == [2, 6, 18, 54, 162]

    def test_round_trip(self):
        # the block ladder is not part of the document, so it is neither written nor read
        g = ExteriorLaurent({2: 1.5 - 0.25j, 7: 3.0}, 100, SelfSimilarity(2, 2))
        doc = g.to_doc()
        assert "self_similarity" not in doc
        again = ExteriorLaurent.from_doc(doc)
        assert again.to_doc() == doc
        assert again.coeffs == g.coeffs and again.max_freq == 100
        assert again.self_similarity is None
        assert ExteriorLaurent.from_doc({**doc, "self_similarity": "x"}).to_doc() == doc

    def test_malformed(self):
        with pytest.raises(ValidationError):
            ExteriorLaurent.from_doc({"coeffs": [[1, 2]]})

    @pytest.mark.parametrize("doc", [{"coeffs": [[2.7, 1.0, 0.0]], "max_freq": 8},
                                     {"coeffs": [[2, 1.0, 0.0]], "max_freq": 8.9},
                                     {"coeffs": [[True, 1.0, 0.0]], "max_freq": 8}])
    def test_non_integral_numbers_rejected(self, doc):
        with pytest.raises(ValidationError):
            ExteriorLaurent.from_doc(doc)

    @pytest.mark.parametrize("entries", [[[1, 1.0, 0.0], [1, 2.0, 0.0]],
                                         [[2, 1.0, 0.0], [3, 0.0, 1.0], ["2", 1.0, 0.0]]])
    def test_repeated_frequency_rejected(self, entries):
        # a frequency listed twice, even with the same coefficient, is not read as either
        with pytest.raises(ValidationError, match="listed twice"):
            ExteriorLaurent.from_doc({"coeffs": entries, "max_freq": 8})

    def test_integral_numbers_kept_exactly(self):
        g = ExteriorLaurent.from_doc({"coeffs": [[2.0, 1.0, 0.0], ["3", 0.5, 0.0]],
                                      "max_freq": "9223372036854775807"})
        assert sorted(g.coeffs) == [2, 3] and g.max_freq == 2**63 - 1


class TestRadialMoment:
    @pytest.mark.parametrize("e", [0.0, 0.5, 2.0, 17.0, 130.0, -0.5, -2.0, -9.0])
    @pytest.mark.parametrize("r_in, r_out", [(0.3, 0.6), (0.05, 0.97), (1.5, 40.0)])
    def test_against_a_50_digit_integral(self, e, r_in, r_out):
        # (1/pi) integral of c |w|^(e - 2) over the annulus, 2c integral of r^(e - 1) dr
        coeff = 0.7 - 1.3j
        log_r_in, log_r_out = math.log(r_in), math.log(r_out)
        with mpmath.workdps(50):
            a, b = mpmath.exp(mpmath.mpf(log_r_in)), mpmath.exp(mpmath.mpf(log_r_out))
            power = mpmath.mpf(e) - 1
            exact = complex(2 * mpmath.mpc(coeff) * mpmath.quad(lambda r: r**power, [a, b]))
        got = radial_moment(coeff, e, log_r_in, log_r_out)
        # the float product e log r carries a rounding that exp scales by e log r
        tol = 2**-52 * (2 + abs(e) * max(abs(log_r_in), abs(log_r_out)))
        assert abs(got - exact) <= tol * abs(exact)

    def test_power_conventions_at_zero_and_infinity(self):
        # r**0 = 1 at every radius, 0**pos = 0 and inf**neg = 0; the other two diverge
        assert [radial_power(0.0, l) for l in (-inf, 0.0, inf)] == [1.0, 1.0, 1.0]
        assert radial_power(3.0, -inf) == 0.0 and radial_power(-3.0, inf) == 0.0
        assert radial_power(2.0, math.log(0.5)) == pytest.approx(0.25, rel=1e-15)
        with pytest.raises(DivergentMomentError, match="support reaching 0"):
            radial_power(-1.0, -inf)
        with pytest.raises(DivergentMomentError, match="unbounded support"):
            radial_power(1.0, inf)

    def test_moments_reaching_zero_or_infinity(self):
        assert radial_moment(1.0, 2.0, -inf, math.log(0.5)) == pytest.approx(0.25, rel=1e-15)
        assert radial_moment(1.0, -2.0, math.log(2.0), inf) == pytest.approx(0.25, rel=1e-15)
        for bounds in ((-inf, 0.0), (0.0, inf)):
            with pytest.raises(DivergentMomentError, match="logarithmic moment"):
                radial_moment(1.0, 0.0, *bounds)
        with pytest.raises(DivergentMomentError):
            radial_moment(1.0, -2.0, -inf, 0.0)
        with pytest.raises(DivergentMomentError):
            radial_moment(1.0, 2.0, 0.0, inf)
