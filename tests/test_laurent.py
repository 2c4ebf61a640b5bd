"""Sparse exterior series: arithmetic, calculus, metadata and serialization."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvlab.errors import FREQ_CAP, CapacityError, ValidationError
from bvlab.laurent import ExteriorLaurent, SelfSimilarity, convolve
from conftest import circle
from oracles import contour_derivative


class TestConstruction:
    def test_frequency_validation(self):
        with pytest.raises(ValidationError):
            ExteriorLaurent({0: 1.0}, 10)
        with pytest.raises(ValidationError):
            ExteriorLaurent({5: 1.0}, 3)

    def test_zero_coefficients_dropped(self):
        g = ExteriorLaurent({1: 0.0, 2: 1.0}, 10)
        assert g.frequencies() == [2]

    def test_capacity(self):
        with pytest.raises(CapacityError):
            ExteriorLaurent({2**63: 1.0}, 2**63)

    def test_third_derivative_capacity(self):
        g = ExteriorLaurent({2**63 - 2: 1.0}, 2**63 - 1)
        with pytest.raises(CapacityError):
            g.third_derivative()
        # the constructor's check guards both derivatives at the first frequency past FREQ_CAP
        with pytest.raises(CapacityError):
            ExteriorLaurent({FREQ_CAP: 1.0}, FREQ_CAP).derivative()
        with pytest.raises(CapacityError):
            ExteriorLaurent({FREQ_CAP - 2: 1.0}, FREQ_CAP).third_derivative()
        assert ExteriorLaurent({FREQ_CAP - 1: 1.0}, FREQ_CAP).derivative().frequencies() \
            == [FREQ_CAP]
        assert ExteriorLaurent({FREQ_CAP - 3: 1.0}, FREQ_CAP).third_derivative() \
            .frequencies() == [FREQ_CAP]

    def test_eval_requires_exterior_point(self):
        g = ExteriorLaurent({1: 1.0}, 1)
        with pytest.raises(ValidationError):
            g.eval(0.9)


class TestCalculus:
    def test_derivative(self):
        g = ExteriorLaurent({1: 2.0, 5: -1.0j}, 10)
        dg = g.derivative()
        assert dg.coeffs == {2: -2.0, 6: 5.0j}

    def test_third_derivative_single_term(self):
        g = ExteriorLaurent({1: 1.0}, 1)
        assert g.third_derivative().coeffs == {4: -6.0}

    def test_third_derivative_against_contour(self):
        g = ExteriorLaurent({1: 0.7, 2: -0.4 + 0.1j, 5: 0.9j}, 10)
        z = circle(1.2, 0.6)
        exact = g.third_derivative().eval(z)
        numeric = contour_derivative(g.eval, z, 3, radius=0.05)
        assert abs(exact - numeric) <= 1e-6 * max(1.0, abs(numeric))

    def test_derivative_matches_contour(self):
        g = ExteriorLaurent({1: 1.0, 3: 2.0}, 5)
        z = circle(1.5, 1.0)
        assert abs(g.derivative().eval(z)
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
        g = ExteriorLaurent({2: 1.5 - 0.25j, 7: 3.0}, 100, SelfSimilarity(2, 2))
        doc = g.to_doc()
        again = ExteriorLaurent.from_doc(doc)
        assert again.to_doc() == doc
        assert again.coeffs == g.coeffs and again.max_freq == 100
        assert again.self_similarity == g.self_similarity

    def test_malformed(self):
        with pytest.raises(ValidationError):
            ExteriorLaurent.from_doc({"coeffs": [[1, 2]]})

    @pytest.mark.parametrize("doc", [{"coeffs": [[2.7, 1.0, 0.0]], "max_freq": 8},
                                     {"coeffs": [[2, 1.0, 0.0]], "max_freq": 8.9},
                                     {"coeffs": [[True, 1.0, 0.0]], "max_freq": 8}])
    def test_non_integral_numbers_rejected(self, doc):
        with pytest.raises(ValidationError):
            ExteriorLaurent.from_doc(doc)

    def test_integral_numbers_kept_exactly(self):
        g = ExteriorLaurent.from_doc({"coeffs": [[2.0, 1.0, 0.0], ["3", 0.5, 0.0]],
                                      "max_freq": "9223372036854775807"})
        assert sorted(g.coeffs) == [2, 3] and g.max_freq == 2**63 - 1
