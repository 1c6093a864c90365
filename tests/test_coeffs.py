import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmin import CoefficientSpec, Grid, vanishing_prefix
from hypmin.coeffs import cumtrapz, prefix_of_samples, relative_tol
from hypmin.errors import DomainError


class TestEval:
    def test_constant(self):
        assert CoefficientSpec.constant(3.0)(0.7) == 3.0

    def test_step_both_sides(self):
        spec = CoefficientSpec.step(0.3, 0.0, 1.0)
        assert spec(0.2) == 0.0
        assert spec(0.3) == 0.0  # lo applies at the threshold
        assert spec(0.4) == 1.0

    def test_expbump_at_one(self):
        val = CoefficientSpec.expbump()(1.0)
        assert val == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_expbump_shifted(self):
        spec = CoefficientSpec.expbump(0.5)
        assert spec(0.5) == 0.0
        assert spec(1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_polynomial(self):
        spec = CoefficientSpec.polynomial([1.0, 2.0, 3.0])
        assert spec(0.5) == pytest.approx(1 + 1 + 0.75)

    def test_sampled(self):
        spec = CoefficientSpec.sampled([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert spec(0.25) == pytest.approx(0.5)

    def test_vectorized(self):
        spec = CoefficientSpec.polynomial([0.0, 1.0])
        xs = np.array([0.0, 0.5, 1.0])
        assert np.allclose(spec(xs), xs)

    @pytest.mark.parametrize("coeffs", [[1e308, 1e308], [1.0, 1e308, 1e308],
                                        [-1.0, -1e308, -1e308], [sys.float_info.max / 2],
                                        [-sys.float_info.max / 4, sys.float_info.max / 4]])
    def test_polynomial_that_can_overflow_is_refused(self, coeffs):
        # sum |coeffs| bounds |f| on [0,1]: from half the largest float on,
        # f or a partial sum of its evaluation may overflow
        with pytest.raises(DomainError, match=r"can overflow on \[0,1\]"):
            CoefficientSpec.polynomial(coeffs)

    @pytest.mark.parametrize("coeffs", [[1e300, 1e300],
                                        [math.nextafter(sys.float_info.max / 2, 0.0)],
                                        [1.0, math.nan], [-1.0, -math.inf], [math.inf, 1e308]])
    def test_polynomial_below_half_max_or_not_finite_is_built(self, coeffs):
        # non-finite coefficients are left to the checks of the config
        # loader and SpeedPair, whose messages name them
        np.testing.assert_array_equal(CoefficientSpec.polynomial(coeffs).params, coeffs)

    def test_sampled_validation(self):
        with pytest.raises(DomainError):
            CoefficientSpec.sampled([0.0, 0.5, 0.5, 1.0], [0, 1, 2, 3])
        with pytest.raises(DomainError):
            CoefficientSpec.sampled([0.1, 1.0], [0, 1])


# coefficients from 1e-5 to 1e5 in magnitude, signed zeros among them
_COEFF = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-5.0, 5.0))
                   .map(lambda t: t[0] * 10.0 ** t[1]))
# times beyond [0,1] too: the polynomial control is evaluated at times t
_X = st.floats(-0.5, 3.0)


class TestHorner:
    @settings(max_examples=300, deadline=None)
    @given(coeffs=st.lists(_COEFF, min_size=1, max_size=5),
           x=st.one_of(_X, _X.map(np.array), st.lists(_X, min_size=1, max_size=6).map(np.array)))
    def test_bitwise_polyval(self, coeffs, x):
        from numpy.polynomial.polynomial import polyval
        got = CoefficientSpec.polynomial(coeffs)(x)
        want = np.asarray(polyval(x, coeffs))
        assert type(got) is (float if want.ndim == 0 else np.ndarray)
        assert np.shape(got) == want.shape
        assert np.asarray(got).tobytes() == want.tobytes()


class TestCumtrapz:
    @given(st.integers(min_value=1, max_value=50))
    def test_exact_on_linear(self, n):
        xs = np.linspace(0.0, 1.0, n + 1)
        got = cumtrapz(0.3 + 2.0 * xs, 1.0 / n)
        assert got[0] == 0.0
        np.testing.assert_allclose(got, 0.3 * xs + xs ** 2, rtol=0, atol=1e-14)


class TestVanishingPrefix:
    def test_step(self):
        grid = Grid.uniform(200)
        spec = CoefficientSpec.step(0.3, 0.0, 1.0)
        val = vanishing_prefix(spec, 0.5, 1e-12, grid)
        assert abs(val - 0.3) <= grid.h

    def test_expbump_tolerance_artifact(self):
        # oracle: exp(-1/x) > tol exactly for x > 1/log(1/tol)
        tol = 1e-12
        crossing = 1.0 / math.log(1.0 / tol)
        grid = Grid.uniform(2000)
        val = vanishing_prefix(CoefficientSpec.expbump(), 0.5, tol, grid)
        assert val <= crossing + 1e-15
        assert val >= crossing - 2 * grid.h

    def test_identically_zero(self):
        grid = Grid.uniform(100)
        assert vanishing_prefix(CoefficientSpec.constant(0.0), 0.5, 1e-12, grid) == 0.5

    def test_nonzero_at_origin(self):
        grid = Grid.uniform(100)
        assert vanishing_prefix(CoefficientSpec.constant(2.0), 0.5, 1e-12, grid) == 0.0

    def test_bad_args(self):
        grid = Grid.uniform(10)
        with pytest.raises(DomainError):
            vanishing_prefix(CoefficientSpec.constant(0.0), 0.0, 1e-12, grid)
        with pytest.raises(DomainError, match="non-negative"):
            vanishing_prefix(CoefficientSpec.constant(0.0), 0.5, -1.0, grid)
        with pytest.raises(DomainError, match="non-negative"):
            vanishing_prefix(CoefficientSpec.constant(0.0), 0.5, math.nan, grid)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1e-14, max_value=1e-2),
           st.floats(min_value=1.0, max_value=100.0))
    def test_monotone_in_tol(self, tol, factor):
        grid = Grid.uniform(500)
        spec = CoefficientSpec.expbump()
        lo = vanishing_prefix(spec, 1.0, tol, grid)
        hi = vanishing_prefix(spec, 1.0, tol * factor, grid)
        assert lo <= hi

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scaling_invariance(self, s):
        grid = Grid.uniform(300)
        xs = grid.nodes
        vals = np.where(xs > 0.4, np.sin(3 * xs) + 1.5, 0.0)
        tol = 1e-9
        base = prefix_of_samples(vals, grid.h, 1.0, tol)
        scaled = prefix_of_samples(s * vals, grid.h, 1.0, abs(s) * tol)
        assert base == scaled

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_relative_tol_refuses_non_finite_samples(self, value):
        grid = Grid.uniform(10)
        with pytest.raises(DomainError, match="finite samples"):
            relative_tol(lambda x: np.where(x > 0.5, value, 0.0), grid)

    def test_relative_tol_zero_function(self):
        grid = Grid.uniform(10)
        assert relative_tol(CoefficientSpec.constant(0.0), grid) == 1e-12
