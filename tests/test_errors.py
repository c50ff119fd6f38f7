"""The shared numerical rules of `su11.errors` at their edges."""

import math
import sys

import pytest

from su11.errors import (ROUNDOFF_REL_TOL, STATIONARY_REL_TOL, NumericalError,
                         StationaryPointError, positive, real_part, roundoff, stationary)


class TestStationary:
    @pytest.mark.parametrize("mean", [0.0, 1.0, -2.5])
    def test_zero_slope_is_stationary_whatever_the_mean(self, mean):
        with pytest.raises(StationaryPointError):
            stationary(0.0, mean, "test")

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_below_the_relative_tolerance_is_stationary(self, sign):
        dmean = sign * math.nextafter(STATIONARY_REL_TOL * 3.0, 0.0)
        with pytest.raises(StationaryPointError):
            stationary(dmean, 3.0, "test")

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_exactly_at_the_relative_tolerance_is_not(self, sign):
        dmean = sign * STATIONARY_REL_TOL * 3.0
        assert stationary(dmean, -3.0, "test") == dmean


class TestPositive:
    @pytest.mark.parametrize("x", [0.0, -0.0, math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_rejects(self, x):
        with pytest.raises(NumericalError):
            positive(x, "test")

    @pytest.mark.parametrize("x", [5e-324, 1.0, sys.float_info.max])
    def test_returns_x(self, x):
        assert positive(x, "test") == x


class TestRoundoff:
    # the scale at which the estimate 4 eps scale / x of x = 1 is the tolerance
    AT_TOL = ROUNDOFF_REL_TOL / (4.0 * sys.float_info.epsilon)

    def test_raises_just_above_the_tolerance(self):
        with pytest.raises(NumericalError):
            roundoff(1.0, self.AT_TOL * (1.0 + 1e-9), "test")

    def test_returns_x_just_below_it(self):
        assert roundoff(1.0, self.AT_TOL * (1.0 - 1e-9), "test") == 1.0


class TestRealPart:
    def test_refuses_an_imaginary_part_above_the_tolerance(self):
        with pytest.raises(NumericalError, match="x should be real"):
            real_part(1e-3 + 1e-9j, "x")

    def test_a_larger_scale_tolerates_it(self):
        assert real_part(1e-3 + 1e-9j, "x", 100.0) == 1e-3

    def test_returns_the_real_part_of_a_roundoff_residue(self):
        assert real_part(1 + 1e-12j, "x") == 1.0
