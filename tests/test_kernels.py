"""Properties of the scalar kernels: oddness, bounds, derivatives,
unimodality and the Moebius-map identity."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from treegibbs import (
    Coupling,
    ReducedParams,
    arctanh,
    big_f,
    big_f_prime,
    f_theta,
    f_theta_prime,
    k_beta,
    max_shifted_gain,
    nonuniqueness_criterion,
    solve_scalar,
    solve_system,
    ti_field_root,
)
from treegibbs.kernels import ATANH_GUARD

from mp_oracles import mp_f_theta

THETA_GRID = [s * t for t in (0.1, 0.3, 0.5, 0.7, 0.9) for s in (1, -1)]
H_GRID = np.linspace(-5.0, 5.0, 41)

# frozen from the mpmath oracle: arctanh(0.5 * tanh(1))
F_HALF_AT_ONE = 0.4009915814270069


class TestArctanh:
    def test_value(self):
        assert arctanh(0.5) == pytest.approx(0.5493061443340548, abs=1e-15)

    def test_matches_log_form(self):
        xs = np.linspace(-0.99, 0.99, 199)
        np.testing.assert_allclose(arctanh(xs), 0.5 * np.log((1 + xs) / (1 - xs)))

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1 - 1e-16, -(1 - 1e-16), 2.0, math.nan, math.inf])
    def test_domain_guard_raises(self, bad):
        with pytest.raises(ValueError):
            arctanh(bad)

    def test_array_guard(self):
        with pytest.raises(ValueError):
            arctanh(np.array([0.0, 1.0]))


class TestFTheta:
    def test_zero(self):
        assert f_theta(0.5, 0.0) == 0.0

    def test_frozen_value(self):
        assert f_theta(0.5, 1.0) == pytest.approx(F_HALF_AT_ONE, abs=1e-14)

    def test_frozen_value_matches_mp_oracle(self):
        assert abs(float(mp_f_theta(0.5, 1.0)) - F_HALF_AT_ONE) < 1e-15

    def test_saturation_limit(self):
        # tanh saturates to 1 in double precision well before h = 50
        assert f_theta(0.5, 50.0) == pytest.approx(arctanh(0.5), abs=1e-14)

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_bounded_by_arctanh_theta(self, theta):
        vals = np.abs(f_theta(theta, H_GRID))
        assert np.all(vals < arctanh(abs(theta)))

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_odd_in_h(self, theta):
        np.testing.assert_array_equal(f_theta(theta, -H_GRID), -f_theta(theta, H_GRID))

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_odd_in_theta(self, theta):
        np.testing.assert_array_equal(f_theta(-theta, H_GRID), -f_theta(theta, H_GRID))

    @given(
        theta=st.floats(-0.95, 0.95),
        h=st.floats(-30.0, 30.0),
    )
    def test_odd_and_bounded_hypothesis(self, theta, h):
        value = f_theta(theta, h)
        assert value == -f_theta(theta, -h)
        assert abs(value) <= arctanh(abs(theta)) if theta != 0.0 else value == 0.0

    def test_concave_for_positive_quadrant(self):
        # second central difference negative for theta > 0, h > 0
        hs = np.linspace(0.05, 5.0, 60)
        eps = 1e-4
        for theta in (0.1, 0.5, 0.9):
            second = f_theta(theta, hs + eps) - 2 * f_theta(theta, hs) + f_theta(theta, hs - eps)
            assert np.all(second < 0.0)

    @pytest.mark.parametrize("bad_theta", [1.0, -1.0, 1.5, math.nan])
    def test_theta_domain(self, bad_theta):
        with pytest.raises(ValueError):
            f_theta(bad_theta, 0.3)

    @pytest.mark.parametrize("bad_h", [math.inf, -math.inf, math.nan])
    def test_h_domain(self, bad_h):
        with pytest.raises(ValueError):
            f_theta(0.5, bad_h)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestFThetaBits:
    """``f_theta`` checks the guard on theta once and then evaluates
    arctanh's expression itself; its bits must be the literal formula's."""

    # just below the guard, where the unchecked path still applies
    EDGE = math.nextafter(1.0 - ATANH_GUARD, 0.0)
    THETAS = [s * t for t in (0.05, 0.3, 0.5, 0.8, 0.95, EDGE) for s in (1, -1)]
    HS = [0.0, -0.0, 1e-300, -1e-300, 0.37, -2.5, 20.0, -20.0, 800.0, -800.0]

    @staticmethod
    def _literal_array(theta, hs):
        x = theta * np.tanh(hs)
        mag = np.abs(x)
        return np.sign(x) * (0.5 * np.log((1.0 + mag) / (1.0 - mag)))

    @staticmethod
    def _literal_scalar(theta, h):
        x = theta * math.tanh(h)
        mag = abs(x)
        sign = float((x > 0.0) - (x < 0.0))
        return sign * (0.5 * math.log((1.0 + mag) / (1.0 - mag)))

    @pytest.mark.parametrize("theta", THETAS)
    def test_array_bits_match_literal(self, theta):
        hs = np.array(self.HS + list(np.linspace(-6.0, 6.0, 97)))
        before = hs.copy()
        got = f_theta(theta, hs)
        np.testing.assert_array_equal(_bits(got), _bits(self._literal_array(theta, hs)))
        np.testing.assert_array_equal(_bits(hs), _bits(before))  # input untouched

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("h", HS)
    def test_scalar_bits_match_literal(self, theta, h):
        got = f_theta(theta, h)
        assert type(got) is float
        assert _bits(got) == _bits(self._literal_scalar(theta, h))

    def test_array_theta_bits_match_rows(self):
        # a column of thetas against a grid per row, as the scan's coarse
        # pass calls it, and one theta per point, as its second pass does
        thetas = np.array(self.THETAS)
        hs = np.array(self.HS + list(np.linspace(-6.0, 6.0, 97)))
        grid = np.array([hs * (1.0 + 0.1 * row) for row in range(len(thetas))])
        got = f_theta(thetas[:, None], grid)
        for row, theta in enumerate(self.THETAS):
            np.testing.assert_array_equal(_bits(got[row]), _bits(f_theta(theta, grid[row])))
        flat = f_theta(np.repeat(thetas, hs.size), grid.ravel())
        np.testing.assert_array_equal(_bits(flat), _bits(got.ravel()))

    @pytest.mark.parametrize(
        "bad", [1.0 - ATANH_GUARD, math.nextafter(1.0, 0.0), -1.0, 1.5, math.inf, math.nan]
    )
    def test_array_theta_checked_per_element(self, bad):
        with pytest.raises(ValueError) as scalar:
            f_theta(bad, np.array([0.3]))
        with pytest.raises(ValueError) as array:
            f_theta(np.array([[0.5], [bad], [-0.3]]), np.zeros((3, 4)))
        assert str(array.value) == str(scalar.value)

    def test_zero_d_array_gives_float(self):
        for h in (np.array(0.3), np.array(-0.0)):
            got = f_theta(0.5, h)
            assert type(got) is float
            assert _bits(got) == _bits(f_theta(0.5, float(h)))
        # tanh runs in float32 here, the arctanh step in float
        assert type(f_theta(0.5, np.array(0.3, dtype=np.float32))) is float

    def test_shape_and_dtype_kept(self):
        empty = f_theta(0.5, np.array([]))
        assert empty.shape == (0,) and empty.dtype == np.float64
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        got = f_theta(0.5, grid)
        assert got.shape == (3, 4)
        np.testing.assert_array_equal(got.ravel(), f_theta(0.5, grid.ravel()))
        single = f_theta(0.5, grid.astype(np.float32))
        assert single.dtype == np.float32 and single.shape == (3, 4)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_array_raises(self, bad):
        with pytest.raises(ValueError):
            f_theta(0.5, np.array([0.1, bad]))

    def test_float32_near_one_stays_checked(self):
        # EDGE is clear of the guard, but EDGE * tanh(20) rounds to 1 in float32
        with pytest.raises(ValueError):
            f_theta(self.EDGE, np.array([0.5, 20.0], dtype=np.float32))
        with pytest.raises(ValueError):
            f_theta(-self.EDGE, np.array(20.0, dtype=np.float32))

    @pytest.mark.parametrize("theta", [1.0 - ATANH_GUARD, math.nextafter(1.0, 0.0)])
    def test_theta_inside_guard_stays_checked(self, theta):
        # tanh(20) rounds to 1, so theta * tanh(h) lands inside the guard
        for h in (20.0, np.array([0.0, 20.0])):
            with pytest.raises(ValueError):
                f_theta(theta, h)
            with pytest.raises(ValueError):
                f_theta(-theta, h)
        # a small |h| stays clear of the guard, but theta itself is refused
        with pytest.raises(ValueError):
            f_theta(theta, 0.5)


def _theta_calls(theta, beta):
    """One call per entry point that takes theta.  Those defined for
    theta > 0 only get ``|theta|``; the couplings get J = sign(theta) and
    ``beta``."""
    sign = math.copysign(1.0, theta)
    pos = abs(theta)
    return {
        "f_theta": lambda: f_theta(theta, 0.5),
        "f_theta_array": lambda: f_theta(theta, np.array([0.0, 0.5, 20.0])),
        "f_theta_theta_array": lambda: f_theta(np.array([0.5, theta]), np.array([0.5, 20.0])),
        "f_theta_prime": lambda: f_theta_prime(theta, 0.5),
        "from_theta": lambda: Coupling.from_theta(theta),
        "from_interaction": lambda: Coupling.from_interaction(sign, beta),
        "Coupling": lambda: Coupling(J=sign, beta=beta, theta=theta),
        "solve_system_2002": lambda: solve_system(ReducedParams(2, 0, 0, 2, 2), theta),
        "solve_system_-200-2": lambda: solve_system(ReducedParams(-2, 0, 0, -2, 2), theta),
        "nonuniqueness_criterion": lambda: nonuniqueness_criterion(
            ReducedParams(2, 0, 0, 2, 2), theta
        ),
        "solve_scalar": lambda: solve_scalar(2, pos),
        "max_shifted_gain": lambda: max_shifted_gain(2, pos),
        "ti_field_root": lambda: ti_field_root(2, pos),
    }


class TestThetaDomain:
    """Every entry point that takes theta refuses the same band within
    ATANH_GUARD of +-1, also where its own computation would not meet the
    arctanh guard (reduction (-2,0,0,-2) at theta > 0 needs no kernel call,
    and f_theta(theta, 0.5) stays clear of it), and accepts the float
    below the band."""

    BAND = [1.0 - ATANH_GUARD, 0.9999999999999994, math.nextafter(1.0, 0.0)]
    EDGE = math.nextafter(1.0 - ATANH_GUARD, 0.0)
    NAMES = list(_theta_calls(0.5, 1.0))

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("theta", BAND + [-t for t in BAND])
    def test_band_refused(self, theta, name):
        # tanh(17.8) = 0.9999999999999993 lies in the band
        call = _theta_calls(theta, 17.8)[name]
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("theta", [EDGE, -EDGE])
    def test_edge_accepted(self, theta, name):
        # tanh(atanh(EDGE)) rounds back to EDGE
        assert _theta_calls(theta, math.atanh(self.EDGE))[name]() is not None


class TestFThetaPrime:
    def test_slope_at_origin(self):
        assert f_theta_prime(0.7, 0.0) == 0.7

    def test_within_slope_bound(self):
        value = f_theta_prime(0.7, 2.0)
        assert 0.0 < value < 0.7

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_matches_central_difference(self, theta):
        step = 1e-6
        fd = (f_theta(theta, H_GRID + step) - f_theta(theta, H_GRID - step)) / (2 * step)
        np.testing.assert_allclose(f_theta_prime(theta, H_GRID), fd, atol=1e-8)

    def test_specific_fd_check(self):
        step = 1e-6
        fd = (f_theta(0.5, 1.0 + step) - f_theta(0.5, 1.0 - step)) / (2 * step)
        assert f_theta_prime(0.5, 1.0) == pytest.approx(fd, abs=1e-8)


class TestCoupling:
    def test_from_interaction(self):
        c = Coupling.from_interaction(J=1.0, beta=0.5)
        assert c.theta == pytest.approx(math.tanh(0.5), abs=1e-15)

    def test_from_theta_round_trip(self):
        for theta in (0.8, -0.6, 0.05):
            c = Coupling.from_theta(theta)
            assert math.tanh(c.beta * c.J) == pytest.approx(theta, abs=1e-15)
            assert c.beta > 0
        assert Coupling.from_theta(0.0).theta == 0.0

    def test_inconsistent_theta_rejected(self):
        with pytest.raises(ValueError):
            Coupling(J=1.0, beta=0.5, theta=0.3)

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError):
            Coupling(J=1.0, beta=0.0, theta=0.0)

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            Coupling(J=1e9, beta=1.0, theta=1.0)


class TestKBeta:
    def test_peak_value(self):
        c = Coupling.from_interaction(J=1.0, beta=0.5)
        assert k_beta(c, 1.0) == pytest.approx(0.46211715726000976, abs=1e-15)
        assert k_beta(c, 1.0) == pytest.approx(c.theta, abs=1e-15)

    def test_zero(self):
        c = Coupling.from_interaction(J=1.0, beta=0.5)
        assert k_beta(c, 0.0) == 0.0

    def test_decreasing_tail(self):
        c = Coupling.from_interaction(J=1.0, beta=0.5)
        assert k_beta(c, 10.0) < k_beta(c, 1.0)
        assert k_beta(c, 10.0) > k_beta(c, 100.0)

    def test_unimodal_on_geometric_grid(self):
        c = Coupling.from_interaction(J=1.0, beta=0.7)
        rising = np.geomspace(1e-3, 1.0, 80)
        falling = np.geomspace(1.0, 1e3, 80)
        assert np.all(np.diff(k_beta(c, rising)) > 0)
        assert np.all(np.diff(k_beta(c, falling)) < 0)

    def test_negative_argument_rejected(self):
        c = Coupling.from_interaction(J=1.0, beta=0.5)
        with pytest.raises(ValueError):
            k_beta(c, -0.1)


class TestBigF:
    def test_fixed_point_at_one(self):
        for alpha in (0.1, 0.3, 0.9):
            assert big_f(alpha, 1.0) == 1.0

    def test_value_at_zero(self):
        assert big_f(0.3, 0.0) == 0.3

    def test_range_and_monotonicity(self):
        alpha = 0.25
        xs = np.linspace(0.0, 50.0, 500)
        ys = big_f(alpha, xs)
        assert np.all(ys >= alpha) and np.all(ys < 1 / alpha)
        assert np.all(np.diff(ys) > 0)

    def test_conjugation_identity(self):
        # exp(2 f_theta(h)) == F(exp(2h)) with alpha = exp(-2*beta*J)
        beta_j = 0.5
        theta = math.tanh(beta_j)
        alpha = math.exp(-2 * beta_j)
        h = 0.7
        lhs = math.exp(2 * f_theta(theta, h))
        rhs = big_f(alpha, math.exp(2 * h))
        assert lhs == pytest.approx(rhs, abs=1e-12)
        for h in np.linspace(-3, 3, 25):
            assert math.exp(2 * f_theta(theta, h)) == pytest.approx(
                big_f(alpha, math.exp(2 * h)), rel=1e-13
            )

    def test_prime_matches_difference(self):
        alpha = 0.2
        xs = np.linspace(0.01, 10.0, 50)
        step = 1e-6
        fd = (big_f(alpha, xs + step) - big_f(alpha, xs - step)) / (2 * step)
        np.testing.assert_allclose(big_f_prime(alpha, xs), fd, atol=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            big_f(0.3, -1.0)
        with pytest.raises(ValueError):
            big_f(1.0, 0.5)
        with pytest.raises(ValueError):
            big_f(0.0, 0.5)
