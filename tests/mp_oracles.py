"""High-precision oracles for frozen test constants.

These recompute, via mpmath, the reference values hard-coded in the test
modules, independently of the double-precision implementation under test.
"""

import mpmath as mp

mp.mp.dps = 30


def mp_f_theta(theta, h):
    return mp.atanh(mp.mpf(theta) * mp.tanh(mp.mpf(h)))


def mp_scalar_root(m, theta, x0=2.0):
    """Positive root of h = m * f_theta(h) by Newton iteration."""
    theta = mp.mpf(theta)
    return mp.findroot(lambda h: h - m * mp_f_theta(theta, h), mp.mpf(x0))


def mp_turning_point(d, theta):
    """The x > 0 with d * f_theta'(x) = 1, from tanh(x)^2 = (d theta - 1) /
    (d theta - theta^2) (requires d*theta > 1)."""
    theta = mp.mpf(theta)
    t_sq = (d * theta - 1) / (d * theta - theta**2)
    return mp.atanh(mp.sqrt(t_sq))


def mp_shifted_gain(d, theta):
    """max over x >= 0 of d * f_theta(x) - x (requires d*theta > 1)."""
    x_bar = mp_turning_point(d, theta)
    return d * mp_f_theta(mp.mpf(theta), x_bar) - x_bar
