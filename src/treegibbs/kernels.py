"""Scalar kernels shared by the fixed-point solver and the extremality bounds.

Everything here is a pure function of its arguments:

* ``f_theta(theta, h) = arctanh(theta * tanh(h))`` -- the field recursion
  kernel of the nearest-neighbour Ising model on a tree, with
  ``theta = tanh(beta * J)``;
* ``k_beta`` -- the variation-distance kernel
  ``1/(exp(-2 b J) a + 1) - 1/(exp(2 b J) a + 1)``, maximised at ``a = 1``
  where it equals ``theta``;
* ``big_f(alpha, x) = (alpha + x) / (1 + alpha x)`` -- the Moebius map that
  conjugates ``f_theta`` to a rational map of ``exp(2 h)``:
  ``exp(2 f_theta(h)) = big_f(exp(2 h))`` when ``alpha = exp(-2 b J)``.

All functions accept floats or numpy arrays and preserve the input kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# arctanh is evaluated as 0.5*log((1+x)/(1-x)) and refuses inputs within
# this distance of the singularity instead of clamping: a value that close
# to +-1 means an upstream iteration diverged and should be surfaced.
ATANH_GUARD = 1e-15


def arctanh(x):
    """Inverse hyperbolic tangent, guarded against |x| >= 1 - 1e-15.

    Evaluated as sign(x) * 0.5 * log((1+|x|)/(1-|x|)) so that oddness holds
    bitwise, which downstream symmetry checks rely on.
    """
    if isinstance(x, np.ndarray):
        if not np.all(np.isfinite(x)) or np.any(np.abs(x) >= 1.0 - ATANH_GUARD):
            raise ValueError("arctanh argument must be finite with |x| < 1 - 1e-15")
        # a fresh float buffer of at least one dimension for the in-place
        # body: float32 stays float32, and a 0-d array gives a numpy scalar
        buf = np.array(x, dtype=x.dtype if x.dtype.kind == "f" else float, ndmin=1)
        return _arctanh_unchecked(buf).reshape(x.shape)[()]
    x = float(x)
    if not math.isfinite(x) or abs(x) >= 1.0 - ATANH_GUARD:
        raise ValueError(f"arctanh argument out of domain: {x!r}")
    return _arctanh_unchecked(x)


def _arctanh_unchecked(x):
    """``arctanh``'s expression without its domain check.

    A float array is overwritten with the result, so the caller must own it.
    """
    if isinstance(x, np.ndarray):
        mag = np.abs(x)
        den = 1.0 - mag
        mag += 1.0
        mag /= den
        np.log(mag, out=mag)
        mag *= 0.5
        np.sign(x, out=x)
        x *= mag
        return x
    x = float(x)
    if x == 0.0:
        return 0.0
    mag = abs(x)
    return math.copysign(0.5 * math.log((1.0 + mag) / (1.0 - mag)), x)


def _check_theta(theta):
    """The package's theta domain: finite with ``|theta| < 1 - ATANH_GUARD``.

    Every entry point that takes theta calls this.  ``arctanh(theta)``
    bounds every field, so a theta inside the guard is refused here, the
    same way wherever it enters, rather than by whichever kernel call
    happens to meet it.  An array is checked element by element and
    returned as it is; its first element outside the domain raises the
    error that element raises alone.
    """
    if isinstance(theta, np.ndarray):
        outside = ~(np.abs(theta) < 1.0 - ATANH_GUARD)  # nan is outside too
        if not outside.any():
            return theta
        theta = theta[outside].flat[0]
    theta = float(theta)
    if not math.isfinite(theta) or abs(theta) >= 1.0 - ATANH_GUARD:
        raise ValueError(f"theta must satisfy |theta| < 1 - {ATANH_GUARD:g}, got {theta!r}")
    return theta


def f_theta(theta, h):
    """Recursion kernel arctanh(theta * tanh(h)).

    Odd in both arguments, bounded by arctanh(|theta|), strictly increasing
    in ``h`` for ``theta > 0``.

    ``theta`` is checked once, by ``_check_theta``: inside its domain every
    float64 ``|theta * tanh(h)| <= |theta|`` is clear of the arctanh guard,
    so only an array of another float type goes through the checked
    ``arctanh``.  An array ``theta`` is broadcast against an array ``h`` of
    the result's shape: each element takes the same float operations, in
    the same order, as a scalar theta.
    """
    theta = _check_theta(theta)
    if isinstance(h, np.ndarray):
        if not np.isfinite(h).all():
            raise ValueError("field argument must be finite")
        x = np.tanh(h)  # a fresh array, or a numpy scalar for a 0-d h
        x *= theta
        if x.dtype != np.float64:
            # in fewer bits theta * tanh(h) rounds to +-1 for a theta near 1
            # that is clear of the guard, so each element is checked
            return arctanh(x)
        return _arctanh_unchecked(x)
    h = float(h)
    if not math.isfinite(h):
        raise ValueError(f"field argument must be finite, got {h!r}")
    return _arctanh_unchecked(theta * math.tanh(h))


def f_theta_prime(theta: float, h):
    """d/dh of ``f_theta``: theta * (1 - tanh(h)^2) / (1 - theta^2 tanh(h)^2).

    Equals ``theta`` at ``h = 0`` and lies in ``(0, theta]`` for
    ``theta > 0``.
    """
    theta = _check_theta(theta)
    if isinstance(h, np.ndarray):
        if not np.all(np.isfinite(h)):
            raise ValueError("field argument must be finite")
        t = np.tanh(h)
    else:
        h = float(h)
        if not math.isfinite(h):
            raise ValueError(f"field argument must be finite, got {h!r}")
        t = math.tanh(h)
    return theta * (1.0 - t * t) / (1.0 - theta * theta * t * t)


@dataclass(frozen=True)
class Coupling:
    """Interaction energy J, inverse temperature beta and theta = tanh(beta*J)."""

    J: float
    beta: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.J) and math.isfinite(self.beta)):
            raise ValueError("J and beta must be finite")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be positive, got {self.beta!r}")
        _check_theta(self.theta)
        expected = math.tanh(self.beta * self.J)
        scale = max(abs(expected), abs(self.theta), 1e-300)
        if abs(self.theta - expected) > 1e-14 * scale + 1e-300:
            raise ValueError(
                f"theta={self.theta!r} inconsistent with tanh(beta*J)={expected!r}"
            )

    @classmethod
    def from_interaction(cls, J: float, beta: float) -> "Coupling":
        return cls(J=float(J), beta=float(beta), theta=math.tanh(float(beta) * float(J)))

    @classmethod
    def from_theta(cls, theta: float) -> "Coupling":
        """Coupling with the given theta and J = sign(theta) (theta = 0
        gives J = 0 and beta = 1)."""
        theta = _check_theta(theta)
        if theta == 0.0:
            return cls(J=0.0, beta=1.0, theta=0.0)
        J = math.copysign(1.0, theta)
        return cls(J=J, beta=arctanh(theta) / J, theta=theta)

    @property
    def beta_j(self) -> float:
        return self.beta * self.J


def k_beta(coupling: Coupling, a):
    """Variation-distance kernel 1/(e^{-2bJ} a + 1) - 1/(e^{2bJ} a + 1).

    Defined for a >= 0; increasing on [0, 1], decreasing on [1, inf),
    with maximum k_beta(1) = tanh(beta*J) = theta.
    """
    bj = coupling.beta_j
    if isinstance(a, np.ndarray):
        if np.any(a < 0.0):
            raise ValueError("k_beta argument must be non-negative")
        return 1.0 / (np.exp(-2.0 * bj) * a + 1.0) - 1.0 / (np.exp(2.0 * bj) * a + 1.0)
    a = float(a)
    if a < 0.0:
        raise ValueError(f"k_beta argument must be non-negative, got {a!r}")
    return 1.0 / (math.exp(-2.0 * bj) * a + 1.0) - 1.0 / (math.exp(2.0 * bj) * a + 1.0)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def big_f(alpha: float, x):
    """Moebius map F(x) = (alpha + x) / (1 + alpha x) on x >= 0.

    Strictly increasing, maps [0, inf) into [alpha, 1/alpha).
    """
    alpha = _check_alpha(alpha)
    if isinstance(x, np.ndarray):
        if np.any(x < 0.0):
            raise ValueError("big_f argument must be non-negative")
        return (alpha + x) / (1.0 + alpha * x)
    x = float(x)
    if x < 0.0:
        raise ValueError(f"big_f argument must be non-negative, got {x!r}")
    return (alpha + x) / (1.0 + alpha * x)


def big_f_prime(alpha: float, x):
    """d/dx of ``big_f``: (1 - alpha^2) / (1 + alpha x)^2."""
    alpha = _check_alpha(alpha)
    if isinstance(x, np.ndarray):
        if np.any(x < 0.0):
            raise ValueError("big_f_prime argument must be non-negative")
    else:
        x = float(x)
        if x < 0.0:
            raise ValueError(f"big_f_prime argument must be non-negative, got {x!r}")
    return (1.0 - alpha * alpha) / (1.0 + alpha * x) ** 2
