"""Extremality certificates via the k * kappa * gamma < 1 criterion.

``gamma`` (disagreement percolation up the tree) is always bounded by
k_beta(1) = theta.  ``kappa`` (percolation down) is bounded by the largest
value of k_beta over the four magnetisation ratios exp(+-2h), exp(+-2l) of
the measure; when some ratio equals 1 (h*l = 0) this degrades to theta.

``assess_solution`` is the one place a verdict is computed: pairs with
h*l = 0 are certified on the window 1/k < theta < 1/sqrt(k), all other
pairs by ``certify``.  ``extremality_windows`` returns its verdict alone.

The certificate is one-sided: ``Inconclusive`` never claims that a measure
is not extreme.

No separate "refined" bound exists: (1/k) * (A/J(A)) * J'(A) with
J(x) = F(x)^k and alpha = exp(-2*beta*J) equals k_beta(A) for every A > 0,
so it is the generic bound again.  It is below 1/k only near the fully
ordered fixed point A = exp(2h*), where J(A) = A and J'(A) < 1; near x = 1,
J'(x) > 1 (J'(1) = k*theta).  The functions below report honestly computed
values and never clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .kernels import Coupling, _check_theta, k_beta
from .solver import FieldPair, SolverConfig, solve_scalar

# Treat a field component this small as exactly zero when choosing between
# the h*l = 0 window and the certificate (solver zeros are exact).
ZERO_FIELD_TOL = 1e-12


class Verdict(Enum):
    EXTREME_CERTIFIED = "ExtremeCertified"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ExtremalityReport:
    kappa_bound: float
    gamma_bound: float
    product: float
    verdict: Verdict


def _require_ferromagnetic(coupling: Coupling) -> None:
    if coupling.J <= 0.0:
        raise ValueError(
            f"extremality bounds require J > 0 (ferromagnetic), got J={coupling.J!r}"
        )


def gamma_bound(coupling: Coupling) -> float:
    """Universal upward-percolation bound k_beta(1) = theta."""
    _require_ferromagnetic(coupling)
    return coupling.theta


def kappa_bound_generic(coupling: Coupling, solution: FieldPair) -> float:
    """max of k_beta over the ratios exp(2h), exp(-2h), exp(2l), exp(-2l).

    Equals theta exactly when h*l = 0 (some ratio is 1, where k_beta
    peaks); strictly below theta otherwise.
    """
    _require_ferromagnetic(coupling)
    ratios = (
        math.exp(2.0 * solution.h),
        math.exp(-2.0 * solution.h),
        math.exp(2.0 * solution.l),
        math.exp(-2.0 * solution.l),
    )
    if any(r == 1.0 for r in ratios):
        return coupling.theta
    return max(k_beta(coupling, r) for r in ratios)


def ti_field_root(k: int, theta: float) -> float:
    """Positive root h* of h = k f_theta(h) (requires theta > 1/k)."""
    theta = _check_theta(theta)
    if k < 2 or not theta > 0.0:
        raise ValueError(f"need k >= 2 and theta > 0, got k={k}, theta={theta}")
    if theta <= 1.0 / k:
        raise ValueError(f"h* exists only for theta > 1/k, got theta={theta}, k={k}")
    roots = solve_scalar(k, theta, SolverConfig())
    return max(roots)


def certify(k: int, kappa: float, gamma: float) -> ExtremalityReport:
    """Build the report for the sufficient criterion k * kappa * gamma < 1."""
    if not (0.0 <= kappa < 1.0 and 0.0 <= gamma < 1.0):
        raise ValueError(f"bounds must lie in [0, 1), got kappa={kappa}, gamma={gamma}")
    product = k * kappa * gamma
    verdict = Verdict.EXTREME_CERTIFIED if product < 1.0 else Verdict.INCONCLUSIVE
    return ExtremalityReport(
        kappa_bound=kappa, gamma_bound=gamma, product=product, verdict=verdict
    )


def assess_solution(k: int, coupling: Coupling, solution: FieldPair) -> ExtremalityReport:
    """Bounds, product and verdict for one solved pair: the one place a
    verdict is computed.

    * h*l = 0 (either component within ``ZERO_FIELD_TOL`` of 0): both bounds
      are theta and the product is k*theta^2, but the verdict is the window
      1/k < theta < 1/sqrt(k).  At theta <= 1/k the product is below 1 and
      the verdict is still ``Inconclusive``: the window, not the product,
      decides these pairs (only (0, 0) has h*l = 0 there).
    * both components nonzero: ``certify`` on the generic k_beta maximum,
      which is even in (h, l), so no sign normalisation is needed.
    """
    gamma = gamma_bound(coupling)
    theta = coupling.theta
    if abs(solution.h) <= ZERO_FIELD_TOL or abs(solution.l) <= ZERO_FIELD_TOL:
        in_window = (1.0 / k) < theta < (1.0 / math.sqrt(k))
        return ExtremalityReport(
            kappa_bound=theta,
            gamma_bound=gamma,
            product=k * theta * gamma,
            verdict=Verdict.EXTREME_CERTIFIED if in_window else Verdict.INCONCLUSIVE,
        )
    return certify(k, kappa_bound_generic(coupling, solution), gamma)


def extremality_windows(k: int, theta: float, solution: FieldPair) -> Verdict:
    """The verdict of ``assess_solution`` at ``theta`` (in (0, 1))."""
    return assess_solution(k, Coupling.from_theta(theta), solution).verdict
