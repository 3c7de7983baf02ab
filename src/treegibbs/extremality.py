"""Extremality certificates via the k * kappa * gamma < 1 criterion.

``gamma`` (disagreement percolation up the tree) is always bounded by
k_beta(1) = theta.  ``kappa`` (percolation down) is bounded by the largest
value of k_beta over the four magnetisation ratios exp(+-2h), exp(+-2l) of
the measure; when some ratio equals 1 (h*l = 0) this degrades to theta.

The certificate is one-sided: ``Inconclusive`` never claims that a measure
is not extreme.

The "refined" bound rewrites k_beta(A) as (1/k) * (A/J(A)) * J'(A) with
J(x) = F(x)^k and alpha = exp(-2*beta*J); the identity is exact for every
A > 0.  Concluding that this is <= 1/k whenever 1/k < theta and
exp(2h) <= exp(2h*) would be wrong: J'(x) > 1 near x = 1 (J'(1) =
k*theta), so the inequality only holds near the fully ordered fixed point
A = exp(2h*), where J(A) = A and J'(A) < 1.  The functions below report
honestly computed values and never clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .kernels import Coupling, big_f, big_f_prime, k_beta
from .scheme import SchemeMatrix
from .solver import FieldPair, SolverConfig, solve_scalar

# Treat a field component this small as exactly zero when choosing between
# the h*l = 0 window and the fully-positive branch (solver zeros are exact).
ZERO_FIELD_TOL = 1e-12


class Verdict(Enum):
    EXTREME_CERTIFIED = "ExtremeCertified"
    INCONCLUSIVE = "Inconclusive"


class BoundMethod(Enum):
    GENERIC_K_BETA = "GenericKBeta"
    REFINED_OVER_K = "RefinedOverK"


@dataclass(frozen=True)
class ExtremalityReport:
    kappa_bound: float
    gamma_bound: float
    product: float
    verdict: Verdict
    method: BoundMethod


class AlphaConvention(Enum):
    """Choice of alpha in the Moebius map F.

    ``EXP_MINUS_2BJ`` is the convention under which exponentiating the
    two-field system is an identity (exp(2 f_theta(h)) = F(exp(2h)));
    ``EXP_MINUS_BJ`` is kept selectable for comparison and demonstrably
    breaks that identity.
    """

    EXP_MINUS_2BJ = "exp(-2*beta*J)"
    EXP_MINUS_BJ = "exp(-beta*J)"


def _alpha(coupling: Coupling, convention: AlphaConvention) -> float:
    if convention is AlphaConvention.EXP_MINUS_2BJ:
        return math.exp(-2.0 * coupling.beta_j)
    return math.exp(-coupling.beta_j)


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
    if k < 2 or not (0.0 < theta < 1.0):
        raise ValueError(f"need k >= 2 and theta in (0, 1), got k={k}, theta={theta}")
    if theta <= 1.0 / k:
        raise ValueError(f"h* exists only for theta > 1/k, got theta={theta}, k={k}")
    roots = solve_scalar(k, theta, SolverConfig())
    return max(roots)


def kappa_bound_refined(coupling: Coupling, k: int, bigA: float) -> float:
    """(1/k) * (A / J(A)) * J'(A) with J(x) = F(x)^k, alpha = exp(-2bJ).

    Identically equal to k_beta(A); stated only for theta > 1/k and
    A = exp(2h) with 0 < h <= h* (outside that regime a regime error is
    raised rather than a value reported).  The value is guaranteed below
    1/k only at A = exp(2h*); in mid-regime it can exceed 1/k.
    """
    _require_ferromagnetic(coupling)
    if bigA <= 0.0 or not math.isfinite(bigA):
        raise ValueError(f"bigA must be positive and finite, got {bigA!r}")
    theta = coupling.theta
    if theta <= 1.0 / k:
        raise ValueError(f"refined bound requires theta > 1/k, got theta={theta}, k={k}")
    h = 0.5 * math.log(bigA)
    h_star = ti_field_root(k, theta)
    if h > h_star + 1e-9:
        raise ValueError(
            f"refined bound requires h <= h* ({h_star:.12g}), got h={h:.12g}"
        )
    alpha = _alpha(coupling, AlphaConvention.EXP_MINUS_2BJ)
    f_val = big_f(alpha, bigA)
    j_val = f_val**k
    j_prime = k * f_val ** (k - 1) * big_f_prime(alpha, bigA)
    return (1.0 / k) * (bigA / j_val) * j_prime


def certify(
    k: int,
    kappa: float,
    gamma: float,
    method: BoundMethod = BoundMethod.GENERIC_K_BETA,
) -> ExtremalityReport:
    """Build the report for the sufficient criterion k * kappa * gamma < 1."""
    if not (0.0 <= kappa < 1.0 and 0.0 <= gamma < 1.0):
        raise ValueError(f"bounds must lie in [0, 1), got kappa={kappa}, gamma={gamma}")
    product = k * kappa * gamma
    verdict = Verdict.EXTREME_CERTIFIED if product < 1.0 else Verdict.INCONCLUSIVE
    return ExtremalityReport(
        kappa_bound=kappa, gamma_bound=gamma, product=product,
        verdict=verdict, method=method,
    )


def assess_solution(k: int, coupling: Coupling, solution: FieldPair) -> ExtremalityReport:
    """Bound kappa and gamma for one solved pair and apply the certificate.

    With h*l = 0 both bounds degrade to theta (product k*theta^2); for a
    pair with both components nonzero the generic k_beta maximum is used,
    tagged as the refined method when its regime (theta > 1/k and
    max(|h|, |l|) <= h*) holds, since the refined formula then evaluates to
    the same number.
    """
    _require_ferromagnetic(coupling)
    theta = coupling.theta
    h, l = abs(solution.h), abs(solution.l)
    gamma = gamma_bound(coupling)
    if h <= ZERO_FIELD_TOL or l <= ZERO_FIELD_TOL:
        return certify(k, theta, gamma, BoundMethod.GENERIC_K_BETA)
    kappa = kappa_bound_generic(coupling, solution)
    method = BoundMethod.GENERIC_K_BETA
    if k >= 2 and theta > 1.0 / k:
        h_star = ti_field_root(k, theta)
        if max(h, l) <= h_star + 1e-9:
            method = BoundMethod.REFINED_OVER_K
    return certify(k, kappa, gamma, method)


def extremality_windows(k: int, theta: float, solution: FieldPair) -> Verdict:
    """Certificate verdict for one solved pair.

    * h*l = 0: certified exactly on the window 1/k < theta < 1/sqrt(k)
      (below 1/k only the zero pair exists among these measures; above
      1/sqrt(k) the generic product k*theta^2 reaches 1).
    * both components nonzero (sign-normalised): the computed kappa/gamma
      bounds decide via k*kappa*gamma < 1 (the verdict of
      ``assess_solution``, without the h* solve that only picks its method
      tag).
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
    h, l = solution.h, solution.l
    if h < 0.0 or (h == 0.0 and l < 0.0):
        h, l = -h, -l
    if abs(h) <= ZERO_FIELD_TOL or abs(l) <= ZERO_FIELD_TOL:
        in_window = (1.0 / k) < theta < (1.0 / math.sqrt(k))
        return Verdict.EXTREME_CERTIFIED if in_window else Verdict.INCONCLUSIVE
    coupling = Coupling.from_theta(theta)
    kappa = kappa_bound_generic(coupling, FieldPair(h, l))
    return certify(k, kappa, gamma_bound(coupling)).verdict


@dataclass(frozen=True)
class ExpVars:
    """Exponentiated solution variables A = exp(2h), C = exp(2l)."""

    bigA: float
    bigC: float
    alpha: float

    @classmethod
    def from_solution(
        cls,
        coupling: Coupling,
        solution: FieldPair,
        convention: AlphaConvention = AlphaConvention.EXP_MINUS_2BJ,
    ) -> "ExpVars":
        return cls(
            bigA=math.exp(2.0 * solution.h),
            bigC=math.exp(2.0 * solution.l),
            alpha=_alpha(coupling, convention),
        )


def exp_system_residual(
    m: SchemeMatrix,
    coupling: Coupling,
    solution: FieldPair,
    convention: AlphaConvention = AlphaConvention.EXP_MINUS_2BJ,
) -> float:
    """Worst residual of the exponentiated system

        A = F(A)^(a1-a2) * F(C)^(a3-a4),   C = F(A)^(b1-b2) * F(C)^(b3-b4).

    Under ``EXP_MINUS_2BJ`` this system is the exact exponentiation of the
    two-field system, so solved pairs give residuals at solver accuracy;
    under the literal ``EXP_MINUS_BJ`` convention the residual stays
    bounded away from zero on nonzero solutions.
    """
    _require_ferromagnetic(coupling)
    ev = ExpVars.from_solution(coupling, solution, convention)
    f_a = big_f(ev.alpha, ev.bigA)
    f_c = big_f(ev.alpha, ev.bigC)
    a1, a2, a3, a4 = m.a
    b1, b2, b3, b4 = m.b
    res_a = abs(ev.bigA - f_a ** (a1 - a2) * f_c ** (a3 - a4))
    res_c = abs(ev.bigC - f_a ** (b1 - b2) * f_c ** (b3 - b4))
    return max(res_a, res_c)
