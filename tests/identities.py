"""Identities of the paper that the tests check, written on the public API.

* ``exp_system_residual``: the two-field system exponentiated through the
  Moebius map ``big_f``, under either choice of ``alpha``
  (``AlphaConvention``);
* ``variation_distance`` and ``parent_disagreement_distance``: the
  variation distance at the root between the measures with a grafted
  parent spin frozen to +1 and to -1, against the kernel ``k_beta``.
"""

import math
from enum import Enum

from treegibbs import big_f, finite_volume_measure, k_beta, root_marginal_ratio


class AlphaConvention(Enum):
    """Choice of alpha in the Moebius map F.

    ``EXP_MINUS_2BJ`` is the convention under which exponentiating the
    two-field system is an identity (exp(2 f_theta(h)) = F(exp(2h)));
    ``EXP_MINUS_BJ`` is the literal alternative, which breaks it.
    """

    EXP_MINUS_2BJ = "exp(-2*beta*J)"
    EXP_MINUS_BJ = "exp(-beta*J)"


def exp_system_residual(m, coupling, solution, convention=AlphaConvention.EXP_MINUS_2BJ):
    """Worst residual of the exponentiated system

        A = F(A)^(a1-a2) * F(C)^(a3-a4),   C = F(A)^(b1-b2) * F(C)^(b3-b4)

    with A = exp(2h), C = exp(2l).  Under ``EXP_MINUS_2BJ`` solved pairs
    give residuals at solver accuracy; under ``EXP_MINUS_BJ`` the residual
    stays bounded away from zero on nonzero solutions.  ``big_f`` refuses
    the alpha >= 1 of a coupling with J <= 0.
    """
    scale = 2.0 if convention is AlphaConvention.EXP_MINUS_2BJ else 1.0
    alpha = math.exp(-scale * coupling.beta_j)
    big_a = math.exp(2.0 * solution.h)
    big_c = math.exp(2.0 * solution.l)
    f_a = big_f(alpha, big_a)
    f_c = big_f(alpha, big_c)
    a1, a2, a3, a4 = m.a
    b1, b2, b3, b4 = m.b
    res_a = abs(big_a - f_a ** (a1 - a2) * f_c ** (a3 - a4))
    res_c = abs(big_c - f_a ** (b1 - b2) * f_c ** (b3 - b4))
    return max(res_a, res_c)


def variation_distance(mu1, mu2, v):
    """Variation distance of the spin-at-v marginals of two measures."""
    a_plus, a_minus = mu1.site_marginal(v)
    b_plus, b_minus = mu2.site_marginal(v)
    return 0.5 * (abs(a_plus - b_plus) + abs(a_minus - b_minus))


def parent_disagreement_distance(tree, assignment, coupling, n):
    """Variation distance at the root between the measures with the grafted
    parent spin frozen to +1 and to -1, paired with the kernel prediction
    k_beta(exp(-2 h_root)) evaluated from the parent-free measure."""
    mu_plus = finite_volume_measure(tree, assignment, coupling, n, root_parent_spin=1)
    mu_minus = finite_volume_measure(tree, assignment, coupling, n, root_parent_spin=-1)
    mu_free = finite_volume_measure(tree, assignment, coupling, n)
    observed = variation_distance(mu_plus, mu_minus, 0)
    predicted = k_beta(coupling, root_marginal_ratio(mu_free))
    return observed, predicted
