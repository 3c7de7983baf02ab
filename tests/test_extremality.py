"""Extremality bounds, the certificate, the windows logic and the
exponentiated-system conventions."""

import math

import numpy as np
import pytest

from treegibbs import (
    Coupling,
    FieldPair,
    SchemeMatrix,
    Verdict,
    assess_solution,
    big_f,
    big_f_prime,
    certify,
    gamma_bound,
    k_beta,
    kappa_bound_generic,
    realizable_reduced,
    solve_scalar,
    solve_system,
    extremality_windows,
    ti_field_root,
)

from identities import AlphaConvention, exp_system_residual

H_STAR_2_08 = 2.0634370688955605


class TestGammaBound:
    def test_value(self):
        c = Coupling.from_interaction(J=1.0, beta=0.5)
        assert gamma_bound(c) == pytest.approx(math.tanh(0.5), abs=1e-15)

    def test_limits(self):
        assert gamma_bound(Coupling.from_interaction(J=1.0, beta=1e-6)) < 1e-5
        assert gamma_bound(Coupling.from_interaction(J=1.0, beta=15.0)) > 1 - 1e-12

    def test_rejects_non_ferromagnetic(self):
        with pytest.raises(ValueError):
            gamma_bound(Coupling.from_theta(-0.5))


class TestKappaGeneric:
    def test_zero_pair_gives_theta(self):
        c = Coupling.from_theta(0.8)
        assert kappa_bound_generic(c, FieldPair(0.0, 0.0)) == c.theta

    def test_half_zero_pair_gives_theta(self):
        c = Coupling.from_theta(0.8)
        assert kappa_bound_generic(c, FieldPair(H_STAR_2_08, 0.0)) == c.theta

    def test_fully_ordered_pair_below_theta(self):
        c = Coupling.from_theta(0.8)
        value = kappa_bound_generic(c, FieldPair(H_STAR_2_08, H_STAR_2_08))
        assert value == pytest.approx(k_beta(c, math.exp(2 * H_STAR_2_08)), abs=1e-15)
        assert value < c.theta

    def test_inversion_symmetry(self):
        c = Coupling.from_theta(0.7)
        assert kappa_bound_generic(c, FieldPair(0.9, -0.4)) == pytest.approx(
            kappa_bound_generic(c, FieldPair(-0.9, 0.4)), abs=1e-15
        )


class TestKappaRefined:
    """The "refined" kappa (1/k)(A/J(A))J'(A), J = F^k, alpha = exp(-2bJ),
    is k_beta(A) itself; the library computes it only as ``k_beta``."""

    @staticmethod
    def refined(c, k, bigA):
        alpha = math.exp(-2 * c.beta_j)
        f_val = big_f(alpha, bigA)
        j_prime = k * f_val ** (k - 1) * big_f_prime(alpha, bigA)
        return (1.0 / k) * (bigA / f_val**k) * j_prime

    def test_equals_k_beta_identity(self):
        c = Coupling.from_theta(0.8)
        h_star = ti_field_root(2, 0.8)
        for k in (2, 3, 4):
            for frac in (1.5, 0.999, 0.75, 0.5, 0.25, 0.05, -0.5):
                bigA = math.exp(2 * frac * h_star)
                assert k_beta(c, bigA) == pytest.approx(
                    self.refined(c, k, bigA), abs=1e-10
                )

    def test_below_bound_at_fixed_point(self):
        c = Coupling.from_theta(0.8)
        h_star = ti_field_root(2, 0.8)
        assert k_beta(c, math.exp(2 * h_star)) <= 0.5

    def test_mid_regime_exceeds_over_k(self):
        # at h = h*/2 the value is 40/77 = 0.51948... > 1/2: the bound
        # (A/J(A)) J'(A) <= 1 does NOT hold across the whole regime
        # (J'(x) > 1 near x = 1, e.g. J'(1) = k theta), so the certificate
        # must use the computed value, never the nominal 1/k
        c = Coupling.from_theta(0.8)
        h_star = ti_field_root(2, 0.8)
        value = k_beta(c, math.exp(h_star))
        assert value == pytest.approx(self.refined(c, 2, math.exp(h_star)), abs=1e-12)
        assert value == pytest.approx(40.0 / 77.0, abs=1e-12)
        assert value > 0.5

    def test_j_prime_exceeds_one_near_origin(self):
        c = Coupling.from_theta(0.8)
        alpha = math.exp(-2 * c.beta_j)
        xs = np.linspace(1.0, math.exp(H_STAR_2_08), 50)
        j_prime = 2 * big_f(alpha, xs) * big_f_prime(alpha, xs)
        assert j_prime[0] == pytest.approx(2 * c.theta, abs=1e-12)
        assert np.any(j_prime > 1.0)


class TestCertify:
    def test_certified(self):
        report = certify(2, 0.6, 0.6)
        assert report.product == pytest.approx(0.72)
        assert report.verdict is Verdict.EXTREME_CERTIFIED

    def test_inconclusive(self):
        report = certify(2, 0.75, 0.75)
        assert report.product == pytest.approx(1.125)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_refined_style_product(self):
        report = certify(2, 0.5, 0.8)
        assert report.product == pytest.approx(0.8)
        assert report.verdict is Verdict.EXTREME_CERTIFIED

    def test_monotone_in_bounds(self):
        base = certify(3, 0.4, 0.7)
        for kappa in np.linspace(0.0, 0.4, 9):
            for gamma in np.linspace(0.0, 0.7, 9):
                report = certify(3, float(kappa), float(gamma))
                if base.verdict is Verdict.EXTREME_CERTIFIED:
                    assert report.verdict is Verdict.EXTREME_CERTIFIED

    def test_bound_ordering_invariant(self):
        c = Coupling.from_theta(0.8)
        pair = FieldPair(H_STAR_2_08, H_STAR_2_08)
        report = assess_solution(2, c, pair)
        assert report.kappa_bound <= report.gamma_bound <= c.theta + 1e-15

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            certify(2, 1.0, 0.5)


class TestWindows:
    def test_part_one_inside(self):
        assert extremality_windows(2, 0.65, FieldPair(0.0, 1.0)) is Verdict.EXTREME_CERTIFIED

    def test_part_one_above(self):
        assert extremality_windows(2, 0.75, FieldPair(0.0, 1.0)) is Verdict.INCONCLUSIVE

    def test_part_one_below(self):
        assert extremality_windows(2, 0.45, FieldPair(0.0, 0.0)) is Verdict.INCONCLUSIVE

    def test_part_one_grid_boundary(self):
        grid = [round(0.01 * i, 2) for i in range(1, 100)]
        fired = [t for t in grid if extremality_windows(2, t, FieldPair(0.0, 0.3)) is
                 Verdict.EXTREME_CERTIFIED]
        assert fired == [round(0.01 * i, 2) for i in range(51, 71)]

    def test_part_two_ordered_pair(self):
        assert (
            extremality_windows(2, 0.8, FieldPair(H_STAR_2_08, H_STAR_2_08))
            is Verdict.EXTREME_CERTIFIED
        )

    def test_part_two_negated_pair_normalised(self):
        assert (
            extremality_windows(2, 0.8, FieldPair(-H_STAR_2_08, -H_STAR_2_08))
            is Verdict.EXTREME_CERTIFIED
        )

    def test_part_two_near_bifurcation_not_certified(self):
        # counterexample to the universal claim: this solved pair of the
        # reduced tuple (1,1,1,-1) at theta = 0.75 has product > 1
        pair = FieldPair(0.6785469430733215, 0.2731943391021021)
        assert extremality_windows(2, 0.75, pair) is Verdict.INCONCLUSIVE

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            extremality_windows(2, 0.0, FieldPair(0.0, 0.0))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_assess_solution_negation_invariant(self, k):
        # kappa is a max over exp(+-2h), exp(+-2l), so (h, l) -> (-h, -l)
        # changes no field of the report, on zero and nonzero pairs alike
        thetas = [round(0.05 + 0.075 * i, 3) for i in range(13)]
        checked = 0
        for r in sorted(realizable_reduced(k), key=lambda q: q.abcd)[::13]:
            for theta in thetas:
                coupling = Coupling.from_theta(theta)
                for pair in solve_system(r, theta):
                    checked += 1
                    assert assess_solution(k, coupling, pair) == assess_solution(
                        k, coupling, pair.negated()
                    ), (r.abcd, theta, pair)
        assert checked > 0

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_zero_pair_below_window_inconclusive(self, k):
        # at theta <= 1/k the product k theta^2 is below 1, yet the window
        # 1/k < theta < 1/sqrt(k) decides zero pairs: the verdict stays
        # Inconclusive
        for theta in (0.5 / k, math.nextafter(1.0 / k, 0.0), 1.0 / k):
            for pair in (FieldPair(0.0, 0.0), FieldPair(0.0, 1e-13)):
                report = assess_solution(k, Coupling.from_theta(theta), pair)
                assert report.product < 1.0
                assert report.product == k * theta * theta
                assert report.verdict is Verdict.INCONCLUSIVE
                assert extremality_windows(k, theta, pair) is Verdict.INCONCLUSIVE


class TestExpSystem:
    def test_zero_solution_exact(self):
        m = SchemeMatrix(k=2, a=(2, 0, 0, 0), b=(0, 0, 2, 0))
        c = Coupling.from_theta(0.8)
        assert exp_system_residual(m, c, FieldPair(0.0, 0.0)) == 0.0

    def test_solved_pair_tiny_residual(self):
        m = SchemeMatrix(k=2, a=(2, 0, 0, 0), b=(0, 0, 2, 0))
        c = Coupling.from_theta(0.8)
        h_star = solve_scalar(2, 0.8)[-1]
        assert exp_system_residual(m, c, FieldPair(h_star, 0.0)) < 1e-9

    def test_literal_convention_breaks(self):
        m = SchemeMatrix(k=2, a=(2, 0, 0, 0), b=(0, 0, 2, 0))
        c = Coupling.from_theta(0.8)
        h_star = solve_scalar(2, 0.8)[-1]
        residual = exp_system_residual(
            m, c, FieldPair(h_star, 0.0), AlphaConvention.EXP_MINUS_BJ
        )
        assert residual > 1e-3
