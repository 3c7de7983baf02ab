"""Root isolation: scalar pitchfork, the four case reductions, residuals,
negation closure and the signed sufficiency of the multiplicity criterion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treegibbs import (
    FieldPair,
    ReducedParams,
    SolverConfig,
    criterion_value,
    f_theta,
    f_theta_prime,
    find_roots_1d,
    max_shifted_gain,
    realizable_reduced,
    solve_case_a0,
    solve_case_a0_b0,
    solve_case_b0,
    solve_case_general,
    solve_scalar,
    solve_system,
    system_residual,
)
from treegibbs.solver import _shifted_scalar_roots

from mp_oracles import mp_scalar_root, mp_shifted_gain

# frozen from the mpmath oracle: positive root of h = 2 f_{0.8}(h)
H_STAR_2_08 = 2.0634370688955605


def _pairs(solutions):
    return [p.as_tuple() for p in solutions]


class TestFindRoots1D:
    def test_linear(self):
        assert find_roots_1d(lambda x: x, -1.0, 1.0) == [0.0]

    def test_pitchfork_branch(self):
        roots = find_roots_1d(lambda x: x - 2 * f_theta(0.8, x), 1e-6, 3.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(H_STAR_2_08, abs=1e-9)

    def test_no_real_root(self):
        assert find_roots_1d(lambda x: x * x + 1.0, -1.0, 1.0) == []

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            find_roots_1d(lambda x: x, 1.0, -1.0)

    def test_crossing_root_on_grid_point(self):
        # 0.5 is grid point 3072 of the default 4097-point grid on [-1, 1]:
        # fn is exactly zero there, so no cell shows a strict sign change
        assert find_roots_1d(lambda x: x - 0.5, -1.0, 1.0) == [0.5]

    def test_touching_root_on_grid_point(self):
        # a double root at a grid point next to a bisected simple root
        roots = find_roots_1d(lambda x: (x - 0.5) ** 2 * (x + 0.3), -1.0, 1.0)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(-0.3, abs=1e-12)
        assert roots[1] == 0.5


class TestSolveScalar:
    def test_subcritical(self):
        assert solve_scalar(2, 0.4) == [0.0]

    def test_at_threshold_unique(self):
        assert solve_scalar(2, 0.5) == [0.0]

    def test_supercritical(self):
        roots = solve_scalar(2, 0.8)
        assert len(roots) == 3
        assert roots[1] == 0.0
        assert roots[2] == pytest.approx(H_STAR_2_08, abs=1e-12)
        assert roots[0] == -roots[2]

    def test_oracle_agreement(self):
        assert abs(float(mp_scalar_root(2, 0.8)) - H_STAR_2_08) < 1e-15

    def test_m_one_never_bifurcates(self):
        assert solve_scalar(1, 0.9) == [0.0]

    def test_polished_residual(self):
        h_star = solve_scalar(2, 0.8)[-1]
        assert abs(h_star - 2 * f_theta(0.8, h_star)) < 1e-14

    def test_near_critical_root_found(self):
        theta = 0.5 + 1e-6
        roots = solve_scalar(2, theta)
        assert len(roots) == 3
        h = roots[-1]
        assert h > 0 and abs(h - 2 * f_theta(theta, h)) < 1e-12

    def test_interval_must_cover_bound(self):
        cfg = SolverConfig(scan_hi=1.0)  # 2 arctanh(0.8) = 2.197 > 1
        with pytest.raises(ValueError):
            solve_scalar(2, 0.8, cfg)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_scalar(0, 0.5)
        with pytest.raises(ValueError):
            solve_scalar(2, -0.5)


class TestCaseA0B0:
    def test_all_zero(self):
        sols = solve_case_a0_b0(ReducedParams(0, 0, 0, 0, 2), 0.9)
        assert _pairs(sols) == [(0.0, 0.0)]

    def test_supercritical_l(self):
        sols = solve_case_a0_b0(ReducedParams(0, 0, 0, 2, 2), 0.8)
        assert len(sols) == 3
        l_star = max(p.l for p in sols)
        assert l_star == pytest.approx(H_STAR_2_08, abs=1e-12)

    def test_subcritical_l(self):
        sols = solve_case_a0_b0(ReducedParams(0, 0, 0, 2, 2), 0.3)
        assert _pairs(sols) == [(0.0, 0.0)]

    def test_negative_d_has_no_extra_roots(self):
        # x and -2 f_theta(x) have opposite signs away from zero
        sols = solve_case_a0_b0(ReducedParams(0, 0, 0, -2, 2), 0.55)
        assert _pairs(sols) == [(0.0, 0.0)]

    def test_pattern_enforced(self):
        with pytest.raises(ValueError):
            solve_case_a0_b0(ReducedParams(2, 0, 0, 2, 2), 0.8)


class TestCaseA0:
    def test_cross_coupled(self):
        r = ReducedParams(0, 2, 2, 0, 2)
        sols = solve_case_a0(r, 0.6)
        assert len(sols) == 3
        top = sols.largest_nonnegative()
        assert top.h > 0 and top.l > 0
        # h = l here by symmetry of the composed map
        assert top.h == pytest.approx(top.l, abs=1e-12)

    def test_dangling_b_forces_zero(self):
        sols = solve_case_a0(ReducedParams(0, 2, 0, 0, 2), 0.9)
        assert _pairs(sols) == [(0.0, 0.0)]

    def test_negation_closure(self):
        sols = solve_case_a0(ReducedParams(0, 2, 2, 0, 2), 0.6)
        tuples = set(_pairs(sols))
        assert all((-h, -l) in tuples for (h, l) in tuples)


class TestCaseB0:
    def test_decoupled_nine(self):
        sols = solve_case_b0(ReducedParams(2, 0, 0, 2, 2), 0.8)
        # oracle: the cross product of the two independent scalar solutions
        h_roots = solve_scalar(2, 0.8)
        expected = {(h, l) for h in h_roots for l in h_roots}
        assert len(sols) == 9
        for (h, l) in _pairs(sols):
            assert any(
                abs(h - eh) < 1e-10 and abs(l - el) < 1e-10 for (eh, el) in expected
            )

    def test_explicit_l_when_d_zero(self):
        # with d = 0 the second equation is the explicit line l = (c/a) h
        sols = solve_case_b0(ReducedParams(2, 0, 2, 0, 2), 0.8)
        assert len(sols) == 3
        top = sols.largest_nonnegative()
        assert top.h == pytest.approx(H_STAR_2_08, abs=1e-12)
        assert top.l == pytest.approx(H_STAR_2_08, abs=1e-12)

    def test_subcritical_unique(self):
        sols = solve_case_b0(ReducedParams(2, 0, 0, 2, 2), 0.3)
        assert _pairs(sols) == [(0.0, 0.0)]

    def test_shifted_branch_counts(self):
        # three shifted roots when |t| < gain, one when |t| > gain
        gain = max_shifted_gain(2, 0.8)
        assert gain == pytest.approx(float(mp_shifted_gain(2, 0.8)), abs=1e-12)
        lo_roots, _ = _shifted_scalar_roots(2, 0.5 * gain, 0.8, SolverConfig())
        hi_roots, _ = _shifted_scalar_roots(2, 2.0 * gain, 0.8, SolverConfig())
        assert len(lo_roots) == 3
        assert len(hi_roots) == 1

    def test_boundary_degenerate_flagged(self):
        gain = max_shifted_gain(2, 0.8)
        roots, warnings = _shifted_scalar_roots(2, gain, 0.8, SolverConfig())
        assert len(roots) == 2
        assert any("boundary-degenerate" in w for w in warnings)


class TestCaseGeneral:
    def test_symmetric_ansatz(self):
        sols = solve_case_general(ReducedParams(1, 1, 1, 1, 2), 0.8)
        t = solve_scalar(2, 0.8)[-1]
        tuples = _pairs(sols)
        assert (0.0, 0.0) in tuples
        assert any(abs(h - t) < 1e-10 and abs(l - t) < 1e-10 for (h, l) in tuples)
        assert any(abs(h + t) < 1e-10 and abs(l + t) < 1e-10 for (h, l) in tuples)

    def test_mixed_signs_slope_below_one(self):
        # slope at origin is 2*theta^2 - theta = 0.12 at theta = 0.6:
        # no guaranteed extra roots, and the scan finds none
        r = ReducedParams(1, -1, 0, -2, 2)
        assert criterion_value(r, 0.6) == pytest.approx(2 * 0.36 - 0.6)
        sols = solve_case_general(r, 0.6)
        assert _pairs(sols) == [(0.0, 0.0)]

    def test_asymmetric_positive_pair(self):
        # frozen from the development mpmath oracle for this instance
        sols = solve_case_general(ReducedParams(1, 1, 1, -1, 2), 0.75)
        top = sols.largest_nonnegative()
        assert top.h == pytest.approx(0.6785469430733215, abs=1e-10)
        assert top.l == pytest.approx(0.2731943391021021, abs=1e-10)


class TestScanWindow:
    """A configured scan_hi below the a-priori bound is refused in every
    case, as solve_scalar refuses it, instead of silently losing roots."""

    SHORT = SolverConfig(scan_hi=0.5)

    def test_general_case_refuses_short_window(self):
        with pytest.raises(ValueError, match="does not cover"):
            solve_system(ReducedParams(3, -1, 4, 0, 4), 0.8, self.SHORT)

    def test_a0_case_refuses_short_window(self):
        with pytest.raises(ValueError, match="does not cover"):
            solve_system(ReducedParams(0, 2, 2, 0, 2), 0.6, self.SHORT)

    def test_shifted_roots_refuse_short_window(self):
        with pytest.raises(ValueError, match="does not cover"):
            _shifted_scalar_roots(2, 0.1, 0.8, self.SHORT)

    def test_scalar_window_is_symmetric(self):
        # scan_hi alone covers the scalar roots on both sides of zero
        assert solve_scalar(4, 0.8, SolverConfig(scan_hi=10.0)) == pytest.approx(
            solve_scalar(4, 0.8), abs=1e-12
        )

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError, match="scan_hi must be positive"):
            SolverConfig(scan_hi=0.0)

    def test_covering_window_keeps_all_roots(self):
        r = ReducedParams(3, -1, 4, 0, 4)
        wide = solve_system(r, 0.8, SolverConfig(scan_hi=10.0))
        assert len(wide) == len(solve_system(r, 0.8)) == 5


class TestSolveSystem:
    def test_theta_zero_short_circuit(self):
        sols = solve_system(ReducedParams(1, 1, 1, 1, 2), 0.0)
        assert _pairs(sols) == [(0.0, 0.0)]

    def test_all_zero_params(self):
        sols = solve_system(ReducedParams(0, 0, 0, 0, 4), 0.9)
        assert _pairs(sols) == [(0.0, 0.0)]

    def test_negative_theta_oddness(self):
        # (0,0,0,-2) at theta=-0.55 matches (0,0,0,2) at +0.55
        sols_neg = solve_system(ReducedParams(0, 0, 0, -2, 2), -0.55)
        sols_pos = solve_system(ReducedParams(0, 0, 0, 2, 2), 0.55)
        np.testing.assert_allclose(
            [p.as_tuple() for p in sols_neg], [p.as_tuple() for p in sols_pos], atol=1e-12
        )
        assert len(sols_neg) == 3

    def test_absolute_criterion_counterexample(self):
        # |(a+d) theta| = 1.1 > 1 yet the system provably has only (0,0):
        # for l > 0, -2 f_theta(l) < 0 < l.  Only the signed slope is a
        # sufficient multiplicity condition.
        r = ReducedParams(0, 0, 0, -2, 2)
        assert abs(criterion_value(r, 0.55)) > 1.0
        assert len(solve_system(r, 0.55)) == 1

    def test_slope_at_origin_matches_finite_difference(self):
        theta = 0.7
        for abcd in [(1, 1, 1, 1), (1, -1, 2, 0), (2, 0, 1, 1), (0, 2, 2, 0)]:
            r = ReducedParams(*abcd, k=3 if sum(abcd[:2]) % 2 else 2)
            a, b, c, d = abcd
            if b == 0:
                continue
            det = b * c - a * d
            eps = 1e-7

            def psi(h):
                inner = (det * f_theta(theta, h) + d * h) / b
                return a * f_theta(theta, h) + b * f_theta(theta, inner)

            fd = (psi(eps) - psi(-eps)) / (2 * eps)
            assert fd == pytest.approx(criterion_value(r, theta), abs=1e-6)

    def test_monotone_iteration_agreement(self):
        # iterating the closed map from a small positive seed converges to
        # a root the grid scan also finds
        theta, b, c, d = 0.6, 2, 2, 0

        def g(l):
            return c * f_theta(theta, b * f_theta(theta, l)) + d * f_theta(theta, l)

        l = 1e-3
        for _ in range(500):
            l = g(l)
        sols = solve_system(ReducedParams(0, b, c, d, 2), theta)
        top = sols.largest_nonnegative()
        assert l == pytest.approx(top.l, abs=1e-6)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_signed_criterion_sufficiency(self, k):
        # signed slope > 1 guarantees at least three solutions: exhaustive
        thetas = [round(0.05 * i, 2) for i in range(1, 20)]
        for r in sorted(realizable_reduced(k), key=lambda q: q.abcd):
            for theta in thetas:
                if criterion_value(r, theta) <= 1.0:
                    continue
                sols = solve_system(r, theta)
                assert len(sols) >= 3, (r.abcd, theta)

    def test_invariants_on_sample(self):
        thetas = [0.3, 0.6, 0.8, -0.7]
        for r in sorted(realizable_reduced(2), key=lambda q: q.abcd)[::7]:
            for theta in thetas:
                sols = solve_system(r, theta)
                tuples = set(_pairs(sols))
                assert (0.0, 0.0) in tuples
                assert all((-h, -l) in tuples for (h, l) in tuples)
                bound_h = (abs(r.a) + abs(r.b)) * math.atanh(abs(theta)) + 1e-9
                bound_l = (abs(r.c) + abs(r.d)) * math.atanh(abs(theta)) + 1e-9
                for p in sols:
                    assert system_residual(r, theta, p) < 1e-9
                    assert abs(p.h) <= bound_h and abs(p.l) <= bound_l
                # pairwise separation
                as_list = sorted(tuples)
                for i, u in enumerate(as_list):
                    for v in as_list[i + 1:]:
                        assert max(abs(u[0] - v[0]), abs(u[1] - v[1])) >= 1e-7

    @settings(max_examples=40, deadline=None)
    @given(
        idx=st.integers(0, 80),
        theta=st.floats(-0.9, 0.9).filter(lambda t: abs(t) > 1e-3),
    )
    def test_zero_and_closure_hypothesis(self, idx, theta):
        r = sorted(realizable_reduced(2), key=lambda q: q.abcd)[idx]
        sols = solve_system(r, theta)
        tuples = set(_pairs(sols))
        assert (0.0, 0.0) in tuples
        assert all((-h, -l) in tuples for (h, l) in tuples)
