"""Root isolation: scalar pitchfork, the paper's four cases on (a = 0?,
b = 0?) through the solver's two equation shapes, residuals, negation
closure and the signed sufficiency of the multiplicity criterion."""

import math
import random

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
    solve_scalar,
    solve_system,
    system_residual,
)
from treegibbs import solver
from treegibbs.kernels import ATANH_GUARD
from treegibbs.solver import _shifted_scalar_roots

from mp_oracles import mp_scalar_root, mp_shifted_gain, mp_turning_point

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

    def test_scalar_valued_fn_refused(self):
        # the grid is evaluated in one array call; a function that returns
        # one number for the whole grid is an error, not a per-point retry
        with pytest.raises(ValueError, match="shape"):
            find_roots_1d(lambda x: float(np.sum(x)), -1.0, 1.0)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            find_roots_1d(lambda x: x, 1.0, -1.0)

    def test_overflowing_width_refused(self):
        # hi - lo overflows to inf: the step and the grid would be inf and nan
        with pytest.raises(ValueError, match="wider than the largest float"):
            find_roots_1d(lambda x: x - 1.0, -1e308, 1e308)

    @pytest.mark.parametrize("grid_points", [64, 4096])
    def test_zero_step_refused(self, grid_points):
        with pytest.raises(ValueError, match="grid step is 0"):
            find_roots_1d(lambda x: x, 0.0, 5e-324, SolverConfig(grid_points=grid_points))

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

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_scalar(0, 0.5)
        with pytest.raises(ValueError):
            solve_scalar(2, -0.5)


class TestCaseA0B0:
    def test_all_zero(self):
        sols = solve_system(ReducedParams(0, 0, 0, 0, 2), 0.9)
        assert _pairs(sols) == [(0.0, 0.0)]

    def test_supercritical_l(self):
        sols = solve_system(ReducedParams(0, 0, 0, 2, 2), 0.8)
        assert len(sols) == 3
        l_star = max(p.l for p in sols)
        assert l_star == pytest.approx(H_STAR_2_08, abs=1e-12)

    def test_subcritical_l(self):
        sols = solve_system(ReducedParams(0, 0, 0, 2, 2), 0.3)
        assert _pairs(sols) == [(0.0, 0.0)]

    def test_negative_d_has_no_extra_roots(self):
        # x and -2 f_theta(x) have opposite signs away from zero
        sols = solve_system(ReducedParams(0, 0, 0, -2, 2), 0.55)
        assert _pairs(sols) == [(0.0, 0.0)]


class TestCaseA0:
    def test_cross_coupled(self):
        r = ReducedParams(0, 2, 2, 0, 2)
        sols = solve_system(r, 0.6)
        assert len(sols) == 3
        top = sols.largest_nonnegative()
        assert top.h > 0 and top.l > 0
        # h = l here by symmetry of the composed map
        assert top.h == pytest.approx(top.l, abs=1e-12)

    def test_dangling_b_forces_zero(self):
        sols = solve_system(ReducedParams(0, 2, 0, 0, 2), 0.9)
        assert _pairs(sols) == [(0.0, 0.0)]

    def test_negation_closure(self):
        sols = solve_system(ReducedParams(0, 2, 2, 0, 2), 0.6)
        tuples = set(_pairs(sols))
        assert all((-h, -l) in tuples for (h, l) in tuples)


class TestCaseA0Reference:
    """With a = 0 and b != 0 the closed solver runs with a = 0.  It must
    agree with the l-closed formulation l = c f(b f(l)) + d f(l),
    h = b f(l), written here on its own kernel."""

    @staticmethod
    def _l_closed(r, theta, cfg):
        if theta < 0.0:
            r, theta = r.negated(), -theta
        b, c, d = r.b, r.c, r.d

        def f(x):
            if isinstance(x, np.ndarray):
                return np.arctanh(theta * np.tanh(x))
            return math.atanh(theta * math.tanh(x))

        def g(x):
            return x - c * f(b * f(x)) - d * f(x)

        # g is odd: scan l > 0 and mirror
        hi = (abs(c) + abs(d)) * math.atanh(theta) + 0.5
        pos = [x for x in find_roots_1d(g, 0.0, hi, cfg) if x >= cfg.dedup_tol]
        pairs = [(0.0, 0.0)]
        for x in pos:
            h = float(b * f(x))
            pairs += [(h, x), (-h, -x)]
        return pairs

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_l_closed_formulation(self, k):
        # (r, -theta) is the system (-r, theta), so taking b > 0 at both
        # signs of theta covers every a = 0, b != 0 system once; the k = 1
        # systems are among the k = 3 ones, at a subset of its thetas
        cfg = SolverConfig()
        thetas = TestTranspose._thetas(k)
        checked = 0
        for r in realizable_reduced(k):
            if r.a != 0 or r.b <= 0:
                continue
            for theta in thetas + [-t for t in thetas]:
                sols = solve_system(r, theta, cfg)
                want = self._l_closed(r, theta, cfg)
                assert len(sols) == len(want), (r.abcd, theta)
                for p in sols:
                    assert any(
                        abs(p.h - h) < cfg.dedup_tol and abs(p.l - l) < cfg.dedup_tol
                        for h, l in want
                    ), (r.abcd, theta, p)
                checked += 1
        assert checked > 0


class TestCaseB0:
    def test_decoupled_nine(self):
        sols = solve_system(ReducedParams(2, 0, 0, 2, 2), 0.8)
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
        sols = solve_system(ReducedParams(2, 0, 2, 0, 2), 0.8)
        assert len(sols) == 3
        top = sols.largest_nonnegative()
        assert top.h == pytest.approx(H_STAR_2_08, abs=1e-12)
        assert top.l == pytest.approx(H_STAR_2_08, abs=1e-12)

    def test_subcritical_unique(self):
        sols = solve_system(ReducedParams(2, 0, 0, 2, 2), 0.3)
        assert _pairs(sols) == [(0.0, 0.0)]

    def test_shifted_branch_counts(self):
        # three shifted roots when |t| < gain, one when |t| > gain
        gain = max_shifted_gain(2, 0.8)
        assert gain == pytest.approx(float(mp_shifted_gain(2, 0.8)), abs=1e-12)
        (lo_roots, _), (hi_roots, _) = _shifted_scalar_roots(
            2, [0.5 * gain, 2.0 * gain], [0.8, 0.8], SolverConfig()
        )
        assert len(lo_roots) == 3
        assert len(hi_roots) == 1

    def test_boundary_degenerate_flagged(self):
        gain = max_shifted_gain(2, 0.8)
        [(roots, warnings)] = _shifted_scalar_roots(2, [gain], [0.8], SolverConfig())
        assert len(roots) == 2
        assert any("boundary-degenerate" in w for w in warnings)


class TestTurningPoint:
    """The shifted residual x - t - d f_theta(x) turns at +-x_bar, where
    d f_theta'(x_bar) = 1: max_shifted_gain is its value there, and a
    tangential double root is x_bar itself."""

    # the largest theta of the domain
    EDGE = math.nextafter(1.0 - ATANH_GUARD, 0.0)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_gain_at_domain_edge(self, d):
        # tanh(x_bar)^2 lies inside the arctanh guard here for d >= 3
        gain = max_shifted_gain(d, self.EDGE)
        assert math.isfinite(gain) and gain > 0.0

    def test_solve_at_domain_edge(self):
        sols = solve_system(ReducedParams(2, 0, -1, 3, 4), self.EDGE)
        assert len(sols) == 9

    @pytest.mark.parametrize("d", range(2, 9))
    @pytest.mark.parametrize("theta", [0.6, 0.8, 0.95, 0.99, 0.9999, 0.999999])
    def test_gain_matches_mpmath(self, d, theta):
        want = float(mp_shifted_gain(d, theta))
        assert max_shifted_gain(d, theta) == pytest.approx(want, rel=1e-11, abs=0.0)

    def test_double_root_is_turning_point(self):
        # (2,0,-1,3) solves l = -h*/2 + 3 f(l) on the b = 0 path; (3,1,0,2)
        # is solved through its transpose (2,0,1,3), where the shift is
        # +h*/2.  At 0.6 both shifts sit on the gain, so l = x_bar and
        # h = -x_bar are double roots, each reported with its x.
        x_bar = mp_turning_point(3, 0.6)
        found = {}
        for abcd, axis in (((2, 0, -1, 3), "l"), ((3, 1, 0, 2), "h")):
            sols = solve_system(ReducedParams(*abcd, 4), 0.6)
            assert len(sols) == 7
            assert min(abs(abs(getattr(p, axis)) - x_bar) for p in sols) < 1e-15
            [warning] = sols.warnings
            assert warning.startswith("boundary-degenerate: double root near x=")
            found[abcd] = float(warning.split("x=")[1].split()[0])
        assert found[(3, 1, 0, 2)] == -found[(2, 0, -1, 3)]
        assert abs(abs(found[(2, 0, -1, 3)]) - x_bar) < 1e-12


class TestCaseGeneral:
    def test_symmetric_ansatz(self):
        sols = solve_system(ReducedParams(1, 1, 1, 1, 2), 0.8)
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
        sols = solve_system(r, 0.6)
        assert _pairs(sols) == [(0.0, 0.0)]

    def test_asymmetric_positive_pair(self):
        # frozen from the development mpmath oracle for this instance
        sols = solve_system(ReducedParams(1, 1, 1, -1, 2), 0.75)
        top = sols.largest_nonnegative()
        assert top.h == pytest.approx(0.6785469430733215, abs=1e-10)
        assert top.l == pytest.approx(0.2731943391021021, abs=1e-10)


class TestTranspose:
    """Swapping h and l maps the reduction (a, b, c, d) to (d, c, b, a)."""

    @staticmethod
    def _thetas(k):
        thetas = [0.05 + i * 0.9 / 18 for i in range(19)]
        for m in range(2, k + 1):
            thetas += [1.0 / m, math.nextafter(1.0 / m, 0.0)]
        return thetas

    @pytest.mark.parametrize("k", [2, 3])
    def test_solution_sets_swap(self, k):
        # with b != 0 and c != 0 the two sides take independent paths (each
        # closes in its own first field); each unordered pair is solved once
        cfg = SolverConfig()
        checked = 0
        for r in realizable_reduced(k):
            rt = ReducedParams(r.d, r.c, r.b, r.a, k)
            if r.b == 0 or r.c == 0 or rt.abcd < r.abcd:
                continue
            for theta in self._thetas(k):
                sols = solve_system(r, theta, cfg)
                swapped = [(q.l, q.h) for q in solve_system(rt, theta, cfg)]
                assert len(sols) == len(swapped), (r.abcd, theta)
                for p in sols:
                    assert any(
                        abs(p.h - h) < cfg.dedup_tol and abs(p.l - l) < cfg.dedup_tol
                        for h, l in swapped
                    ), (r.abcd, theta, p)
                checked += 1
        assert checked > 0


class TestScanWindow:
    """Every scan covers the a-priori bound plus 0.5; no knob shortens it."""

    def test_covering_window_keeps_all_roots(self):
        assert len(solve_system(ReducedParams(3, -1, 4, 0, 4), 0.8)) == 5


class TestWorkCounts:
    """The closed residual evaluates the kernel once per field value: once at
    h and once at phi(h), in both passes of the scan and in every bisection
    or polish step."""

    @pytest.mark.parametrize("grid_points", [64, 4096])
    @pytest.mark.parametrize(
        "abcd, k, theta",
        [((1, 1, 1, 1), 2, 0.8), ((1, 1, 1, -1), 2, 0.75), ((3, -1, 4, 0), 4, 0.8),
         ((0, 2, 2, 0), 2, 0.6)],
    )
    def test_two_kernel_calls_per_residual(self, monkeypatch, grid_points, abcd, k, theta):
        kernel_sizes = []
        residual_evals = [0]
        real_kernel, real_bisect = solver.f_theta, solver._bisect

        def counted_kernel(theta, h):
            kernel_sizes.append(h.size if isinstance(h, np.ndarray) else None)
            return real_kernel(theta, h)

        def counted_bisect(fn, *args):
            def counted_fn(x):
                residual_evals[0] += 1
                return fn(x)
            return real_bisect(counted_fn, *args)

        monkeypatch.setattr(solver, "f_theta", counted_kernel)
        monkeypatch.setattr(solver, "_bisect", counted_bisect)
        [(pairs, _)] = solver._case_general(
            ReducedParams(*abcd, k), [theta], SolverConfig(grid_points=grid_points)
        )
        positive_roots = (len(pairs) - 1) // 2
        assert positive_roots > 0 and residual_evals[0] > 0
        # the coarse pass on every _STRIDE-th point and the last, then the
        # pass over the kept cells: two kernel calls of equal size each
        arrays = [n for n in kernel_sizes if n is not None]
        assert arrays[:2] == [grid_points // solver._STRIDE + 1] * 2
        assert len(arrays) == 4 and arrays[2] == arrays[3] and 0 < arrays[2] < grid_points
        # each residual step makes two scalar calls; phi(h) makes one per root
        assert kernel_sizes.count(None) == 2 * residual_evals[0] + positive_roots


def _cell_points(n):
    """Grid index of each point of each cell of an n-step grid, one row per
    cell, in the layout of ``_scan``'s blocks: from one coarse point to the
    next, a last cell of fewer than _STRIDE steps repeating its last
    interior point."""
    starts = np.arange(0, n, solver._STRIDE)
    ends = np.minimum(starts + solver._STRIDE, n)
    inner = np.minimum(starts[:, None] + np.arange(1, solver._STRIDE), ends[:, None] - 1)
    return np.column_stack([starts, inner, ends])


def _assert_bits(got, want):
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestGrid:
    """Every block ``_scan`` returns is one cell of np.linspace's grid, bit
    for bit, whether the screen keeps every cell (no slope bound), one
    cell (a step function under a slope bound of 1e-300) or none (a
    residual of 1 under the same bound).  A window whose grid step rounds
    to zero is refused instead: np.linspace computes such a grid by another
    formula, and no solver scan is narrower than 0.5."""

    @pytest.mark.parametrize("grid_points", [64, 1000, 4096])
    @pytest.mark.parametrize("hi", [1e-320, 1e-300, 1e-3, 3.7, 41.25, 1e300])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_matches_linspace_bits(self, grid_points, hi, symmetric):
        lo = -hi if symmetric else 0.0
        cfg = SolverConfig(grid_points=grid_points)
        if (hi - lo) / grid_points == 0.0:  # [0, 1e-320] on 4096 steps
            with pytest.raises(ValueError, match="grid step is 0"):
                find_roots_1d(lambda x: x, lo, hi, cfg)
            return
        expected = np.linspace(lo, hi, grid_points + 1)
        cells = _cell_points(grid_points)
        [(xs, ys)] = solver._scan(lambda rows, x: x, [lo], [hi], [math.inf], cfg)
        _assert_bits(xs, expected[cells])
        _assert_bits(ys, expected[cells])
        mid = cells[len(cells) // 2]
        cut = expected[mid[solver._STRIDE // 2]]
        [(xs, ys)] = solver._scan(
            lambda rows, x: np.where(x < cut, -1.0, 1.0), [lo], [hi], [1e-300], cfg
        )
        _assert_bits(xs, expected[mid][None])
        [(xs, ys)] = solver._scan(lambda rows, x: np.ones_like(x), [lo], [hi], [1e-300], cfg)
        assert xs.shape == ys.shape == (0, solver._STRIDE + 1)


def _sweep_thetas(k):
    """The 19 sweep thetas and, for m = 1..k, 1/m and its two float
    neighbours, where they lie in the theta domain (for m = 1 none does)."""
    thetas = [0.05 + i * 0.9 / 18 for i in range(19)]
    for m in range(1, k + 1):
        for t in (1.0 / m, math.nextafter(1.0 / m, 0.0), math.nextafter(1.0 / m, 1.0)):
            if t < 1.0 - ATANH_GUARD:
                thetas.append(t)
    return thetas


def _grid_marks(ys):
    """What the root scan reads along the last axis of a grid or of a block
    of cells: exact zeros, and sign changes between neighbours (at the left
    point)."""
    return ys == 0.0, ys[..., :-1] * ys[..., 1:] < 0.0


class TestScreen:
    """The screened scan loses nothing the full grid finds.  Every scan is
    also evaluated on its full np.linspace grid.  Per row, the screened
    blocks must carry the full grid's values and exactly its marks (exact
    zeros and sign-change cells), each block running over grid neighbours,
    which is all that ``_roots_on_grid`` reads.  For k <= 2, solving on the
    full grids, each passed as one block, must also give the same
    solutions and warnings at every theta.  On the solver's residuals this
    holds even with a slope bound 10^4 times too small, so rows of a
    residual that turns within one cell check that the bound is used."""

    @staticmethod
    def _check_rows(grids, values, screened):
        n = grids.shape[1]
        want = [r * n + j for r, j in (mask.nonzero() for mask in _grid_marks(values))]
        got = [[], []]
        for row, (grid, full, (xs, ys)) in enumerate(zip(grids, values, screened)):
            at = np.searchsorted(grid, xs)
            assert np.array_equal(grid[at].view(np.uint64), xs.view(np.uint64))
            assert np.array_equal(full[at].view(np.uint64), ys.view(np.uint64))
            # a block steps from one grid point to the next (a short last
            # cell repeats a point)
            assert np.isin(np.diff(at, axis=1), (0, 1)).all()
            z, c = _grid_marks(ys)
            # a zero on a coarse point ends one kept cell and starts the next
            got[0].append(row * n + np.unique(at[z]))
            got[1].append(row * n + at[:, :-1][c])
        for marks, expected in zip(got, want):
            assert np.array_equal(np.concatenate(marks), expected)

    def _check(self, monkeypatch, r, thetas, cfg, solve_full):
        real_scan = solver._scan
        rows_checked = [0]

        def full_grid_scan(fn, los, his, lips, cfg):
            n = cfg.grid_points
            grids = np.array([np.linspace(lo, hi, n + 1) for lo, hi in zip(los, his)])
            rows = np.arange(len(los))[:, None] if len(los) > 1 else 0
            values = np.asarray(fn(rows, grids), dtype=float)
            screened = real_scan(fn, los, his, lips, cfg)
            self._check_rows(grids, values, screened)
            rows_checked[0] += len(los)
            if solve_full:
                return [(grid[None], full[None]) for grid, full in zip(grids, values)]
            return screened

        with monkeypatch.context() as patch:
            patch.setattr(solver, "_scan", full_grid_scan)
            reference = solver._solve_thetas(r, thetas, cfg)
        if solve_full:
            for theta, got, want in zip(thetas, solver._solve_thetas(r, thetas, cfg), reference):
                assert got.solutions == want.solutions, (r.abcd, theta)
                assert got.warnings == want.warnings, (r.abcd, theta)
        return rows_checked[0]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_all_reductions(self, monkeypatch, k):
        cfg = SolverConfig()
        thetas = _sweep_thetas(k)
        rows = sum(self._check(monkeypatch, r, thetas, cfg, k <= 2) for r in realizable_reduced(k))
        assert rows > 0

    @pytest.mark.parametrize("size", [1, 15])
    def test_residual_turning_inside_cells(self, size):
        # The solver's residuals bend too slowly for a cell of 16 steps to
        # hide a root between two clear end values, so they alone would not
        # notice a bound that is too small.  sin(omega x + phase) on [0, 1],
        # with its exact slope bound omega, turns by 0.4 to 20 radians
        # within one cell.
        cfg = SolverConfig()
        params = [(w, p) for w in (5000.0, 1600.0, 800.0, 400.0, 100.0) for p in (0.0, 0.3, 1.0)]
        omega, phase = (np.array(v)[:size] for v in zip(*params))

        def fn(rows, x):
            return np.sin(omega[rows] * x + phase[rows])

        screened = solver._scan(fn, [0.0] * size, [1.0] * size, omega.tolist(), cfg)
        grids = np.tile(np.linspace(0.0, 1.0, cfg.grid_points + 1), (size, 1))
        self._check_rows(grids, fn(np.arange(size)[:, None], grids), screened)

    def test_k4_sample(self, monkeypatch):
        cfg = SolverConfig()
        reductions = sorted(realizable_reduced(4), key=lambda q: q.abcd)
        sample = random.Random(4).sample(reductions, 200)
        thetas = _sweep_thetas(4)
        assert sum(self._check(monkeypatch, r, thetas, cfg, False) for r in sample) > 0


class TestSolveThetas:
    def test_mixed_signs_match_one_theta_solves(self):
        half_up = math.nextafter(0.5, 1.0)
        thetas = [0.8, -0.8, 0.0, -0.0, 0.3, -0.55, half_up, -half_up, 0.5, -0.95]
        cfg = SolverConfig()
        for r in sorted(realizable_reduced(2), key=lambda q: q.abcd):
            batched = solver._solve_thetas(r, thetas, cfg)
            assert batched == [solve_system(r, theta, cfg) for theta in thetas], r.abcd


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
