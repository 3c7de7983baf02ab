"""Root isolation for the two-field fixed-point system

    h = a f_theta(h) + b f_theta(l)
    l = c f_theta(h) + d f_theta(l)

solved along one of two equation shapes.  With b = 0 the first equation
decouples: each root of h = a f_theta(h) leaves a shifted scalar equation
in l (a = 0 forces h = 0).  With b != 0 the first equation gives
f_theta(l) = (h - a f_theta(h))/b, the second then gives l = phi(h), and
the first closes as one scalar equation in h.  With b != 0 and c = 0 the
transposed system (d, 0, b, a) is solved instead, so that l decouples.
A grid-scan + bisection root isolator sits underneath.  Every returned
pair is verified against both equations; the solution set always contains
(0, 0) and is closed under (h, l) -> (-h, -l).

The isolator only finds sign-change-separated roots: a tangential root is
found only when a grid point lands essentially on top of it.  The scan
interval is derived from the a-priori bound |h| <= (|a|+|b|) arctanh(theta)
(the kernel is bounded, so every root lives there); only tangency can hide
a root, not escape.

The grid is evaluated only where a root can lie.  Every 16th grid point
is evaluated first, and the grid points between two of them, a cell, only
when the cell passes a Lipschitz screen (interval exclusion in the sense
of Moore, Kearfott & Cloud, *Introduction to Interval Analysis*, SIAM
2009).  The screen rests on ``0 < f_theta' <= theta`` for theta > 0, which
bounds the slope of each residual by a constant L:

    x - m f_theta(x)                      L = 1 + m theta
    x - t - d f_theta(x)                  L = 1 + |d| theta
    h - a f_theta(h) - b f_theta(phi(h))  L = 1 + |a| theta
                                              + theta (|bc - ad| theta + |d|)

A cell whose two end values share a sign and both exceed 2e-5 + L w / 2
in absolute value, w its width, is dropped: on it the residual stays above
2e-5 in absolute value, so it holds no root, no exact grid zero and no
grid extremum below the 1e-5 at which a tangential root is probed.  The
margin over 1e-5 absorbs the rounding of the evaluated residual.  So the
roots, the tangency candidates and every output byte are those of the
full grid; ``grid_points`` sets the resolution at which roots are
bracketed, the screen only which grid points get evaluated.  The
thetas of one reduction are scanned together: all their first points in
one kernel pass, all their kept cells in a second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import _check_theta, arctanh, f_theta
from .scheme import ReducedParams, criterion_value


@dataclass(frozen=True)
class FieldPair:
    h: float
    l: float

    def __post_init__(self):
        if not (math.isfinite(self.h) and math.isfinite(self.l)):
            raise ValueError(f"field pair must be finite, got ({self.h!r}, {self.l!r})")
        # normalise -0.0 so output and sort keys are canonical
        object.__setattr__(self, "h", self.h + 0.0)
        object.__setattr__(self, "l", self.l + 0.0)

    def negated(self) -> "FieldPair":
        return FieldPair(-self.h, -self.l)

    def as_tuple(self) -> tuple[float, float]:
        return (self.h, self.l)


@dataclass(frozen=True)
class SolverConfig:
    """Grid and tolerance knobs.  The scan window is not one of them: each
    scan covers ``[-w, w]`` (or ``[0, w]`` where only nonnegative roots are
    sought), with ``w`` the a-priori bound of the instance being solved plus
    0.5, so no root can lie outside it.  Bisection stops at ``bisect_tol``
    or when the midpoint no longer lies strictly inside its bracket."""

    grid_points: int = 4096
    bisect_tol: float = 1e-12
    residual_tol: float = 1e-9
    dedup_tol: float = 1e-7

    def __post_init__(self):
        if self.grid_points < 64:
            raise ValueError(f"grid_points must be >= 64, got {self.grid_points}")
        for name in ("bisect_tol", "residual_tol", "dedup_tol"):
            value = getattr(self, name)
            # NaN fails both comparisons
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


# distance by which every scan window extends past the a-priori bound
_SCAN_MARGIN = 0.5


@dataclass(frozen=True)
class SolutionSet:
    """Deduplicated solutions of one instance, sorted by (h, l), with the
    solve's warnings.  The set is complete up to roots the scan grid of the
    ``SolverConfig`` cannot separate, never beyond."""

    solutions: tuple[FieldPair, ...]
    warnings: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def largest_nonnegative(self) -> FieldPair:
        """Lexicographically largest pair with h >= 0 and l >= 0
        ((0, 0) is always present, so this never fails)."""
        return max(
            (p for p in self.solutions if p.h >= 0.0 and p.l >= 0.0),
            key=lambda p: (p.h, p.l),
        )


def system_residual(r: ReducedParams, theta: float, pair: FieldPair) -> float:
    """max of the two equation residuals at ``pair``."""
    fh = f_theta(theta, pair.h)
    fl = f_theta(theta, pair.l)
    return max(
        abs(pair.h - r.a * fh - r.b * fl),
        abs(pair.l - r.c * fh - r.d * fl),
    )


# ---------------------------------------------------------------------------
# 1-D machinery
# ---------------------------------------------------------------------------


def _bisect(fn, lo: float, hi: float, flo: float, fhi: float, cfg: SolverConfig) -> float:
    """Bisection to ``bisect_tol`` followed by a few secant polish steps.

    The polish pushes the root to float-limited accuracy, which the exact
    finite-volume checks (run at 1e-12) rely on downstream.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if (hi - lo) <= cfg.bisect_tol or mid <= lo or mid >= hi:
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) != (fm < 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    best_x, best_f = (lo, abs(flo)) if abs(flo) <= abs(fhi) else (hi, abs(fhi))
    x0, f0, x1, f1 = lo, flo, hi, fhi
    for _ in range(4):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not math.isfinite(x2):
            break
        f2 = fn(x2)
        if abs(f2) < best_f:
            best_x, best_f = x2, abs(f2)
        x0, f0, x1, f1 = x1, f1, x2, f2
        if f2 == 0.0:
            break
    return best_x


def _dedup_sorted(values: Sequence[float], tol: float) -> list[float]:
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] >= tol:
            out.append(v)
    return out


# The scan grid of a row is np.linspace(lo, hi, grid_points + 1).  Every
# _STRIDE-th point of it (and the last) is evaluated first; the grid points
# between two of these form a cell, evaluated only when it may hold a root.
_STRIDE = 16
# Above the 1e-5 at which a grid extremum is probed for a tangential root,
# with room for the rounding of the residual's evaluation.
_SCREEN_MARGIN = 2e-5


def _grid_x(j, lo, step, hi, n: int, underflow: bool):
    """``np.linspace(lo, hi, n + 1)[j]`` for ``j < n``, bit for bit, with
    ``lo``, ``step = (hi - lo) / n`` and ``hi`` given per point."""
    x = j * step
    if underflow:  # linspace's path for a step that rounds to zero
        x = np.where(step == 0.0, j / n * (hi - lo), x)
    x += lo
    return x


def _evaluate(fn, rows, xs: np.ndarray) -> np.ndarray:
    ys = np.asarray(fn(rows, xs), dtype=float)
    if ys.shape != xs.shape:
        raise ValueError(f"fn returned shape {ys.shape} on a grid of shape {xs.shape}")
    return ys


def _scan(fn, los, his, lips, cfg: SolverConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Scan grid of every row, evaluated wherever a root can lie.

    ``fn(rows, x)`` is the residual of row ``rows[i]`` at ``x[i]``, with
    ``rows`` broadcast against ``x``; a single row is passed as the scalar
    0, so that its parameters reach the kernel as scalars.  Row r's grid is
    ``np.linspace(los[r], his[r], cfg.grid_points + 1)`` and ``lips[r]``
    bounds the slope of its residual (the screen in the module docstring).
    Returns, per row, the evaluated grid points in order and the residual
    there.  Two evaluated points that are not grid neighbours meet only
    across a dropped cell, where the full grid has no zero, sign change or
    small extremum either.
    """
    if not los:
        return []
    n, size = cfg.grid_points, len(los)
    steps = [(hi - lo) / n for lo, hi in zip(los, his)]
    underflow = 0.0 in steps
    lo_v, step_v, hi_v = np.array(los), np.array(steps), np.array(his)
    rows = np.arange(size)[:, None] if size > 1 else 0
    coarse = np.arange(0, n + _STRIDE, _STRIDE)
    coarse[-1] = n
    xc = _grid_x(coarse, lo_v[:, None], step_v[:, None], hi_v[:, None], n, underflow)
    xc[:, -1] = hi_v
    yc = _evaluate(fn, rows, xc)
    # half a cell is at most _STRIDE / 2 steps; with no bound (L = inf)
    # the threshold is inf, or nan for a zero step, and drops nothing
    half = [_SCREEN_MARGIN + lip * (_STRIDE / 2) * step for lip, step in zip(lips, steps)]
    ay = np.abs(yc)
    kept = ~(np.minimum(ay[:, :-1], ay[:, 1:]) > np.array(half)[:, None])
    up = yc > 0.0
    kept |= up[:, :-1] != up[:, 1:]
    # Output layout, per row in grid order: each coarse point, followed by
    # its cell's interior points when the cell is kept.
    inner = coarse[1:] - coarse[:-1]
    inner -= 1
    seg = np.ones(yc.shape, dtype=np.intp)
    seg[:, :-1] += kept * inner
    ends = seg.cumsum().reshape(seg.shape)
    first = ends - seg
    xs = np.empty(ends[-1, -1])
    ys = np.empty(ends[-1, -1])
    xs[first] = xc
    ys[first] = yc
    kr, kc = kept.nonzero()
    if kc.size:
        # interior offsets 1 .. _STRIDE - 1; a short last cell repeats its
        # last interior point, which writes the same value twice
        offs = np.minimum(np.arange(1, _STRIDE), inner[kc][:, None])
        at = first[kr, kc][:, None] + offs
        prow = kr[:, None] if size > 1 else 0
        xi = _grid_x(coarse[kc][:, None] + offs, lo_v[prow], step_v[prow], hi_v[prow], n,
                     underflow)
        xs[at] = xi
        ys[at] = _evaluate(fn, prow, xi)
    bounds = [0, *ends[:, -1].tolist()]
    return [(xs[lo:hi], ys[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _roots_on_grid(fn, xs: np.ndarray, ys: np.ndarray, cfg: SolverConfig) -> list[float]:
    """Exact grid zeros plus one bisected root per sign-change cell."""
    roots = xs[ys == 0.0].tolist()
    sign_change = np.nonzero(ys[:-1] * ys[1:] < 0.0)[0]
    for i in sign_change:
        roots.append(
            _bisect(fn, float(xs[i]), float(xs[i + 1]), float(ys[i]), float(ys[i + 1]), cfg)
        )
    return _dedup_sorted(roots, cfg.dedup_tol)


def find_roots_1d(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    cfg: SolverConfig | None = None,
) -> list[float]:
    """Sign-change-isolated roots of ``fn`` on [lo, hi], sorted ascending.

    ``fn`` must act elementwise on numpy arrays of any shape (the grid
    evaluation) as well as on scalars (the bisection).  A root the function merely touches without
    crossing is reported only if a grid point evaluates to exactly zero.
    ``fn`` has no known slope bound, so every grid point is evaluated.
    """
    cfg = cfg or SolverConfig()
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad scan interval [{lo!r}, {hi!r}]")
    [(xs, ys)] = _scan(lambda rows, x: fn(x), [lo], [hi], [math.inf], cfg)
    return _roots_on_grid(fn, xs, ys, cfg)


def _bracket_below(fn, hi: float) -> Optional[float]:
    # Geometric hunt for a point with fn < 0 in (0, hi): safety net for a
    # repelling origin (slope > 1) whose companion root sits inside the
    # first grid cell.
    x = hi
    for _ in range(80):
        x *= 0.5
        if x <= 0.0:
            return None
        if fn(x) < 0.0:
            return x
    return None


def solve_scalar(m: int, theta: float, cfg: SolverConfig | None = None) -> list[float]:
    """All roots of ``h = m f_theta(h)`` for integer m >= 1 and theta in
    (0, 1), sorted ascending.

    The root h = 0 always exists; a symmetric pair +-h* appears exactly
    when m * theta > 1 (pitchfork at theta = 1/m).
    """
    cfg = cfg or SolverConfig()
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    theta = _check_theta(theta)
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta!r}")
    return _scalar_roots([m], [theta], cfg)[0]


def _scalar_residual(m, theta, x):
    return x - m * f_theta(theta, x)


def _scalar_roots(
    ms: Sequence[int], thetas: Sequence[float], cfg: SolverConfig
) -> list[list[float]]:
    """``solve_scalar`` at each row ``(ms[i], thetas[i])``, in one scan."""
    reach = {theta: arctanh(theta) for theta in thetas}
    his = [m * reach[theta] + _SCAN_MARGIN for m, theta in zip(ms, thetas)]
    m_rows, theta_rows = np.array(ms, dtype=float), np.array(thetas)
    grids = _scan(
        lambda rows, x: _scalar_residual(m_rows[rows], theta_rows[rows], x),
        [-hi for hi in his], his,
        [1.0 + m * theta for m, theta in zip(ms, thetas)],  # slope 1 - m f_theta'
        cfg,
    )
    out = []
    for m, theta, hi, (xs, ys) in zip(ms, thetas, his, grids):
        fn = partial(_scalar_residual, m, theta)
        roots = _roots_on_grid(fn, xs, ys, cfg)
        if not any(abs(x) < cfg.dedup_tol for x in roots):
            roots.append(0.0)
        if m * theta > 1.0 and not any(x > cfg.dedup_tol for x in roots):
            x_neg = _bracket_below(fn, hi)
            if x_neg is not None:
                root = _bisect(fn, x_neg, hi, fn(x_neg), fn(hi), cfg)
                roots.extend([root, -root])
        out.append(_dedup_sorted(roots, cfg.dedup_tol))
    return out


# ---------------------------------------------------------------------------
# Case solvers
# ---------------------------------------------------------------------------


def max_shifted_gain(d: int, theta: float) -> float:
    """max over x >= 0 of ``d f_theta(x) - x`` for d >= 1, theta in (0, 1).

    Zero when d*theta <= 1; otherwise attained where f_theta' = 1/d, i.e.
    tanh(x)^2 = (d theta - 1)/(d theta - theta^2).  The shifted equation
    x = t + d f_theta(x) has three roots when |t| is below this gain, two
    at the (double-root) boundary, one above it.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d!r}")
    theta = _check_theta(theta)
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta!r}")
    if d * theta <= 1.0:
        return 0.0
    t_sq = (d * theta - 1.0) / (d * theta - theta * theta)
    x_bar = arctanh(math.sqrt(t_sq))
    return d * f_theta(theta, x_bar) - x_bar


def _shifted_residual(d, t, theta, x):
    return x - t - d * f_theta(theta, x)


def _shifted_scalar_roots(
    d: int, shifts: Sequence[float], thetas: Sequence[float], cfg: SolverConfig
) -> list[tuple[list[float], list[str]]]:
    """Roots of ``x = t + d f_theta(x)`` plus any degeneracy warnings, at
    each row ``(shifts[i], thetas[i])``, in one scan.

    The two-root boundary |t| = max_shifted_gain is a tangential double
    root invisible to the sign-change scan, so near-zero grid extrema of
    the residual are refined by ternary search and flagged.
    """
    if d == 0:
        return [([t], []) for t in shifts]
    reach = {theta: arctanh(abs(theta)) for theta in thetas}
    bounds = [abs(t) + abs(d) * reach[theta] + _SCAN_MARGIN for t, theta in zip(shifts, thetas)]
    t_rows, theta_rows = np.array(shifts, dtype=float), np.array(thetas)
    grids = _scan(
        lambda rows, x: _shifted_residual(d, t_rows[rows], theta_rows[rows], x),
        [-b for b in bounds], bounds,
        [1.0 + abs(d) * abs(theta) for theta in thetas],  # slope 1 - d f_theta'
        cfg,
    )
    out = []
    for t, theta, (xs, ys) in zip(shifts, thetas, grids):
        fn = partial(_shifted_residual, d, t, theta)
        roots = _roots_on_grid(fn, xs, ys, cfg)
        warnings: list[str] = []
        interior = np.arange(1, len(xs) - 1)
        is_min = (ys[interior] < ys[interior - 1]) & (ys[interior] <= ys[interior + 1])
        is_max = (ys[interior] > ys[interior - 1]) & (ys[interior] >= ys[interior + 1])
        for idx in interior[(is_min | is_max) & (np.abs(ys[interior]) < 1e-5)]:
            a_x, b_x = float(xs[idx - 1]), float(xs[idx + 1])
            sign = 1.0 if ys[idx] > 0.0 else -1.0
            for _ in range(120):  # ternary search on sign * fn
                m1 = a_x + (b_x - a_x) / 3.0
                m2 = b_x - (b_x - a_x) / 3.0
                if sign * fn(m1) <= sign * fn(m2):
                    b_x = m2
                else:
                    a_x = m1
            x_star = 0.5 * (a_x + b_x)
            if abs(fn(x_star)) < cfg.residual_tol and all(
                abs(x_star - r) >= cfg.dedup_tol for r in roots
            ):
                roots.append(x_star)
                warnings.append(
                    f"boundary-degenerate: double root near x={x_star:.12g} "
                    f"(shift t={t:.12g}, d={d})"
                )
        out.append((_dedup_sorted(roots, cfg.dedup_tol), warnings))
    return out


def _case_b0(r: ReducedParams, thetas: Sequence[float], cfg: SolverConfig):
    # h = a f_theta(h) decouples (only h = 0 when a <= 0); each h-branch
    # leaves l = (c/a) h + d f_theta(l).  Both scalar equations are solved
    # in one scan (once when a == d), then every shifted one in another.
    a, c, d = r.a, r.c, r.d
    n = len(thetas)
    ms = [m for m in dict.fromkeys((a, d)) if m > 0]
    rows_m = [m for m in ms for _ in thetas]
    found = _scalar_roots(rows_m, list(thetas) * len(ms), cfg) if ms else []
    by_m = {m: found[i * n:(i + 1) * n] for i, m in enumerate(ms)}
    zero = [[0.0]] * n
    cases: list[tuple[list[FieldPair], list[str]]] = []
    branches = []  # (theta index, positive h root); negative ones are mirrored
    for i, (h_roots, l_roots) in enumerate(zip(by_m.get(a, zero), by_m.get(d, zero))):
        cases.append(([], []))
        for h_root in h_roots:
            if h_root == 0.0:
                cases[i][0].extend(FieldPair(0.0, float(l)) for l in l_roots)
            elif h_root > 0.0:
                branches.append((i, h_root))
    if not branches:
        return cases
    # t equals c * f_theta(h_root) on the solved branch
    shifted = _shifted_scalar_roots(
        d, [(c / a) * h for _, h in branches], [thetas[i] for i, _ in branches], cfg
    )
    for (i, h_root), (l_roots, warn) in zip(branches, shifted):
        pairs, warnings = cases[i]
        warnings.extend(warn)
        for l_root in l_roots:
            pairs.append(FieldPair(h_root, float(l_root)))
            pairs.append(FieldPair(-h_root, -float(l_root)))
    return cases


def _closed_residual(a, b, det, d, theta, h):
    fh = f_theta(theta, h)  # one kernel call serves both terms
    return h - a * fh - b * f_theta(theta, (det * fh + d * h) / b)


def _case_general(r: ReducedParams, thetas: Sequence[float], cfg: SolverConfig):
    # Substitute f_theta(l) = (h - a f_theta(h))/b into the second equation:
    # l = phi(h) = [(bc - ad) f_theta(h) + d h]/b, then close the first as
    # h = a f_theta(h) + b f_theta(phi(h)).  Needs only b != 0; a may be 0.
    a, b, c, d = r.abcd
    det = b * c - a * d
    bounds = [(abs(a) + abs(b)) * arctanh(abs(theta)) + _SCAN_MARGIN for theta in thetas]
    theta_rows = np.array(thetas)
    grids = _scan(
        lambda rows, h: _closed_residual(a, b, det, d, theta_rows[rows], h),
        [0.0] * len(thetas), bounds,
        # slope 1 - a f'(h) - f'(phi) (det f'(h) + d) with 0 < f' <= theta
        [1.0 + abs(a) * t + t * (abs(det) * t + abs(d)) for t in thetas],
        cfg,
    )
    out = []
    for theta, bound, (xs, ys) in zip(thetas, bounds, grids):
        psi_residual = partial(_closed_residual, a, b, det, d, theta)
        pos = [x for x in _roots_on_grid(psi_residual, xs, ys, cfg) if x > 0.0]
        if criterion_value(r, theta) > 1.0 and not pos:
            x_neg = _bracket_below(psi_residual, bound)
            if x_neg is not None:
                pos.append(
                    _bisect(psi_residual, x_neg, bound, psi_residual(x_neg),
                            psi_residual(bound), cfg)
                )
        pairs = [FieldPair(0.0, 0.0)]
        for h_root in pos:
            l_root = float((det * f_theta(theta, h_root) + d * h_root) / b)  # phi(h)
            pairs.append(FieldPair(h_root, l_root))
            pairs.append(FieldPair(-h_root, -l_root))
        out.append((pairs, []))
    return out


def _assemble(
    pairs: Sequence[FieldPair],
    warnings: Sequence[str],
    r: ReducedParams,
    theta: float,
    cfg: SolverConfig,
) -> SolutionSet:
    """Residual-filter, deduplicate and sort candidates against the
    *original* (r, theta); +- closure holds by construction."""
    kept: list[FieldPair] = [FieldPair(0.0, 0.0)]
    dropped = 0
    reps = set()
    for p in pairs:
        rep = p if (p.h > 0.0 or (p.h == 0.0 and p.l >= 0.0)) else p.negated()
        reps.add(rep.as_tuple())
    for rep in sorted(reps):
        pair = FieldPair(*rep)
        if any(
            max(abs(pair.h - q.h), abs(pair.l - q.l)) < cfg.dedup_tol
            for q in kept
        ):
            continue
        if system_residual(r, theta, pair) >= cfg.residual_tol:
            dropped += 1
            continue
        kept.append(pair)
        kept.append(pair.negated())
    notes = list(warnings)
    if dropped:
        notes.append(f"dropped {dropped} candidate root(s) failing the residual check")
    kept.sort(key=lambda p: (p.h, p.l))
    return SolutionSet(solutions=tuple(kept), warnings=tuple(notes))


def solve_system(r: ReducedParams, theta: float, cfg: SolverConfig | None = None) -> SolutionSet:
    """All isolated solutions of the two-field system for reduced
    parameters ``r`` at the given theta."""
    return _solve_thetas(r, [theta], cfg or SolverConfig())[0]


def _solve_thetas(
    r: ReducedParams, thetas: Sequence[float], cfg: SolverConfig
) -> list[SolutionSet]:
    """``solve_system`` at each theta, each case solver scanning all of
    them at once."""
    thetas = [_check_theta(theta) for theta in thetas]
    found = [([], [])] * len(thetas)  # theta = 0 and r = 0 leave only (0, 0)
    if r.abcd != (0, 0, 0, 0):
        # Oddness in theta: the system for theta < 0 equals the system for
        # |theta| with all four parameters negated (same solution pairs).
        for sign in (1.0, -1.0):
            idx = [i for i, theta in enumerate(thetas) if sign * theta > 0.0]
            if idx:
                r_eff = r if sign > 0.0 else r.negated()
                for i, case in zip(idx, _cases(r_eff, [sign * thetas[i] for i in idx], cfg)):
                    found[i] = case
    return [
        _assemble(pairs, warns, r, theta, cfg)
        for (pairs, warns), theta in zip(found, thetas)
    ]


def _cases(r: ReducedParams, thetas: list[float], cfg: SolverConfig):
    """Candidate pairs and warnings at each theta > 0."""
    if r.b == 0:
        return _case_b0(r, thetas, cfg)
    if r.c == 0:
        # Swapping h and l maps (a, b, c, d) to (d, c, b, a): solve the
        # transpose, where l decouples first, and swap each pair back.
        a, b, _, d = r.abcd
        return [
            ([FieldPair(p.l, p.h) for p in pairs], warns)
            for pairs, warns in _case_b0(ReducedParams(d, 0, b, a, r.k), thetas, cfg)
        ]
    return _case_general(r, thetas, cfg)
