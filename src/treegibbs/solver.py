"""Root isolation for the two-field fixed-point system

    h = a f_theta(h) + b f_theta(l)
    l = c f_theta(h) + d f_theta(l)

split into the four classical case reductions on (a = 0?, b = 0?), with a
grid-scan + bisection root isolator underneath.  Every returned pair is
verified against both equations; the solution set always contains (0, 0)
and is closed under (h, l) -> (-h, -l).

The isolator only finds sign-change-separated roots: a tangential root is
found only when a grid point lands essentially on top of it.  The scan
interval is derived from the a-priori bound |h| <= (|a|+|b|) arctanh(theta)
(the kernel is bounded, so every root lives there); only tangency can hide
a root, not escape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import arctanh, f_theta
from .scheme import ReducedParams


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
    """Scan / tolerance knobs.  Scans cover ``[-scan_hi, scan_hi]`` (or
    ``[0, scan_hi]`` where only nonnegative roots are sought);
    ``scan_hi = None`` derives the window from the a-priori bound of the
    instance being solved, and a set ``scan_hi`` below that bound makes the
    solve raise ``ValueError``."""

    scan_hi: Optional[float] = None
    grid_points: int = 4096
    bisect_tol: float = 1e-12
    residual_tol: float = 1e-9
    dedup_tol: float = 1e-7
    max_iter: int = 128

    def __post_init__(self):
        if self.grid_points < 64:
            raise ValueError(f"grid_points must be >= 64, got {self.grid_points}")
        for name in ("bisect_tol", "residual_tol", "dedup_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.scan_hi is not None and not self.scan_hi > 0.0:
            raise ValueError(f"scan_hi must be positive, got {self.scan_hi}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


def _scan_hi(cfg: SolverConfig, bound: float) -> float:
    """Upper end of the scan for roots with |x| <= ``bound``: the bound plus
    a 0.5 margin by default.  A configured ``scan_hi`` below the bound would
    silently lose roots, so it is refused."""
    if cfg.scan_hi is None:
        return bound + 0.5
    if cfg.scan_hi < bound:
        raise ValueError(
            f"scan interval [-{cfg.scan_hi}, {cfg.scan_hi}] does not cover "
            f"[-{bound}, {bound}]"
        )
    return cfg.scan_hi


@dataclass(frozen=True)
class SolutionSet:
    """Deduplicated solutions of one instance, sorted by (h, l).

    ``grid_points`` records the scan density: the set is complete up to
    roots the grid cannot separate, never beyond.
    """

    solutions: tuple[FieldPair, ...]
    residual_tol: float
    dedup_tol: float
    grid_points: int
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
    for _ in range(cfg.max_iter):
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


def _grid(fn, lo: float, hi: float, cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """The scan grid on [lo, hi] and ``fn`` evaluated on it."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad scan interval [{lo!r}, {hi!r}]")
    xs = np.linspace(lo, hi, cfg.grid_points + 1)
    ys = np.asarray(fn(xs), dtype=float)
    if ys.shape != xs.shape:
        ys = np.array([fn(float(x)) for x in xs], dtype=float)
    return xs, ys


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

    ``fn`` must accept a numpy array (the grid evaluation) as well as
    scalars (the bisection).  A root the function merely touches without
    crossing is reported only if a grid point evaluates to exactly zero.
    """
    cfg = cfg or SolverConfig()
    xs, ys = _grid(fn, lo, hi, cfg)
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
    theta = float(theta)
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
    bound = m * arctanh(theta)
    hi = _scan_hi(cfg, bound)

    def fn(x):
        return x - m * f_theta(theta, x)

    roots = find_roots_1d(fn, -hi, hi, cfg)
    if not any(abs(x) < cfg.dedup_tol for x in roots):
        roots.append(0.0)
    if m * theta > 1.0 and not any(x > cfg.dedup_tol for x in roots):
        x_neg = _bracket_below(fn, hi)
        if x_neg is not None:
            root = _bisect(fn, x_neg, hi, fn(x_neg), fn(hi), cfg)
            roots.extend([root, -root])
    return _dedup_sorted(roots, cfg.dedup_tol)


def _scalar_roots_signed(coef: int, theta: float, cfg: SolverConfig) -> list[float]:
    """Roots of ``x = coef * f_theta(x)`` for any integer coef and any
    nonzero theta in (-1, 1).

    For coef = 0, or an effective slope coef * theta <= 0, the only root
    is 0 (x and coef * f_theta(x) then have opposite signs for x != 0).
    """
    if coef == 0:
        return [0.0]
    theta_eff = theta if coef > 0 else -theta
    if theta_eff <= 0.0:
        return [0.0]
    return solve_scalar(abs(coef), theta_eff, cfg)


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
    theta = float(theta)
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
    if d * theta <= 1.0:
        return 0.0
    t_sq = (d * theta - 1.0) / (d * theta - theta * theta)
    x_bar = arctanh(math.sqrt(t_sq))
    return d * f_theta(theta, x_bar) - x_bar


def _shifted_scalar_roots(
    d: int, t: float, theta: float, cfg: SolverConfig
) -> tuple[list[float], list[str]]:
    """Roots of ``x = t + d f_theta(x)`` plus any degeneracy warnings.

    The two-root boundary |t| = max_shifted_gain is a tangential double
    root invisible to the sign-change scan, so near-zero grid extrema of
    the residual are refined by ternary search and flagged.
    """
    if d == 0:
        return [t], []
    bound = _scan_hi(cfg, abs(t) + abs(d) * arctanh(abs(theta)))

    def fn(x):
        return x - t - d * f_theta(theta, x)

    xs, ys = _grid(fn, -bound, bound, cfg)
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
    return _dedup_sorted(roots, cfg.dedup_tol), warnings


def _case_a0_b0(r: ReducedParams, theta: float, cfg: SolverConfig):
    # h = 0 forced; l = d f_theta(l).
    pairs = [FieldPair(0.0, float(l)) for l in _scalar_roots_signed(r.d, theta, cfg)]
    return pairs, []


def _case_a0(r: ReducedParams, theta: float, cfg: SolverConfig):
    # h = b f_theta(l); l = g(l) = c f_theta(b f_theta(l)) + d f_theta(l).
    b, c, d = r.b, r.c, r.d
    bound = _scan_hi(cfg, (abs(c) + abs(d)) * arctanh(abs(theta)))

    def g_residual(x):
        return x - c * f_theta(theta, b * f_theta(theta, x)) - d * f_theta(theta, x)

    pos = [x for x in find_roots_1d(g_residual, 0.0, bound, cfg) if x > 0.0]
    slope0 = (b * c) * theta * theta + d * theta
    if slope0 > 1.0 and not pos:
        x_neg = _bracket_below(g_residual, bound)
        if x_neg is not None:
            pos.append(
                _bisect(g_residual, x_neg, bound, g_residual(x_neg), g_residual(bound), cfg)
            )
    pairs = [FieldPair(0.0, 0.0)]
    for l_root in pos:
        h_root = b * f_theta(theta, l_root)
        pairs.append(FieldPair(h_root, l_root))
        pairs.append(FieldPair(-h_root, -l_root))
    return pairs, []


def _case_b0(r: ReducedParams, theta: float, cfg: SolverConfig):
    # h = a f_theta(h) decouples; each h-branch leaves l = (c/a) h + d f_theta(l).
    a, c, d = r.a, r.c, r.d
    warnings: list[str] = []
    pairs: list[FieldPair] = []
    for h_root in _scalar_roots_signed(a, theta, cfg):
        if h_root < 0.0:
            continue  # mirrored below
        if h_root == 0.0:
            pairs.extend(
                FieldPair(0.0, float(l)) for l in _scalar_roots_signed(d, theta, cfg)
            )
            continue
        t = (c / a) * h_root  # equals c * f_theta(h_root) on the solved branch
        l_roots, warn = _shifted_scalar_roots(d, t, theta, cfg)
        warnings.extend(warn)
        for l_root in l_roots:
            pairs.append(FieldPair(h_root, float(l_root)))
            pairs.append(FieldPair(-h_root, -float(l_root)))
    return pairs, warnings


def _case_general(r: ReducedParams, theta: float, cfg: SolverConfig):
    # Substitute f_theta(l) = (h - a f_theta(h))/b into the second equation:
    # l = phi(h) = [(bc - ad) f_theta(h) + d h]/b, then close the first as
    # h = a f_theta(h) + b f_theta(phi(h)).
    a, b, c, d = r.abcd
    det = b * c - a * d
    bound = _scan_hi(cfg, (abs(a) + abs(b)) * arctanh(abs(theta)))

    def phi(h):
        return (det * f_theta(theta, h) + d * h) / b

    def psi_residual(h):
        return h - a * f_theta(theta, h) - b * f_theta(theta, phi(h))

    pos = [x for x in find_roots_1d(psi_residual, 0.0, bound, cfg) if x > 0.0]
    slope0 = det * theta * theta + (a + d) * theta
    if slope0 > 1.0 and not pos:
        x_neg = _bracket_below(psi_residual, bound)
        if x_neg is not None:
            pos.append(
                _bisect(psi_residual, x_neg, bound, psi_residual(x_neg),
                        psi_residual(bound), cfg)
            )
    pairs = [FieldPair(0.0, 0.0)]
    for h_root in pos:
        l_root = float(phi(h_root))
        pairs.append(FieldPair(h_root, l_root))
        pairs.append(FieldPair(-h_root, -l_root))
    return pairs, []


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
    return SolutionSet(
        solutions=tuple(kept),
        residual_tol=cfg.residual_tol,
        dedup_tol=cfg.dedup_tol,
        grid_points=cfg.grid_points,
        warnings=tuple(notes),
    )


def _solve_dispatch(r: ReducedParams, theta: float, cfg: SolverConfig | None) -> SolutionSet:
    cfg = cfg or SolverConfig()
    theta = float(theta)
    if abs(theta) >= 1.0:
        raise ValueError(f"theta must lie in (-1, 1), got {theta!r}")
    if theta == 0.0 or r.abcd == (0, 0, 0, 0):
        return _assemble([], [], r, theta, cfg)
    # Oddness in theta: the system for theta < 0 equals the system for
    # |theta| with all four parameters negated (same solution pairs).
    if theta < 0.0:
        r_eff, theta_eff = r.negated(), -theta
    else:
        r_eff, theta_eff = r, theta
    if r_eff.a == 0 and r_eff.b == 0:
        pairs, warns = _case_a0_b0(r_eff, theta_eff, cfg)
    elif r_eff.a == 0:
        pairs, warns = _case_a0(r_eff, theta_eff, cfg)
    elif r_eff.b == 0:
        pairs, warns = _case_b0(r_eff, theta_eff, cfg)
    else:
        pairs, warns = _case_general(r_eff, theta_eff, cfg)
    return _assemble(pairs, warns, r, theta, cfg)


def solve_case_a0_b0(r: ReducedParams, theta: float, cfg: SolverConfig | None = None) -> SolutionSet:
    """a = b = 0: h = 0 and l solves the scalar equation l = d f_theta(l)."""
    if r.a != 0 or r.b != 0:
        raise ValueError(f"case requires a = b = 0, got {r.abcd}")
    return _solve_dispatch(r, theta, cfg)


def solve_case_a0(r: ReducedParams, theta: float, cfg: SolverConfig | None = None) -> SolutionSet:
    """a = 0, b != 0: close in l, back-substitute h = b f_theta(l)."""
    if r.a != 0 or r.b == 0:
        raise ValueError(f"case requires a = 0, b != 0, got {r.abcd}")
    return _solve_dispatch(r, theta, cfg)


def solve_case_b0(r: ReducedParams, theta: float, cfg: SolverConfig | None = None) -> SolutionSet:
    """a != 0, b = 0: h decouples; solve the shifted l-equation per branch."""
    if r.a == 0 or r.b != 0:
        raise ValueError(f"case requires a != 0, b = 0, got {r.abcd}")
    return _solve_dispatch(r, theta, cfg)


def solve_case_general(r: ReducedParams, theta: float, cfg: SolverConfig | None = None) -> SolutionSet:
    """a != 0, b != 0: close in h via the composed map, back-substitute l."""
    if r.a == 0 or r.b == 0:
        raise ValueError(f"case requires a != 0 and b != 0, got {r.abcd}")
    return _solve_dispatch(r, theta, cfg)


def solve_system(r: ReducedParams, theta: float, cfg: SolverConfig | None = None) -> SolutionSet:
    """All isolated solutions of the two-field system for reduced
    parameters ``r`` at the given theta."""
    return _solve_dispatch(r, theta, cfg)
