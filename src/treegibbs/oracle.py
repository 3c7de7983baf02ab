"""Exact brute-force finite-volume computations at desk scale.

Configurations on the first n levels of a k-ary tree are enumerated as bit
masks (bit i set means spin -1 at vertex i, so mask 0 is the all-plus
configuration).  The unnormalised weight of a configuration is

    exp( beta*J * sum over edges sigma(x) sigma(y)
         + sum over outer-level x of h_x sigma(x) )

with the boundary field h_x acting on the outer level only.  These
measures are deliberately independent of the recursion machinery they are
used to test: plain enumeration, no transfer-matrix shortcuts.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .kernels import Coupling, k_beta
from .tree import BoundaryAssignment, CapacityError, FiniteTree

MAX_CONFIGS = 2**24
KOLMOGOROV_TOL = 1e-12


def _log_weights(
    tree: FiniteTree,
    boundary_fields: np.ndarray,
    coupling: Coupling,
    n: int,
    root_parent_spin: Optional[int],
) -> np.ndarray:
    """Full log weight of every configuration, built one site at a time.

    The root's terms (its field in a depth-0 volume, and bj*s*sigma(0)
    for a grafted parent spin s) fill ``out[:2]``.  Once sites 0..v-1
    fill ``out[:2^v]``, site v doubles the vector: its terms
    bj*sigma(p)*sigma(v) and, on the outer level, its boundary field are
    added in place for sigma(v) = +1 and written into
    ``out[2^v:2^(v+1)]`` for sigma(v) = -1.  Each entry ends as the
    energy of one configuration; nothing is summed out.
    """
    num_sites = tree.num_vertices_to_depth(n)
    bj = coupling.beta_j
    fields = np.zeros(num_sites)
    first_outer = tree.level_offsets[n]
    fields[first_outer:] = boundary_fields[first_outer:num_sites]
    out = np.empty(1 << num_sites, dtype=float)
    root_term = fields[0] + (0.0 if root_parent_spin is None else bj * root_parent_spin)
    out[0], out[1] = root_term, -root_term
    for v in range(1, num_sites):
        half = 1 << v
        p = (v - 1) // tree.k
        shape = (half >> (p + 1), 2, 1 << p)
        plus = out[:half].reshape(shape)
        minus = out[half : 2 * half].reshape(shape)
        # bit p of the lower half's index is sigma(p): 0 for +1, 1 for -1
        for bit, term in ((0, fields[v] + bj), (1, fields[v] - bj)):
            np.subtract(plus[:, bit, :], term, out=minus[:, bit, :])
            plus[:, bit, :] += term
    return out


@dataclass(frozen=True)
class FiniteVolumeMeasure:
    """Exactly enumerated Gibbs distribution on the first n levels.

    Weights are stored rescaled by exp(-log_scale) (the max log weight is
    subtracted before exponentiating) so the partition sum stays finite at
    large beta*J; probabilities are unaffected by the rescaling.
    """

    n: int
    num_sites: int
    weights: np.ndarray
    z: float
    log_scale: float

    @property
    def probabilities(self) -> np.ndarray:
        return self.weights / self.z

    def site_marginal(self, v: int) -> tuple[float, float]:
        """(P(sigma_v = +1), P(sigma_v = -1))."""
        if not (0 <= v < self.num_sites):
            raise KeyError(f"vertex {v} not in volume")
        shaped = self.weights.reshape(1 << (self.num_sites - v - 1), 2, 1 << v)
        # each half summed on its own: 1 - P(-1) would keep only absolute
        # precision in a small P(+1), and one sum over axes (0, 2) is ten
        # times slower at v = 0
        plus = float(shaped[:, 0, :].sum()) / self.z
        minus = float(shaped[:, 1, :].sum()) / self.z
        return plus, minus


def config_weight(
    tree: FiniteTree,
    assignment: BoundaryAssignment,
    coupling: Coupling,
    sigma: Sequence[int],
    n: int,
) -> float:
    """Literal (unrescaled) weight of one configuration on the first n levels."""
    num_sites = tree.num_vertices_to_depth(n)
    if len(sigma) != num_sites:
        raise ValueError(f"configuration must cover {num_sites} vertices, got {len(sigma)}")
    spins = np.asarray(sigma, dtype=float)
    if not (np.abs(spins) == 1.0).all():
        raise ValueError("spins must be +-1")
    parents = np.arange(num_sites - 1) // tree.k  # of vertices 1 .. num_sites - 1
    outer = slice(tree.level_offsets[n], num_sites)
    bonds = float(spins[parents] @ spins[1:])
    energy = coupling.beta_j * bonds + float(assignment.numeric_fields()[outer] @ spins[outer])
    return math.exp(energy)


def finite_volume_measure(
    tree: FiniteTree,
    assignment: BoundaryAssignment,
    coupling: Coupling,
    n: int,
    root_parent_spin: Optional[int] = None,
    max_configs: int = MAX_CONFIGS,
) -> FiniteVolumeMeasure:
    """Exact enumeration of the level-n Gibbs distribution.

    ``root_parent_spin`` (+1 or -1) grafts a frozen parent spin above the
    root, adding beta*J*s*sigma(root) to the energy: the configuration a
    variation-distance comparison at the root needs.
    """
    if n > tree.depth:
        raise ValueError(f"depth {n} exceeds tree depth {tree.depth}")
    num_sites = tree.num_vertices_to_depth(n)
    if 1 << num_sites > max_configs:
        raise CapacityError(
            f"2^{num_sites} configurations exceed the cap of {max_configs}"
        )
    if root_parent_spin not in (None, 1, -1):
        raise ValueError(f"root_parent_spin must be +-1 or None, got {root_parent_spin!r}")
    logw = _log_weights(tree, assignment.numeric_fields(), coupling, n, root_parent_spin)
    log_scale = float(np.max(logw))
    logw -= log_scale
    np.exp(logw, out=logw)
    return FiniteVolumeMeasure(
        n=n, num_sites=num_sites, weights=logw, z=float(logw.sum()), log_scale=log_scale
    )


@dataclass(frozen=True)
class KolmogorovReport:
    max_discrepancy: float
    passed: bool
    tol: float


def check_kolmogorov(
    mu_n: FiniteVolumeMeasure,
    mu_prev: FiniteVolumeMeasure,
    tol: Optional[float] = None,
) -> KolmogorovReport:
    """Compare the outer-level marginal of ``mu_n`` with ``mu_prev``.

    For every configuration on the first n-1 levels, sums ``mu_n`` over the
    outer level and takes the worst absolute difference from ``mu_prev``.
    The measures must come from the same tree, assignment and coupling.
    Each marginal entry sums ``n_outer`` probabilities whose total is at
    most 1, so its rounding error is bounded by ``n_outer`` ulps of 1; the
    default ``tol`` is ``max(KOLMOGOROV_TOL, n_outer * 2**-52)``.
    """
    if mu_n.n != mu_prev.n + 1:
        raise ValueError(f"depth mismatch: {mu_n.n} vs {mu_prev.n}")
    if mu_n.num_sites <= mu_prev.num_sites:
        raise ValueError("inconsistent volumes")
    n_outer = 1 << (mu_n.num_sites - mu_prev.num_sites)
    if tol is None:
        tol = max(KOLMOGOROV_TOL, n_outer * 2.0**-52)
    marginal = mu_n.weights.reshape(n_outer, 1 << mu_prev.num_sites).sum(axis=0) / mu_n.z
    max_discrepancy = float(np.max(np.abs(marginal - mu_prev.probabilities)))
    return KolmogorovReport(
        max_discrepancy=max_discrepancy, passed=bool(max_discrepancy < tol), tol=tol
    )


def root_marginal_ratio(mu: FiniteVolumeMeasure) -> float:
    """P(sigma_root = -1) / P(sigma_root = +1).

    For an assignment whose field pair solves the reduced system this
    equals exp(-2 * h_root).  Returns +inf (with a warning) if the plus
    probability underflows to zero.
    """
    p_plus, p_minus = mu.site_marginal(0)
    if p_plus == 0.0:
        _warnings.warn("root plus-probability underflowed; ratio reported as +inf")
        return math.inf
    return p_minus / p_plus


def variation_distance(mu1: FiniteVolumeMeasure, mu2: FiniteVolumeMeasure, v: int) -> float:
    """Variation distance of the spin-at-v marginals of two measures."""
    a_plus, a_minus = mu1.site_marginal(v)
    b_plus, b_minus = mu2.site_marginal(v)
    return 0.5 * (abs(a_plus - b_plus) + abs(a_minus - b_minus))


def parent_disagreement_distance(
    tree: FiniteTree,
    assignment: BoundaryAssignment,
    coupling: Coupling,
    n: int,
) -> tuple[float, float]:
    """Variation distance at the root between the measures with the grafted
    parent spin frozen to +1 and to -1, paired with the kernel prediction
    k_beta(exp(-2 h_root)) evaluated from the parent-free measure."""
    mu_plus = finite_volume_measure(tree, assignment, coupling, n, root_parent_spin=1)
    mu_minus = finite_volume_measure(tree, assignment, coupling, n, root_parent_spin=-1)
    mu_free = finite_volume_measure(tree, assignment, coupling, n)
    observed = variation_distance(mu_plus, mu_minus, 0)
    predicted = k_beta(coupling, root_marginal_ratio(mu_free))
    return observed, predicted
