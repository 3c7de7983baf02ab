"""Finite rooted k-ary trees and four-valued boundary assignments.

The half tree of order k roots an infinite tree so that every vertex has
exactly k children.  Vertices are indexed breadth-first (heap layout), so
the children of vertex v are k*v+1 .. k*v+k and its parent is (v-1)//k.

A boundary assignment labels every vertex with one of {+H, -H, +L, -L};
the child labels of a vertex are fixed by a scheme matrix (row ``a`` under
an H-type parent, row ``b`` under an L-type parent, sign-flipped under a
negative parent).  Labels resolve to numbers late, through a field pair
(h, l), so one assignment can be re-evaluated against several solutions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .kernels import f_theta
from .scheme import SchemeMatrix
from .solver import FieldPair

MAX_VERTICES = 1_000_000


class CapacityError(RuntimeError):
    """A requested finite volume exceeds the configured desk-scale cap."""


class FieldLabel(Enum):
    PLUS_H = "+H"
    MINUS_H = "-H"
    PLUS_L = "+L"
    MINUS_L = "-L"

    def negated(self) -> "FieldLabel":
        return _NEGATION[self]

    @property
    def is_h_type(self) -> bool:
        return self in (FieldLabel.PLUS_H, FieldLabel.MINUS_H)

    @property
    def sign(self) -> int:
        return 1 if self in (FieldLabel.PLUS_H, FieldLabel.PLUS_L) else -1


_NEGATION = {
    FieldLabel.PLUS_H: FieldLabel.MINUS_H,
    FieldLabel.MINUS_H: FieldLabel.PLUS_H,
    FieldLabel.PLUS_L: FieldLabel.MINUS_L,
    FieldLabel.MINUS_L: FieldLabel.PLUS_L,
}


def _label(h_type: bool, sign: int) -> FieldLabel:
    if h_type:
        return FieldLabel.PLUS_H if sign > 0 else FieldLabel.MINUS_H
    return FieldLabel.PLUS_L if sign > 0 else FieldLabel.MINUS_L


@dataclass(frozen=True)
class FiniteTree:
    """Complete k-ary tree of the given depth with heap vertex indexing."""

    k: int
    depth: int
    level_offsets: tuple[int, ...]  # level m occupies [offsets[m], offsets[m+1])

    @property
    def num_vertices(self) -> int:
        return self.level_offsets[-1]

    def num_vertices_to_depth(self, n: int) -> int:
        return self.level_offsets[n + 1]

    def level(self, m: int) -> range:
        return range(self.level_offsets[m], self.level_offsets[m + 1])

    def level_of(self, v: int) -> int:
        for m in range(self.depth + 1):
            if v < self.level_offsets[m + 1]:
                return m
        raise KeyError(f"vertex {v} not in tree")

    def children(self, v: int) -> range:
        if v >= self.level_offsets[self.depth]:
            return range(0, 0)  # leaf
        return range(self.k * v + 1, self.k * v + self.k + 1)

    def parent(self, v: int) -> int:
        if v == 0:
            return -1
        return (v - 1) // self.k


def build_tree(k: int, n: int, max_vertices: int = MAX_VERTICES) -> FiniteTree:
    """Half tree of order k and depth n (root has k children)."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"depth must be a non-negative integer, got {n!r}")
    offsets = [0]
    width = 1
    for _ in range(n + 1):
        offsets.append(offsets[-1] + width)
        if offsets[-1] > max_vertices:
            raise CapacityError(
                f"tree k={k}, depth={n} exceeds the {max_vertices}-vertex cap"
            )
        width *= k
    return FiniteTree(k=k, depth=n, level_offsets=tuple(offsets))


@dataclass(frozen=True)
class BoundaryAssignment:
    """Vertex labels plus the field pair giving them numeric meaning."""

    tree: FiniteTree
    labels: tuple[FieldLabel, ...]
    values: FieldPair
    scheme: Optional[SchemeMatrix] = None

    def label_at(self, v: int) -> FieldLabel:
        if not (0 <= v < self.tree.num_vertices):
            raise KeyError(f"vertex {v} not in assignment")
        return self.labels[v]

    def with_values(self, values: FieldPair) -> "BoundaryAssignment":
        return BoundaryAssignment(self.tree, self.labels, values, self.scheme)

    def numeric_fields(self) -> np.ndarray:
        """Vector of field values for all vertices, in index order."""
        h, l = self.values.h, self.values.l
        value_of = {
            FieldLabel.PLUS_H: h,
            FieldLabel.MINUS_H: -h,
            FieldLabel.PLUS_L: l,
            FieldLabel.MINUS_L: -l,
        }
        return np.array([value_of[lab] for lab in self.labels], dtype=float)


def assign_fields(
    tree: FiniteTree,
    m: SchemeMatrix,
    root_label: FieldLabel,
    values: FieldPair,
    seed: Optional[int] = None,
) -> BoundaryAssignment:
    """Label the whole tree from the root downward following the scheme.

    Children of each vertex are labelled in canonical block order (same-sign
    H block, opposite-sign H, same-sign L, opposite-sign L); pass ``seed``
    to permute each vertex's child block instead.  Any permutation yields
    the same per-vertex child multiset, hence the same compatibility
    residuals.
    """
    if tree.k != m.k:
        raise ValueError(f"tree order {tree.k} does not match scheme order {m.k}")
    rng = random.Random(seed) if seed is not None else None
    labels: list[FieldLabel] = [root_label] * tree.num_vertices
    labels[0] = root_label
    for v in range(tree.level_offsets[tree.depth]):
        lab = labels[v]
        counts = m.a if lab.is_h_type else m.b
        s = lab.sign
        block = (
            [_label(True, s)] * counts[0]
            + [_label(True, -s)] * counts[1]
            + [_label(False, s)] * counts[2]
            + [_label(False, -s)] * counts[3]
        )
        if rng is not None:
            rng.shuffle(block)
        for child, child_label in zip(tree.children(v), block):
            labels[child] = child_label
    return BoundaryAssignment(tree=tree, labels=tuple(labels), values=values, scheme=m)


def numeric_field(assignment: BoundaryAssignment, x: int) -> float:
    """Field value at vertex x: +-h for H-type labels, +-l for L-type."""
    lab = assignment.label_at(x)
    base = assignment.values.h if lab.is_h_type else assignment.values.l
    return lab.sign * base


@dataclass(frozen=True)
class CompatibilityReport:
    max_residual: float
    worst_vertex: int
    passed: bool
    tol: float


def verify_compatibility(
    assignment: BoundaryAssignment, theta: float, tol: float = 1e-9
) -> CompatibilityReport:
    """Check h_x = sum over children y of f_theta(h_y) at every internal
    vertex; passes iff the worst residual is below ``tol``.

    This is the bridge between the solved field pair and the finite-volume
    measures: the residual vanishes exactly when (h, l) solves the reduced
    two-field system of the assignment's scheme.
    """
    tree = assignment.tree
    if tree.depth < 1:
        raise ValueError("compatibility needs a tree of depth >= 1")
    vals = assignment.numeric_fields()
    f_vals = f_theta(theta, vals)
    n_internal = tree.level_offsets[tree.depth]
    child_sums = f_vals[1:].reshape(n_internal, tree.k).sum(axis=1)
    residuals = np.abs(vals[:n_internal] - child_sums)
    worst = int(np.argmax(residuals))
    max_residual = float(residuals[worst])
    return CompatibilityReport(
        max_residual=max_residual,
        worst_vertex=worst,
        passed=bool(max_residual < tol),
        tol=tol,
    )


# ---------------------------------------------------------------------------
# Line-oriented assignment exchange format
# ---------------------------------------------------------------------------


def export_assignment(assignment: BoundaryAssignment) -> str:
    """Serialize as a header line ``k=<k> n=<n> h=<h> l=<l>`` followed by
    one ``vertex<TAB>parent<TAB>label`` line per vertex."""
    tree = assignment.tree
    lines = [
        f"k={tree.k} n={tree.depth} h={assignment.values.h!r} l={assignment.values.l!r}"
    ]
    for v in range(tree.num_vertices):
        lines.append(f"{v}\t{tree.parent(v)}\t{assignment.labels[v].value}")
    return "\n".join(lines) + "\n"


def parse_assignment(text: str) -> BoundaryAssignment:
    """Inverse of :func:`export_assignment` (scheme reference not recovered)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty assignment text")
    try:
        header = dict(item.split("=", 1) for item in lines[0].split())
        k, n = int(header["k"]), int(header["n"])
        values = FieldPair(float(header["h"]), float(header["l"]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad assignment header: {lines[0]!r}") from exc
    tree = build_tree(k, n)
    if len(lines) - 1 != tree.num_vertices:
        raise ValueError(
            f"expected {tree.num_vertices} vertex lines, got {len(lines) - 1}"
        )
    labels: list[FieldLabel] = [FieldLabel.PLUS_H] * tree.num_vertices
    seen = [False] * tree.num_vertices
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != 3:
            raise ValueError(f"bad assignment line: {ln!r}")
        v, parent = int(parts[0]), int(parts[1])
        if not (0 <= v < tree.num_vertices) or parent != tree.parent(v):
            raise ValueError(f"bad vertex/parent pair on line: {ln!r}")
        if seen[v]:
            raise ValueError(f"duplicate vertex {v}")
        seen[v] = True
        labels[v] = FieldLabel(parts[2])
    if not all(seen):
        raise ValueError("missing vertex lines")
    return BoundaryAssignment(tree=tree, labels=tuple(labels), values=values)
