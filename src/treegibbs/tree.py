"""Finite rooted k-ary trees and four-valued boundary assignments.

The half tree of order k roots an infinite tree so that every vertex has
exactly k children.  Vertices are indexed breadth-first (heap layout), so
the children of vertex v are k*v+1 .. k*v+k and its parent is (v-1)//k.

A boundary assignment labels every vertex with one of {+H, -H, +L, -L};
the child labels of a vertex are fixed by a scheme matrix (row ``a`` under
an H-type parent, row ``b`` under an L-type parent, sign-flipped under a
negative parent).  Labels resolve to numbers late, through a field pair
(h, l), so one assignment can be re-evaluated against several solutions.

An assignment stores its labels as one int8 code per vertex, in index
order: bit 0 is set for an L-type label and bit 1 for a negative one, so
the codes 0, 1, 2, 3 stand for +H, +L, -H, -L, the field values of the
codes are ``[h, l, -h, -l]`` and negation flips bit 1.  Labelling, field
values, the compatibility check and the exchange format all work on the
code array; ``BoundaryAssignment.labels`` is a tuple of ``FieldLabel``
decoded from it on first access, for callers that want enum members.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .kernels import f_theta
from .scheme import SchemeMatrix
from .solver import FieldPair

MAX_VERTICES = 1_000_000

_L_TYPE = 1  # code bit of an L-type label
_NEGATIVE = 2  # code bit of a negative label


class CapacityError(RuntimeError):
    """A requested finite volume exceeds the configured desk-scale cap."""


class FieldLabel(Enum):
    PLUS_H = "+H"
    MINUS_H = "-H"
    PLUS_L = "+L"
    MINUS_L = "-L"

    def negated(self) -> "FieldLabel":
        return _BY_CODE[_CODE[self] ^ _NEGATIVE]

    @property
    def is_h_type(self) -> bool:
        return not _CODE[self] & _L_TYPE

    @property
    def sign(self) -> int:
        return -1 if _CODE[self] & _NEGATIVE else 1


_BY_CODE = (FieldLabel.PLUS_H, FieldLabel.PLUS_L, FieldLabel.MINUS_H, FieldLabel.MINUS_L)
_CODE = {lab: code for code, lab in enumerate(_BY_CODE)}


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


def _field_values(values: FieldPair) -> np.ndarray:
    """Field value of each label code: ``[h, l, -h, -l]``."""
    return np.array([values.h, values.l, -values.h, -values.l], dtype=float)


@dataclass(frozen=True, eq=False)
class BoundaryAssignment:
    """Vertex labels, as int8 codes in index order (see the module
    docstring), plus the field pair giving them numeric meaning.  The code
    array is made read-only."""

    tree: FiniteTree
    codes: np.ndarray
    values: FieldPair
    scheme: Optional[SchemeMatrix] = None

    def __post_init__(self):
        self.codes.flags.writeable = False

    @functools.cached_property
    def labels(self) -> tuple[FieldLabel, ...]:
        """The labels of all vertices, in index order."""
        return tuple(map(_BY_CODE.__getitem__, self.codes.tolist()))

    def label_at(self, v: int) -> FieldLabel:
        if not (0 <= v < self.tree.num_vertices):
            raise KeyError(f"vertex {v} not in assignment")
        return _BY_CODE[self.codes[v]]

    def numeric_fields(self) -> np.ndarray:
        """Vector of field values for all vertices, in index order."""
        return _field_values(self.values)[self.codes]


def assign_fields(
    tree: FiniteTree,
    m: SchemeMatrix,
    root_label: FieldLabel,
    values: FieldPair,
    seed: Optional[int] = None,
) -> BoundaryAssignment:
    """Label the whole tree from the root downward following the scheme,
    one level at a time.

    Children of each vertex are labelled in canonical block order (same-sign
    H block, opposite-sign H, same-sign L, opposite-sign L); pass ``seed``
    to permute each vertex's child block instead, uniformly: the block is
    ordered by 64-bit keys drawn from ``random.Random(seed).randbytes``.
    Any permutation yields the same per-vertex child multiset, hence the
    same compatibility residuals.
    """
    if tree.k != m.k:
        raise ValueError(f"tree order {tree.k} does not match scheme order {m.k}")
    # row c holds the child codes of a parent with code c: the blocks of
    # +H and +L parents, then the same with the sign bit flipped
    blocks = [np.repeat([0, 2, 1, 3], row) for row in (m.a, m.b)]
    table = np.array(blocks, dtype=np.int8)
    table = np.concatenate([table, table ^ _NEGATIVE])
    rng = random.Random(seed) if seed is not None else None
    offsets = tree.level_offsets
    codes = np.empty(tree.num_vertices, dtype=np.int8)
    codes[0] = _CODE[root_label]
    for level in range(tree.depth):
        block = table[codes[offsets[level] : offsets[level + 1]]]
        if rng is not None:
            keys = np.frombuffer(rng.randbytes(8 * block.size), dtype="<u8")
            block = np.take_along_axis(block, keys.reshape(block.shape).argsort(axis=1), axis=1)
        codes[offsets[level + 1] : offsets[level + 2]] = block.ravel()
    return BoundaryAssignment(tree=tree, codes=codes, values=values, scheme=m)


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
    two-field system of the assignment's scheme.  ``f_theta`` is evaluated
    once per label code and gathered by code.
    """
    tree = assignment.tree
    if tree.depth < 1:
        raise ValueError("compatibility needs a tree of depth >= 1")
    n_internal = tree.level_offsets[tree.depth]
    f_vals = f_theta(theta, _field_values(assignment.values))[assignment.codes[1:]]
    child_sums = f_vals.reshape(n_internal, tree.k).sum(axis=1)
    residuals = np.abs(assignment.numeric_fields()[:n_internal] - child_sums)
    worst = int(np.argmax(residuals))
    max_residual = float(residuals[worst])
    return CompatibilityReport(
        max_residual=max_residual,
        worst_vertex=worst,
        passed=bool(max_residual < tol),
        tol=tol,
    )


# ---------------------------------------------------------------------------
# Line-oriented assignment exchange format (in ``_exchange``, loaded on use)
# ---------------------------------------------------------------------------


def export_assignment(assignment: BoundaryAssignment) -> str:
    """Serialize as a header line ``k=<k> n=<n> h=<h> l=<l>`` followed by
    one ``vertex<TAB>parent<TAB>label`` line per vertex, in vertex order,
    each ending in a newline (the root's parent is -1)."""
    from . import _exchange

    return _exchange.export_text(assignment)


def parse_assignment(text: str) -> BoundaryAssignment:
    """Inverse of :func:`export_assignment` (scheme reference not recovered).

    Accepts exactly the text that :func:`export_assignment` writes, with
    trailing whitespace allowed after the last line, and raises
    ``ValueError`` for anything else; a header whose tree exceeds the
    vertex cap raises :class:`CapacityError`.
    """
    from . import _exchange

    return _exchange.parse_text(text)
