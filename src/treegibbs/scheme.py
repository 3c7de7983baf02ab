"""Scheme matrices: the integer data defining a four-valued boundary field.

A scheme matrix prescribes, for a vertex carrying field value +h (row ``a``)
or +l (row ``b``), how many of its k children carry each of the four values
+h, -h, +l, -l.  Vertices carrying -h / -l use the sign-flipped recipe.
The reduction (a, b, c, d) = (a1-a2, a3-a4, b1-b2, b3-b4) is what the
two-field fixed-point system actually depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, TYPE_CHECKING

from .kernels import _check_theta

if TYPE_CHECKING:  # pragma: no cover
    from .solver import FieldPair

# Tolerance for the side conditions l = 0 / l = h used when matching a
# solved field pair against a family pattern.
FIELD_TOL = 1e-9


@dataclass(frozen=True)
class SchemeMatrix:
    """Child-count matrix: rows ``a`` (children of an h-vertex) and ``b``
    (children of an l-vertex), each a 4-tuple summing to k."""

    k: int
    a: tuple[int, int, int, int]
    b: tuple[int, int, int, int]

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        for name, row in (("a", self.a), ("b", self.b)):
            if len(row) != 4 or any(not isinstance(v, int) or v < 0 for v in row):
                raise ValueError(f"row {name} must be four non-negative integers")
            if sum(row) != self.k:
                raise ValueError(f"row {name} must sum to k={self.k}, got {row}")
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))


@dataclass(frozen=True)
class ReducedParams:
    """Signed child-count differences (a, b, c, d) for tree order k."""

    a: int
    b: int
    c: int
    d: int
    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        for v in (self.a, self.b, self.c, self.d):
            if not isinstance(v, int) or abs(v) > self.k:
                raise ValueError(f"reduced parameter {v!r} outside [-k, k]")
        if abs(self.a) + abs(self.b) > self.k or abs(self.c) + abs(self.d) > self.k:
            raise ValueError("reduced parameters violate |a|+|b| <= k, |c|+|d| <= k")
        if (self.a + self.b - self.k) % 2 or (self.c + self.d - self.k) % 2:
            raise ValueError("reduced parameters violate the parity constraint")

    @property
    def abcd(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def negated(self) -> "ReducedParams":
        return ReducedParams(-self.a, -self.b, -self.c, -self.d, self.k)


def reduce(m: SchemeMatrix) -> ReducedParams:
    """Reduction (a1-a2, a3-a4, b1-b2, b3-b4) of a scheme matrix."""
    a1, a2, a3, a4 = m.a
    b1, b2, b3, b4 = m.b
    return ReducedParams(a1 - a2, a3 - a4, b1 - b2, b3 - b4, m.k)


def _compositions4(k: int) -> Iterator[tuple[int, int, int, int]]:
    # Lexicographically ascending 4-part compositions of k.
    for c1 in range(k + 1):
        for c2 in range(k + 1 - c1):
            for c3 in range(k + 1 - c1 - c2):
                yield (c1, c2, c3, k - c1 - c2 - c3)


def enumerate_schemes(k: int) -> Iterator[SchemeMatrix]:
    """All C(k+3,3)^2 scheme matrices, lexicographic in (a1..a4, b1..b4)."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    for a in _compositions4(k):
        for b in _compositions4(k):
            yield SchemeMatrix(k=k, a=a, b=b)


def realizable_reduced(k: int) -> set[ReducedParams]:
    """Every reduction realized by some scheme matrix of order k.

    Equals the image of :func:`reduce` over :func:`enumerate_schemes`;
    computed row-wise since the two rows reduce independently.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    row_pairs = {(c1 - c2, c3 - c4) for (c1, c2, c3, c4) in _compositions4(k)}
    return {
        ReducedParams(a, b, c, d, k)
        for (a, b) in row_pairs
        for (c, d) in row_pairs
    }


def criterion_value(r: ReducedParams, theta: float) -> float:
    """Slope (bc - ad) theta^2 + (a + d) theta of the reduced scalar
    iteration at the origin.

    A signed value > 1 guarantees at least three solutions of the two-field
    system (the origin repels along a one-dimensional reduction and the
    iteration map is bounded, so a positive fixed point exists by the
    intermediate value theorem, plus its mirror image).
    """
    return (r.b * r.c - r.a * r.d) * theta * theta + (r.a + r.d) * theta


def nonuniqueness_criterion(r: ReducedParams, theta: float) -> bool:
    """True when |(bc - ad) theta^2 + (a + d) theta| > 1 (strict; exactly 1
    reports False).

    Note the asymmetry: values > 1 are a proven sufficient condition for
    multiple solutions, while values < -1 are not -- see
    :func:`criterion_value` and the solver test-suite counterexamples.
    """
    return abs(criterion_value(r, _check_theta(theta))) > 1.0


class Family(Enum):
    TRANSLATION_INVARIANT = "TranslationInvariant"
    ART_TRANSLATION_INVARIANT = "ArtTranslationInvariant"
    INTERFACE_BG = "InterfaceBG"
    TWO_PERIODIC = "TwoPeriodic"
    WEAKLY_PERIODIC_I2 = "WeaklyPeriodicI2"
    WEAKLY_PERIODIC_I3 = "WeaklyPeriodicI3"
    NEW_GENERIC = "NewGeneric"


@dataclass(frozen=True)
class MeasureFamily:
    """Family tag plus the extra integer some families carry (k0 for the
    ART pattern, |A| for the weakly periodic ones)."""

    tag: Family
    param: Optional[int] = None

    def __post_init__(self):
        with_param = (
            Family.ART_TRANSLATION_INVARIANT,
            Family.WEAKLY_PERIODIC_I2,
            Family.WEAKLY_PERIODIC_I3,
        )
        if (self.param is not None) != (self.tag in with_param):
            raise ValueError(f"param presence inconsistent for tag {self.tag}")


def classify(m: SchemeMatrix, fields: "FieldPair") -> MeasureFamily:
    """Match a scheme (with a candidate field pair) against the known
    measure families, first pattern in priority order wins.

    Priority: translation-invariant, ART, interface, two-periodic, weakly
    periodic on the h1=h4 / h1=-h4 invariant sets, then the generic label.
    Integer conditions are exact; the side conditions l = 0 and l = h are
    checked within ``FIELD_TOL``.
    """
    k = m.k
    a1, a2, a3, a4 = m.a
    b1, b2, b3, b4 = m.b
    h, l = float(fields.h), float(fields.l)

    if a1 == k:
        return MeasureFamily(Family.TRANSLATION_INVARIANT)
    # k0 = a1 must be at least 1: the pattern embeds a translation-invariant
    # field of a smaller tree order, and a1 = 0 degenerates to h = 0.
    if a1 >= 1 and a2 == 0 and b1 == 0 and b2 == 0 and abs(l) <= FIELD_TOL:
        return MeasureFamily(Family.ART_TRANSLATION_INVARIANT, param=a1)
    if m.b == m.a and a3 == a2 + a4 and abs(l - h) <= FIELD_TOL:
        return MeasureFamily(Family.INTERFACE_BG)
    if a1 == 0 and a2 == k:
        return MeasureFamily(Family.TWO_PERIODIC)
    # Weakly periodic patterns, |A| in 1..k.
    if a2 == 0 and a4 == 0 and 1 <= a3 <= k and a1 == k - a3:
        size = a3
        if (b1, b2, b3, b4) == (k + 1 - size, 0, size - 1, 0):
            return MeasureFamily(Family.WEAKLY_PERIODIC_I2, param=size)
    if a2 == 0 and a3 == 0 and 1 <= a4 <= k and a1 == k - a4:
        size = a4
        if (b1, b2, b3, b4) == (k + 1 - size, 0, 0, size - 1):
            return MeasureFamily(Family.WEAKLY_PERIODIC_I3, param=size)
    return MeasureFamily(Family.NEW_GENERIC)
