"""Axis-aligned rectangles (minimum bounding rectangles).

:class:`Rect` is the single geometric primitive of the library: data
objects, tree-node bounding boxes, seed-node guidance boxes, and shadow
boxes are all ``Rect`` instances. Rectangles are *closed*: two rectangles
that merely touch along an edge are considered overlapping, matching the
usual R-tree convention.

Degenerate rectangles (zero width and/or height) are legal and important —
copy strategy :data:`~repro.seeded.policies.CopyStrategy.CENTER` stores a
seed bounding box as the degenerate rectangle at the center point of the
original box (Section 2.1 of the paper).

The class is deliberately small and immutable-by-convention; hot loops in
the R-tree and plane sweep read the coordinate slots directly.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import GeometryError


class Rect:
    """A closed, axis-aligned rectangle ``[xlo, xhi] x [ylo, yhi]``.

    Coordinates are floats; ``xlo <= xhi`` and ``ylo <= yhi`` are enforced
    at construction time, which also refuses a NaN coordinate (every
    comparison with NaN is false).
    """

    __slots__ = ("xlo", "ylo", "xhi", "yhi")

    def __init__(self, xlo: float, ylo: float, xhi: float, yhi: float) -> None:
        if not (xlo <= xhi and ylo <= yhi):
            raise GeometryError(
                f"malformed rectangle: ({xlo}, {ylo}, {xhi}, {yhi})"
            )
        self.xlo = xlo
        self.ylo = ylo
        self.xhi = xhi
        self.yhi = yhi

    # ----------------------------------------------------------------- #
    # Constructors
    # ----------------------------------------------------------------- #

    @classmethod
    def from_center(cls, cx: float, cy: float, width: float, height: float) -> "Rect":
        """Rectangle of the given extent centered at ``(cx, cy)``."""
        if width < 0 or height < 0:
            raise GeometryError("width and height must be non-negative")
        hw, hh = width / 2.0, height / 2.0
        return cls(cx - hw, cy - hh, cx + hw, cy + hh)

    @classmethod
    def point(cls, x: float, y: float) -> "Rect":
        """Degenerate rectangle covering the single point ``(x, y)``."""
        return cls(x, y, x, y)

    # ----------------------------------------------------------------- #
    # Basic measures
    # ----------------------------------------------------------------- #

    @property
    def width(self) -> float:
        return self.xhi - self.xlo

    @property
    def height(self) -> float:
        return self.yhi - self.ylo

    def area(self) -> float:
        """Area of the rectangle (zero for degenerate rectangles)."""
        return (self.xhi - self.xlo) * (self.yhi - self.ylo)

    def margin(self) -> float:
        """Half-perimeter; used by some split heuristics."""
        return (self.xhi - self.xlo) + (self.yhi - self.ylo)

    def center(self) -> tuple[float, float]:
        return ((self.xlo + self.xhi) / 2.0, (self.ylo + self.yhi) / 2.0)

    def center_rect(self) -> "Rect":
        """The degenerate rectangle at this rectangle's center point.

        This is the transformation applied by copy strategies C2 and C3
        when seeding a tree.
        """
        cx, cy = self.center()
        return Rect(cx, cy, cx, cy)

    def is_point(self) -> bool:
        return self.xlo == self.xhi and self.ylo == self.yhi

    # ----------------------------------------------------------------- #
    # Predicates
    # ----------------------------------------------------------------- #

    def intersects(self, other: "Rect") -> bool:
        """True when the closed rectangles share at least one point."""
        return (
            self.xlo <= other.xhi
            and other.xlo <= self.xhi
            and self.ylo <= other.yhi
            and other.ylo <= self.yhi
        )

    def contains(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        return (
            self.xlo <= other.xlo
            and self.ylo <= other.ylo
            and other.xhi <= self.xhi
            and other.yhi <= self.yhi
        )

    def contains_point(self, x: float, y: float) -> bool:
        return self.xlo <= x <= self.xhi and self.ylo <= y <= self.yhi

    # ----------------------------------------------------------------- #
    # Combinations
    # ----------------------------------------------------------------- #

    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle enclosing both operands."""
        return Rect(
            self.xlo if self.xlo <= other.xlo else other.xlo,
            self.ylo if self.ylo <= other.ylo else other.ylo,
            self.xhi if self.xhi >= other.xhi else other.xhi,
            self.yhi if self.yhi >= other.yhi else other.yhi,
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """Overlap region of the two rectangles, or ``None`` if disjoint."""
        xlo = self.xlo if self.xlo >= other.xlo else other.xlo
        ylo = self.ylo if self.ylo >= other.ylo else other.ylo
        xhi = self.xhi if self.xhi <= other.xhi else other.xhi
        yhi = self.yhi if self.yhi <= other.yhi else other.yhi
        if xlo > xhi or ylo > yhi:
            return None
        return Rect(xlo, ylo, xhi, yhi)

    def enlargement(self, other: "Rect") -> float:
        """Area growth if this rectangle were expanded to include ``other``.

        This is Guttman's insertion criterion: the child whose bounding box
        needs the least enlargement receives the new entry.
        """
        xlo = self.xlo if self.xlo <= other.xlo else other.xlo
        ylo = self.ylo if self.ylo <= other.ylo else other.ylo
        xhi = self.xhi if self.xhi >= other.xhi else other.xhi
        yhi = self.yhi if self.yhi >= other.yhi else other.yhi
        return (xhi - xlo) * (yhi - ylo) - (self.xhi - self.xlo) * (
            self.yhi - self.ylo
        )

    def center_distance_sq(self, other: "Rect") -> float:
        """Squared distance between the two rectangles' center points.

        Used by the seeded tree's growing phase when seed nodes store
        center points instead of areas (Section 2.2: "we choose a child
        whose central point is close to the central point of the data
        being inserted").
        """
        dx = (self.xlo + self.xhi) - (other.xlo + other.xhi)
        dy = (self.ylo + self.yhi) - (other.ylo + other.yhi)
        return (dx * dx + dy * dy) / 4.0

    def clipped_to(self, window: "Rect") -> "Rect | None":
        """This rectangle clipped to ``window`` (the paper's map area).

        Returns ``None`` when the rectangle lies entirely outside the
        window.
        """
        return self.intersection(window)

    # ----------------------------------------------------------------- #
    # Dunder plumbing
    # ----------------------------------------------------------------- #

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.xlo, self.ylo, self.xhi, self.yhi)

    def __iter__(self) -> Iterator[float]:
        return iter((self.xlo, self.ylo, self.xhi, self.yhi))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return (
            self.xlo == other.xlo
            and self.ylo == other.ylo
            and self.xhi == other.xhi
            and self.yhi == other.yhi
        )

    def __hash__(self) -> int:
        return hash((self.xlo, self.ylo, self.xhi, self.yhi))

    def __repr__(self) -> str:
        return f"Rect({self.xlo!r}, {self.ylo!r}, {self.xhi!r}, {self.yhi!r})"


def union_all(rects: Iterable[Rect]) -> Rect:
    """Smallest rectangle enclosing every rectangle in ``rects``.

    Raises :class:`~repro.errors.GeometryError` for an empty iterable —
    an empty union has no meaningful MBR and callers (e.g. the seeded
    tree's clean-up phase) are expected to have removed empty nodes first.
    """
    it = iter(rects)
    try:
        first = next(it)
    except StopIteration:
        raise GeometryError("union_all() of an empty collection") from None
    xlo, ylo, xhi, yhi = first.xlo, first.ylo, first.xhi, first.yhi
    for r in it:
        if r.xlo < xlo:
            xlo = r.xlo
        if r.ylo < ylo:
            ylo = r.ylo
        if r.xhi > xhi:
            xhi = r.xhi
        if r.yhi > yhi:
            yhi = r.yhi
    return Rect(xlo, ylo, xhi, yhi)
