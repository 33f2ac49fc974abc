"""Axis-aligned rectangles (MBR algebra).

Every spatial index in :mod:`repro.index` stores and compares minimum
bounding rectangles; the traditional area-query baseline filters with the
query polygon's MBR.  :class:`Rect` is the shared currency for all of that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.geometry.point import Point


@dataclass(frozen=True, slots=True)
class Rect:
    """A closed axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``.

    Degenerate rectangles (zero width and/or height) are allowed — a point's
    MBR is a degenerate rectangle — but inverted bounds are rejected.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                f"inverted rectangle bounds: ({self.min_x}, {self.min_y}, "
                f"{self.max_x}, {self.max_y})"
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_points(points: Iterable[Point]) -> "Rect":
        """The minimum bounding rectangle of a non-empty point collection."""
        iterator = iter(points)
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("MBR of an empty point collection is undefined")
        min_x = max_x = first.x
        min_y = max_y = first.y
        for p in iterator:
            if p.x < min_x:
                min_x = p.x
            elif p.x > max_x:
                max_x = p.x
            if p.y < min_y:
                min_y = p.y
            elif p.y > max_y:
                max_y = p.y
        return Rect(min_x, min_y, max_x, max_y)

    @staticmethod
    def from_bounds(bounds: Sequence[float]) -> "Rect":
        """Build from a ``(min_x, min_y, max_x, max_y)`` sequence."""
        if len(bounds) != 4:
            raise ValueError(f"expected 4 bounds, got {len(bounds)}")
        return Rect(*map(float, bounds))

    # -- basic measures ----------------------------------------------------

    @property
    def width(self) -> float:
        """Extent along x."""
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        """Extent along y."""
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        """Width times height (0.0 for degenerate rectangles)."""
        return self.width * self.height

    @property
    def perimeter(self) -> float:
        """Total boundary length, ``2 * (width + height)``."""
        return 2.0 * (self.width + self.height)

    @property
    def mbr(self) -> "Rect":
        """The rectangle itself — it is its own minimum bounding rectangle.

        Lets a :class:`Rect` stand in wherever only MBR-plus-containment
        region behaviour is needed (window specs in the batch engine's
        shared-frontier machinery, Hilbert anchor computation).
        """
        return self

    @property
    def center(self) -> Point:
        """The rectangle's midpoint."""
        return Point(
            (self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0
        )

    def corners(self) -> Iterator[Point]:
        """The four corners in counter-clockwise order."""
        yield Point(self.min_x, self.min_y)
        yield Point(self.max_x, self.min_y)
        yield Point(self.max_x, self.max_y)
        yield Point(self.min_x, self.max_y)

    # -- relations ---------------------------------------------------------

    def contains_point(self, p: Point) -> bool:
        """True if ``p`` lies inside or on the boundary."""
        return (
            self.min_x <= p.x <= self.max_x
            and self.min_y <= p.y <= self.max_y
        )

    def contains_many(self, xs, ys, *, boundary: bool = True):
        """Vectorized :meth:`contains_point` over coordinate arrays.

        Returns a boolean array of closed-bounds membership, bitwise
        identical to the scalar test per element.  ``boundary`` is
        accepted for kernel-signature uniformity with the other query
        regions; a rectangle's scalar test is always closed, so the flag
        is ignored.
        """
        from repro.geometry.kernels import rect_contains_many

        return rect_contains_many(self, xs, ys)

    def contains_rect(self, other: "Rect") -> bool:
        """True if ``other`` lies entirely inside (or equals) this rectangle."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def intersects(self, other: "Rect") -> bool:
        """True if the two closed rectangles share at least one point."""
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def distance_to_point(self, p: Point) -> float:
        """Euclidean distance from ``p`` to the closest point of the rectangle.

        Zero when the point is inside.  This is ``MINDIST`` in the R-tree
        nearest-neighbour literature and drives the best-first NN search.
        """
        dx = max(self.min_x - p.x, 0.0, p.x - self.max_x)
        dy = max(self.min_y - p.y, 0.0, p.y - self.max_y)
        return math.hypot(dx, dy)

    def squared_distance_to_point(self, p: Point) -> float:
        """Squared ``MINDIST`` (avoids the sqrt in priority queues)."""
        dx = max(self.min_x - p.x, 0.0, p.x - self.max_x)
        dy = max(self.min_y - p.y, 0.0, p.y - self.max_y)
        return dx * dx + dy * dy

    def expanded(self, amount: float) -> "Rect":
        """A copy grown by ``amount`` on every side (shrunk if negative)."""
        return Rect(
            self.min_x - amount,
            self.min_y - amount,
            self.max_x + amount,
            self.max_y + amount,
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)``."""
        return (self.min_x, self.min_y, self.max_x, self.max_y)
