"""Line segments and intersection tests.

Algorithm 1's expansion rule for external points is "enqueue the neighbour
``pn`` iff the segment ``p -> pn`` intersects the query area"; the polygon
containment and boundary tests in :mod:`repro.geometry.polygon` are built on
the segment/segment intersection implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.point import Point
from repro.geometry.predicates import Orientation, orientation, orientation_sign


@dataclass(frozen=True, slots=True)
class Segment:
    """A closed line segment between two endpoints."""

    start: Point
    end: Point

    @property
    def length(self) -> float:
        """Euclidean length of the segment."""
        return self.start.distance_to(self.end)

    @property
    def midpoint(self) -> Point:
        """The point halfway along the segment."""
        return self.start.midpoint(self.end)

    def reversed(self) -> "Segment":
        """The same segment travelled in the opposite direction."""
        return Segment(self.end, self.start)

    def contains_point(self, p: Point) -> bool:
        """True if ``p`` lies on the (closed) segment.

        Uses the robust orientation predicate for the collinearity part, so
        points exactly on the supporting line are classified correctly.
        """
        if orientation(self.start, self.end, p) is not Orientation.COLLINEAR:
            return False
        return _within_bounds(self.start, self.end, p)

    def intersects(self, other: "Segment") -> bool:
        """True if the two closed segments share at least one point.

        Handles all degenerate configurations: shared endpoints, collinear
        overlap, and a segment endpoint lying in the interior of the other
        segment all count as intersections (the paper's boundary-expansion
        rule needs the closed-set semantics).
        """
        return segments_intersect(self.start, self.end, other.start, other.end)

    def distance_to_point(self, p: Point) -> float:
        """Euclidean distance from ``p`` to the closest point of the segment."""
        return p.distance_to(self.closest_point_to(p))

    def closest_point_to(self, p: Point) -> Point:
        """The point of the segment closest to ``p``."""
        direction = self.end - self.start
        denom = direction.squared_norm()
        if denom == 0.0:  # degenerate segment
            return self.start
        t = (p - self.start).dot(direction) / denom
        t = min(1.0, max(0.0, t))
        return self.start + direction * t


def _within_bounds(a: Point, b: Point, p: Point) -> bool:
    """True if ``p`` is inside the axis-aligned box spanned by ``a``/``b``."""
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True if closed segments ``ab`` and ``cd`` share at least one point.

    The classic four-orientation test with collinear special cases, built on
    the robust predicates so the answer is exact for float inputs.
    """
    return segments_intersect_xy(
        a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y
    )


def segments_intersect_xy(
    ax: float,
    ay: float,
    bx: float,
    by: float,
    cx: float,
    cy: float,
    dx: float,
    dy: float,
) -> bool:
    """Raw-coordinate segment intersection (hot-loop form).

    Same exactness guarantee as :func:`segments_intersect`; avoids
    :class:`Point` wrapping and exits early when the first orientation pair
    already separates the segments.
    """
    o1 = orientation_sign(ax, ay, bx, by, cx, cy)
    o2 = orientation_sign(ax, ay, bx, by, dx, dy)
    if (o1 > 0.0 and o2 > 0.0) or (o1 < 0.0 and o2 < 0.0):
        return False  # c and d strictly on the same side of ab
    o3 = orientation_sign(cx, cy, dx, dy, ax, ay)
    o4 = orientation_sign(cx, cy, dx, dy, bx, by)
    if (o3 > 0.0 and o4 > 0.0) or (o3 < 0.0 and o4 < 0.0):
        return False
    if o1 != 0.0 and o2 != 0.0 and o3 != 0.0 and o4 != 0.0:
        return True  # both pairs strictly straddle: proper crossing

    # Collinear / endpoint-touching cases.
    if (
        o1 == 0.0
        and min(ax, bx) <= cx <= max(ax, bx)
        and min(ay, by) <= cy <= max(ay, by)
    ):
        return True
    if (
        o2 == 0.0
        and min(ax, bx) <= dx <= max(ax, bx)
        and min(ay, by) <= dy <= max(ay, by)
    ):
        return True
    if (
        o3 == 0.0
        and min(cx, dx) <= ax <= max(cx, dx)
        and min(cy, dy) <= ay <= max(cy, dy)
    ):
        return True
    if (
        o4 == 0.0
        and min(cx, dx) <= bx <= max(cx, dx)
        and min(cy, dy) <= by <= max(cy, dy)
    ):
        return True
    return False
