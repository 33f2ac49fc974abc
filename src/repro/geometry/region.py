"""The query-region protocol.

Algorithm 1 and the traditional baseline never rely on the query area
being a polygon; they need exactly the operations listed in
:class:`QueryRegion`.  Any shape implementing them can be the region of
an :class:`~repro.query.spec.AreaQuery` —
:class:`~repro.geometry.polygon.Polygon` and
:class:`~repro.geometry.circle.Circle` both conform.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.geometry.segment import Segment


@runtime_checkable
class QueryRegion(Protocol):
    """A closed planar region usable as an area-query target.

    Required semantics:

    * the region is *closed* (its boundary belongs to it);
    * ``mbr`` is tight (the traditional filter depends on it);
    * ``crosses_boundary_xy`` must be exact for float inputs — Algorithm
      1's expansion rule rests on it.

    Regions may *optionally* provide array forms of the two predicates
    the query paths evaluate — ``contains_many(xs, ys, *,
    boundary=True)`` and ``crosses_boundary_many(sx, sy, ex, ey)`` —
    whose answers match the scalar tests exactly
    (:class:`~repro.geometry.polygon.Polygon` has both,
    :class:`~repro.geometry.circle.Circle` the first).
    :func:`repro.geometry.kernels.region_kernels` is the one place that
    looks for them; a region without them is served by its scalar tests
    mapped over the same arrays, so custom regions need only this
    protocol.
    """

    @property
    def area(self) -> float:
        """Enclosed area (must be positive for a valid query region)."""
        ...

    @property
    def mbr(self) -> Rect:
        """Tight minimum bounding rectangle."""
        ...

    @property
    def centroid(self) -> Point:
        """A representative position (used to seed Algorithm 1)."""
        ...

    def contains_point(self, p: Point, *, boundary: bool = True) -> bool:
        """Exact closed-region membership (the refinement test)."""
        ...

    def point_on_boundary(self, p: Point) -> bool:
        """True iff ``p`` lies exactly on the boundary."""
        ...

    def crosses_boundary_xy(
        self, sx: float, sy: float, ex: float, ey: float
    ) -> bool:
        """True iff segment ``(sx, sy) -> (ex, ey)`` meets the boundary."""
        ...

    def intersects_segment(self, segment: Segment) -> bool:
        """True iff the closed region and the closed segment share a point."""
        ...


def interior_seed_position(region: QueryRegion) -> Point:
    """A position strictly inside ``region`` (the paper's ``pA``).

    Works for any conforming region: the centroid when it is interior
    (always, for convex regions like circles), otherwise the region must
    provide richer structure — :class:`Polygon` instances fall back to the
    triangulation-based search in
    :func:`repro.core.voronoi_query.interior_position`.
    """
    centroid = region.centroid
    if region.contains_point(centroid) and not region.point_on_boundary(
        centroid
    ):
        return centroid
    from repro.core.voronoi_query import interior_position

    return interior_position(region)  # type: ignore[arg-type]
