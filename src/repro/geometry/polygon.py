"""Simple polygons: the query areas of the paper.

A :class:`Polygon` is a simple (non-self-intersecting) closed polygon given
by its vertex ring; it may be convex or concave, and the paper stresses that
the interesting case is the irregular/concave one.  The two operations the
area-query algorithms need are

* exact point containment (the *refinement* test both methods run on every
  candidate), and
* segment/polygon intersection (Algorithm 1's rule for expanding across the
  polygon's boundary).

Containment is implemented twice — crossing number and winding number — and
the test suite checks that the two always agree; the crossing-number version
is the one used in hot paths.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.predicates import (
    Orientation,
    orientation,
    orientation_sign,
    signed_area_sign,
)
from repro.geometry.rectangle import Rect
from repro.geometry.segment import (
    Segment,
    segments_intersect_xy,
)


class Polygon:
    """A simple closed polygon defined by at least three vertices.

    The vertex ring may be given in either rotational direction; it is
    normalised to counter-clockwise internally so that signed-area consumers
    can rely on the sign.  The ring must not repeat the first vertex at the
    end (the closing edge is implicit).
    """

    __slots__ = ("_vertices", "__dict__")

    def __init__(self, vertices: Sequence[Point] | Sequence[Tuple[float, float]]):
        ring: List[Point] = [
            v if isinstance(v, Point) else Point(float(v[0]), float(v[1]))
            for v in vertices
        ]
        if len(ring) >= 2 and ring[0] == ring[-1]:
            ring = ring[:-1]
        if len(ring) < 3:
            raise ValueError(
                f"a polygon needs at least 3 distinct vertices, got {len(ring)}"
            )
        # The *sign* decision must be robust: the float shoelace sum can
        # cancel to the wrong sign for thin rings at extreme coordinate
        # scales, which would reverse a correctly-CCW ring (and e.g. make
        # is_convex() reject a valid convex hull).
        if signed_area_sign(ring) < 0.0:
            ring.reverse()
        self._vertices: Tuple[Point, ...] = tuple(ring)

    # -- structure ---------------------------------------------------------

    @property
    def vertices(self) -> Tuple[Point, ...]:
        """The vertex ring in counter-clockwise order."""
        return self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[Point]:
        return iter(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        # Memoised: the vertex ring is immutable after __init__, and the
        # query layer hashes polygons constantly (spec-keyed caches and
        # batch dedup), so rehashing every Point each time would dominate
        # small batches.
        try:
            return self.__dict__["_hash_memo"]
        except KeyError:
            value = hash(self._vertices)
            self.__dict__["_hash_memo"] = value
            return value

    def __repr__(self) -> str:
        return f"Polygon({len(self._vertices)} vertices, area={self.area:.6g})"

    def edges(self) -> Iterator[Segment]:
        """The boundary edges, including the implicit closing edge."""
        ring = self._vertices
        for i, start in enumerate(ring):
            yield Segment(start, ring[(i + 1) % len(ring)])

    # -- measures ----------------------------------------------------------

    @cached_property
    def signed_area(self) -> float:
        """Shoelace signed area (float); the ring is normalised to CCW.

        Non-negative up to floating-point rounding: for thin polygons at
        extreme coordinate scales the float sum may come out as a tiny
        negative even though the ring is truly counter-clockwise (the
        normalisation decision itself uses the robust
        :func:`~repro.geometry.predicates.signed_area_sign`).
        """
        return _signed_area(self._vertices)

    @property
    def area(self) -> float:
        """Enclosed area."""
        return abs(self.signed_area)

    @cached_property
    def perimeter(self) -> float:
        """Total boundary length.

        The paper's analysis: redundant candidates of the Voronoi method are
        proportional to this, not to the MBR area.
        """
        return sum(edge.length for edge in self.edges())

    @cached_property
    def mbr(self) -> Rect:
        """Minimum bounding rectangle (the traditional method's filter)."""
        return Rect.from_points(self._vertices)

    @cached_property
    def _edge_coords(self) -> Tuple[Tuple[float, float, float, float], ...]:
        """Per-edge ``(ax, ay, bx, by)`` tuples for the raw-float hot loops."""
        ring = self._vertices
        n = len(ring)
        return tuple(
            (ring[i].x, ring[i].y, ring[(i + 1) % n].x, ring[(i + 1) % n].y)
            for i in range(n)
        )

    @cached_property
    def centroid(self) -> Point:
        """Area centroid of the polygon."""
        a = 0.0
        cx = 0.0
        cy = 0.0
        ring = self._vertices
        for i, p in enumerate(ring):
            q = ring[(i + 1) % len(ring)]
            cross = p.cross(q)
            a += cross
            cx += (p.x + q.x) * cross
            cy += (p.y + q.y) * cross
        if a == 0.0:  # degenerate (zero-area) ring: fall back to vertex mean
            n = len(ring)
            return Point(
                sum(p.x for p in ring) / n, sum(p.y for p in ring) / n
            )
        return Point(cx / (3.0 * a), cy / (3.0 * a))

    def is_convex(self) -> bool:
        """True if every interior angle is at most pi."""
        ring = self._vertices
        n = len(ring)
        saw_turn = False
        for i in range(n):
            turn = orientation(ring[i], ring[(i + 1) % n], ring[(i + 2) % n])
            if turn is Orientation.CLOCKWISE:
                return False
            if turn is Orientation.COUNTERCLOCKWISE:
                saw_turn = True
        return saw_turn

    def is_simple(self) -> bool:
        """True if no two non-adjacent edges intersect.

        Quadratic in the number of vertices; query polygons have ~10
        vertices, so this is cheap.  Adjacent edges sharing their common
        vertex do not count as intersections.
        """
        edges = list(self.edges())
        n = len(edges)
        for i in range(n):
            for j in range(i + 1, n):
                adjacent = j == i + 1 or (i == 0 and j == n - 1)
                if adjacent:
                    # Adjacent edges legitimately share one vertex; they must
                    # not touch anywhere else.
                    shared = edges[i].end if j == i + 1 else edges[i].start
                    endpoints = (
                        edges[i].start,
                        edges[i].end,
                        edges[j].start,
                        edges[j].end,
                    )
                    segments = (edges[j], edges[j], edges[i], edges[i])
                    for p, seg in zip(endpoints, segments):
                        if p != shared and seg.contains_point(p):
                            return False
                elif edges[i].intersects(edges[j]):
                    return False
        return True

    # -- containment -------------------------------------------------------

    def contains_point(self, p: Point, *, boundary: bool = True) -> bool:
        """Exact point-in-polygon test (crossing number).

        ``boundary=True`` (the default) counts points exactly on the
        boundary as contained, matching the closed-area semantics of the
        paper's ``Contains(A, p)``.

        The implementation is the even–odd crossing-number walk with the
        standard half-open edge rule (``min_y <= p.y < max_y``), which makes
        vertex crossings count exactly once; boundary points are detected
        explicitly first so the half-open rule never misclassifies them.
        """
        px, py = p.x, p.y
        box = self.mbr
        if not (
            box.min_x <= px <= box.max_x and box.min_y <= py <= box.max_y
        ):
            return False
        return self._contains_xy(px, py, boundary)

    def _contains_xy(self, px: float, py: float, boundary: bool) -> bool:
        """Crossing-number walk on raw floats (assumes ``p`` is in the MBR).

        Per edge there are two disjoint cases needing exact work:

        * the edge *straddles* the horizontal ray through ``p`` — the
          robust sign decides the crossing side, and a zero sign means ``p``
          lies on the (closed) edge;
        * the edge lies entirely at or below ``p``'s level — ``p`` can only
          touch it when its level equals the edge's upper end (a vertex
          touch or a horizontal edge), checked explicitly.

        Edges entirely above ``p`` can neither cross the ray nor contain
        ``p``, so the common case costs two float comparisons.
        """
        inside = False
        for ax, ay, bx, by in self._edge_coords:
            a_above = ay > py
            if a_above != (by > py):
                # Straddling edge: the robustly-signed area decides the
                # crossing side; zero means p is on the closed edge.
                cross = orientation_sign(ax, ay, bx, by, px, py)
                if cross == 0.0:
                    return boundary
                if by > ay:
                    if cross > 0.0:
                        inside = not inside
                elif cross < 0.0:
                    inside = not inside
            elif not a_above:
                # Both endpoints at or below p's level: p can only lie on
                # this edge if it touches the upper endpoint's level.
                if (
                    (py == ay or py == by)
                    and (ax <= px <= bx or bx <= px <= ax)
                    and orientation_sign(ax, ay, bx, by, px, py) == 0.0
                ):
                    return boundary
        return inside

    def contains_many(self, xs, ys, *, boundary: bool = True):
        """Vectorized :meth:`contains_point` over coordinate arrays.

        ``xs``/``ys`` are equally-long float64 arrays (typically gathered
        from the :class:`~repro.core.store.PointStore` columns by row
        id); returns a boolean array whose element ``i`` equals
        ``contains_point(Point(xs[i], ys[i]), boundary=boundary)``
        **exactly** — candidates whose edge decisions the vectorized
        error filter cannot certify are re-answered by the scalar test
        (see :func:`repro.geometry.kernels.polygon_contains_many`).
        """
        from repro.geometry.kernels import polygon_contains_many

        return polygon_contains_many(self, xs, ys, boundary=boundary)

    def winding_number(self, p: Point) -> int:
        """Winding number of the boundary around ``p``.

        Non-zero means inside for simple polygons.  Used as an independent
        oracle against :meth:`contains_point` in the test suite; points on
        the boundary yield an implementation-defined non-zero value.
        """
        ring = self._vertices
        n = len(ring)
        winding = 0
        for i in range(n):
            a = ring[i]
            b = ring[(i + 1) % n]
            if a.y <= p.y:
                if b.y > p.y and orientation(a, b, p) is Orientation.COUNTERCLOCKWISE:
                    winding += 1
            else:
                if b.y <= p.y and orientation(a, b, p) is Orientation.CLOCKWISE:
                    winding -= 1
        return winding

    def contains_point_winding(self, p: Point) -> bool:
        """Containment via winding number (boundary counts as inside)."""
        if not self.mbr.contains_point(p):
            return False
        if self.point_on_boundary(p):
            return True
        return self.winding_number(p) != 0

    def point_on_boundary(self, p: Point) -> bool:
        """True if ``p`` lies exactly on one of the boundary edges."""
        if not self.mbr.contains_point(p):
            return False
        return any(edge.contains_point(p) for edge in self.edges())

    # -- boundary interaction ---------------------------------------------

    def intersects_segment(self, segment: Segment) -> bool:
        """True if ``segment`` touches the closed polygonal region at all.

        This is the paper's ``Intersects(line(p, pn), A)``: true when the
        segment crosses or touches the boundary *or* lies entirely inside.
        This sits on Algorithm 1's innermost loop, hence the raw-float form.
        """
        if self.crosses_boundary_xy(
            segment.start.x, segment.start.y, segment.end.x, segment.end.y
        ):
            return True
        # No boundary crossing: the segment is wholly inside or wholly
        # outside; either endpoint decides.
        return self.contains_point(segment.start)

    def crosses_boundary_xy(
        self, sx: float, sy: float, ex: float, ey: float
    ) -> bool:
        """Raw-float boundary-crossing test.

        For a segment whose start point is known to lie *outside* the closed
        polygon, this is equivalent to :meth:`intersects_segment` (a segment
        from outside can only meet the region by crossing its boundary) and
        skips the interior-containment fallback — Algorithm 1 calls this on
        its innermost loop when expanding from external points.
        """
        lo_x, hi_x = (sx, ex) if sx <= ex else (ex, sx)
        lo_y, hi_y = (sy, ey) if sy <= ey else (ey, sy)
        box = self.mbr
        if (
            hi_x < box.min_x
            or lo_x > box.max_x
            or hi_y < box.min_y
            or lo_y > box.max_y
        ):
            return False
        for ax, ay, bx, by in self._edge_coords:
            if ax <= bx:
                if bx < lo_x or ax > hi_x:
                    continue
            elif ax < lo_x or bx > hi_x:
                continue
            if ay <= by:
                if by < lo_y or ay > hi_y:
                    continue
            elif ay < lo_y or by > hi_y:
                continue
            if segments_intersect_xy(ax, ay, bx, by, sx, sy, ex, ey):
                return True
        return False

    def crosses_boundary_many(self, sx, sy, ex, ey):
        """Vectorized :meth:`crosses_boundary_xy` over segment columns.

        Four equally-long float64 arrays (start and end coordinates);
        returns a boolean array whose element ``i`` equals
        ``crosses_boundary_xy(sx[i], sy[i], ex[i], ey[i])`` **exactly**
        (see :func:`repro.geometry.kernels.crosses_boundary_many`).
        Algorithm 1's array-native expansion tests a whole wave of
        (outside point, neighbour) segments with one call.
        """
        from repro.geometry.kernels import crosses_boundary_many

        return crosses_boundary_many(self, sx, sy, ex, ey)

    # -- triangulation -----------------------------------------------------

    def triangulate(self):
        """Ear-clipping triangulation: a list of CCW ``(a, b, c)`` triples
        covering the polygon exactly.  See
        :func:`repro.geometry.triangulate.triangulate_polygon`."""
        from repro.geometry.triangulate import triangulate_polygon

        return triangulate_polygon(self._vertices)

    def sample_interior(self, count: int, rng=None) -> List[Point]:
        """``count`` uniform random points inside the polygon."""
        from repro.geometry.triangulate import sample_interior

        return sample_interior(self._vertices, count, rng)

    def interior_point(self) -> Point:
        """A point strictly inside the polygon (largest-triangle centroid).

        Works for any simple polygon with positive area, including shapes
        whose centroid lies outside (strong concavity).
        """
        from repro.geometry.triangulate import (
            triangle_area,
            triangle_interior_point,
            triangulate_polygon,
        )

        triangles = triangulate_polygon(self._vertices)
        if not triangles:
            raise ValueError("polygon has no positive-area triangulation")
        largest = max(triangles, key=triangle_area)
        if triangle_area(largest) <= 0.0:
            raise ValueError("polygon is degenerate (zero area)")
        return triangle_interior_point(largest)

    # -- transforms --------------------------------------------------------

    def translated(self, dx: float, dy: float) -> "Polygon":
        """A copy shifted by ``(dx, dy)``."""
        offset = Point(dx, dy)
        return Polygon([v + offset for v in self._vertices])

    def scaled(self, factor: float, about: Point | None = None) -> "Polygon":
        """A copy scaled by ``factor`` about ``about`` (default: centroid)."""
        if factor <= 0.0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        center = about if about is not None else self.centroid
        return Polygon(
            [center + (v - center) * factor for v in self._vertices]
        )

    @staticmethod
    def regular(n: int, center: Point, radius: float, phase: float = 0.0) -> "Polygon":
        """A regular ``n``-gon, handy for tests and examples."""
        import math

        if n < 3:
            raise ValueError(f"a regular polygon needs n >= 3, got {n}")
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        return Polygon(
            [
                Point(
                    center.x + radius * math.cos(phase + 2.0 * math.pi * i / n),
                    center.y + radius * math.sin(phase + 2.0 * math.pi * i / n),
                )
                for i in range(n)
            ]
        )

    @staticmethod
    def from_rect(rect: Rect) -> "Polygon":
        """The rectangle as a 4-gon (the 'query area is a rectangle' case)."""
        return Polygon(list(rect.corners()))


def _signed_area(ring: Sequence[Point]) -> float:
    """Shoelace formula over an open vertex ring."""
    total = 0.0
    n = len(ring)
    for i, p in enumerate(ring):
        q = ring[(i + 1) % n]
        total += p.cross(q)
    return total / 2.0


def convex_hull(points: Iterable[Point]) -> List[Point]:
    """Andrew's monotone-chain convex hull, CCW, no duplicate endpoint.

    Collinear points on hull edges are dropped.  Used by the random polygon
    generator and by tests as an oracle.
    """
    unique = sorted(set(points), key=lambda p: (p.x, p.y))
    if len(unique) <= 2:
        return unique

    def half_hull(source: Sequence[Point]) -> List[Point]:
        hull: List[Point] = []
        for p in source:
            while (
                len(hull) >= 2
                and orientation(hull[-2], hull[-1], p)
                is not Orientation.COUNTERCLOCKWISE
            ):
                hull.pop()
            hull.append(p)
        return hull

    lower = half_hull(unique)
    upper = half_hull(list(reversed(unique)))
    return lower[:-1] + upper[:-1]
