"""Voronoi diagram as the dual of the Delaunay triangulation.

The query algorithm itself only needs the neighbour graph (see
:mod:`repro.delaunay.backends`), but a credible Voronoi library must also
materialise the diagram: cells, vertices, and the properties the paper
builds on (Section II).  This module constructs finite, box-clipped Voronoi
cells from the triangulation:

* each Voronoi *vertex* is the circumcentre of a Delaunay triangle
  (Property 4);
* the cell of an interior generator is the CCW polygon of the circumcentres
  of its incident triangles;
* cells of hull generators are unbounded and are clipped to a caller-chosen
  bounding box by half-plane intersection — every bisector of the generator
  against a neighbour contributes a half-plane, which is also the defining
  intersection-of-half-planes characterisation of the cell (equation (1) of
  the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.delaunay.triangulation import DelaunayTriangulation


@dataclass(frozen=True)
class VoronoiCell:
    """One Voronoi cell: its generator and its (clipped) boundary polygon.

    ``polygon`` is ``None`` for degenerate configurations where the cell has
    empty interior within the clip box (possible for duplicate generators or
    a clip box that excludes the cell entirely).
    """

    generator_index: int
    generator: Point
    polygon: Optional[Polygon]
    is_unbounded: bool

    @property
    def area(self) -> float:
        """Clipped cell area (0.0 for degenerate cells)."""
        return self.polygon.area if self.polygon is not None else 0.0

    def contains(self, p: Point) -> bool:
        """True if ``p`` lies in the (clipped) cell."""
        return self.polygon is not None and self.polygon.contains_point(p)


class VoronoiDiagram:
    """The Voronoi diagram of a point set, clipped to a bounding box.

    Parameters
    ----------
    points:
        The generators.
    clip:
        Bounding box to which unbounded cells are clipped.  Defaults to the
        generators' MBR expanded by 20 % of its larger side.
    triangulation:
        An existing :class:`DelaunayTriangulation` to reuse; one is built
        when omitted.
    """

    def __init__(
        self,
        points: Sequence[Point],
        clip: Optional[Rect] = None,
        triangulation: Optional[DelaunayTriangulation] = None,
    ) -> None:
        self.points: List[Point] = list(points)
        if not self.points:
            raise ValueError("Voronoi diagram needs at least one generator")
        self.triangulation = (
            triangulation
            if triangulation is not None
            else DelaunayTriangulation(self.points)
        )
        if clip is None:
            mbr = Rect.from_points(self.points)
            margin = 0.2 * max(mbr.width, mbr.height, 1.0)
            clip = mbr.expanded(margin)
        self.clip = clip
        self._cells: Dict[int, VoronoiCell] = {}

    # -- neighbour graph (the paper's VN) ------------------------------------

    def neighbors(self, index: int) -> Tuple[int, ...]:
        """Voronoi neighbours of generator ``index`` (Property 4 dual)."""
        return self.triangulation.neighbors(index)

    def nearest_generator(self, q: Point) -> int:
        """Index of the generator whose cell contains ``q`` (Property 3).

        Implemented by neighbour-descent: start anywhere and repeatedly move
        to any neighbour closer to ``q``; Property 2 guarantees a local
        minimum is the global nearest generator.
        """
        current = 0
        current = self.triangulation.alias_of[current]
        current_distance = self.points[current].squared_distance_to(q)
        improved = True
        while improved:
            improved = False
            for neighbor in self.neighbors(current):
                d = self.points[neighbor].squared_distance_to(q)
                if d < current_distance:
                    current, current_distance = neighbor, d
                    improved = True
                    break
        return current

    # -- cells ---------------------------------------------------------------

    def cell(self, index: int) -> VoronoiCell:
        """The (lazily computed, cached) cell of generator ``index``."""
        canonical = self.triangulation.alias_of[index]
        if canonical not in self._cells:
            self._cells[canonical] = self._build_cell(canonical)
        cached = self._cells[canonical]
        if index != canonical:
            # A duplicate generator shares the canonical cell geometry.
            return VoronoiCell(
                generator_index=index,
                generator=self.points[index],
                polygon=cached.polygon,
                is_unbounded=cached.is_unbounded,
            )
        return cached

    def cells(self) -> List[VoronoiCell]:
        """All cells, one per input generator (duplicates share geometry)."""
        return [self.cell(i) for i in range(len(self.points))]

    def _build_cell(self, index: int) -> VoronoiCell:
        """Half-plane intersection of bisectors against all neighbours.

        Clipping the *box* polygon successively against each neighbour's
        bisector realises equation (1) of the paper restricted to the
        neighbour set, which is sufficient: non-neighbour bisectors are
        redundant constraints.
        """
        generator = self.points[index]
        region: List[Point] = list(self.clip.corners())
        unbounded = False
        for neighbor_index in self.neighbors(index):
            neighbor = self.points[neighbor_index]
            if neighbor == generator:
                continue  # duplicate alias: bisector undefined
            region = _clip_by_bisector(region, generator, neighbor)
            if len(region) < 3:
                break
        if len(region) < 3:
            return VoronoiCell(index, generator, None, is_unbounded=False)
        polygon = Polygon(region)
        # The cell is unbounded iff the generator is on the hull, which
        # manifests as the clipped cell touching the clip box boundary.
        for vertex in polygon.vertices:
            if (
                abs(vertex.x - self.clip.min_x) < 1e-12
                or abs(vertex.x - self.clip.max_x) < 1e-12
                or abs(vertex.y - self.clip.min_y) < 1e-12
                or abs(vertex.y - self.clip.max_y) < 1e-12
            ):
                unbounded = True
                break
        return VoronoiCell(index, generator, polygon, unbounded)

    # -- diagnostics -----------------------------------------------------------

    def total_cell_area(self) -> float:
        """Sum of clipped cell areas.

        For generators all inside the clip box this equals the clip box area
        (the cells tile the box); the tests use that as a global invariant.
        """
        seen = set()
        total = 0.0
        for i in range(len(self.points)):
            canonical = self.triangulation.alias_of[i]
            if canonical in seen:
                continue
            seen.add(canonical)
            total += self.cell(canonical).area
        return total


def _clip_by_bisector(
    region: List[Point], keep: Point, other: Point
) -> List[Point]:
    """Sutherland–Hodgman clip of ``region`` by the half-plane of points at
    least as close to ``keep`` as to ``other``."""
    if not region:
        return region
    # Half-plane: dot(p - midpoint, keep - other) >= 0.
    mid = keep.midpoint(other)
    normal = keep - other

    def side(p: Point) -> float:
        return (p - mid).dot(normal)

    output: List[Point] = []
    n = len(region)
    for i in range(n):
        current = region[i]
        following = region[(i + 1) % n]
        side_current = side(current)
        side_following = side(following)
        if side_current >= 0.0:
            output.append(current)
            if side_following < 0.0:
                output.append(_edge_plane_intersection(current, following, mid, normal))
        elif side_following >= 0.0:
            output.append(_edge_plane_intersection(current, following, mid, normal))
    # Remove consecutive duplicates introduced by vertices exactly on the line.
    deduplicated: List[Point] = []
    for p in output:
        if not deduplicated or deduplicated[-1] != p:
            deduplicated.append(p)
    if len(deduplicated) > 1 and deduplicated[0] == deduplicated[-1]:
        deduplicated.pop()
    return deduplicated


def _edge_plane_intersection(
    a: Point, b: Point, plane_point: Point, plane_normal: Point
) -> Point:
    direction = b - a
    denominator = direction.dot(plane_normal)
    if denominator == 0.0:
        return a
    t = (plane_point - a).dot(plane_normal) / denominator
    return a + direction * t
