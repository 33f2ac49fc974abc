"""Incremental Bowyer–Watson Delaunay triangulation.

A from-scratch construction of the Delaunay triangulation of a 2-D point
set, the substrate from which the paper's method reads Voronoi-neighbour
relationships (Property 4: the Delaunay graph is the dual of the Voronoi
diagram).

Algorithm
---------
Classic cavity-based incremental insertion:

1. Start from a *super triangle* enclosing all input points by a wide
   margin.
2. For each point: locate the triangle containing it by a visibility walk
   over triangle adjacency, grow the *cavity* of all triangles whose
   circumcircle contains the point (breadth-first over triangle adjacency,
   using the robust in-circle predicate), delete the cavity and
   fan-retriangulate its boundary to the new point.
3. Finally, drop every triangle incident to a super-triangle vertex.

Point location is what an incremental construction spends its time on
unless every walk starts next to its target, so both ways a vertex arrives
arrange for that:

* The **bulk build** inserts the rows in the order of their Hilbert-curve
  keys over the input's bounding box (:func:`repro.engine.order.hilbert_keys`,
  one array pass), whatever order they were given in.  Consecutive inserts
  are spatial neighbours and each walk starts from the triangle the
  previous insert created: under 3 steps on average on uniform, clustered,
  sorted and exact-grid input alike.
* A **live insert** (:meth:`DelaunayTriangulation.add_point`) starts from
  a *hint grid*: a coarse grid over the build extent (about four build
  points per cell) whose cells each remember one live triangle with a
  vertex inside the cell.  Re-fanning a cavity refreshes the cells of the
  cavity's boundary vertices, which is exactly what keeps every remembered
  triangle alive.  A cell no vertex has landed in yet, and a point outside
  the build extent (it reads a border cell), only make the walk longer;
  where a walk starts never changes the triangulation.

The build is O(n log n) for the sort plus, on the inputs above, O(1)
location and cavity work per point; the worst case stays quadratic.  The
structure maintains full triangle adjacency, so the Voronoi dual can be
extracted without search, and it stays **dynamic**:
:meth:`DelaunayTriangulation.add_point` inserts one more point in expected
O(1) work and reports exactly which points' neighbourhoods changed — the
database uses that to keep query structures warm across inserts.

Degeneracies
------------
* Duplicate points are detected at insertion and recorded as *aliases* of
  the first occurrence.  All copies of a location form a clique in the
  neighbour relation and share the location's spatial neighbourhood (the
  Voronoi diagram of a multiset is the diagram of its support).
* Cocircular quadruples are resolved arbitrarily but consistently by the
  exact predicate's tie (``incircle == 0`` keeps the current topology).
* Fully collinear inputs yield no finite triangles; the triangulation then
  reports the chain neighbours instead, so downstream graph traversal still
  sees a connected graph (Property 5 degenerates to a path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.geometry.point import Point
from repro.geometry.predicates import (
    circumcenter,
    incircle,
    orientation_sign,
)

Triangle = Tuple[int, int, int]
# vertex slots reserved for the super triangle: finite vertices are > 2
_SUPER = (0, 1, 2)
#: Hilbert refinement of the bulk build's insertion order: the finest the
#: int64 keys allow, so that a cluster a millionth of the bounding box wide
#: (one far outlier does that) still gets distinct keys.  Points sharing a
#: cell go in in row order.
_CURVE_ORDER = 31
#: The hint grid has about one cell per four build-time points, and never
#: more than this many cells per axis, however large the build.
_HINT_SIDE_MAX = 256


@dataclass(frozen=True)
class InsertionResult:
    """Outcome of :meth:`DelaunayTriangulation.add_point`.

    ``index`` is the new point's input index; ``affected`` lists every
    input index (including ``index``) whose :meth:`neighbors` result may
    have changed — callers maintaining caches re-read exactly those.
    """

    index: int
    affected: FrozenSet[int]


class DelaunayTriangulation:
    """Delaunay triangulation over a (dynamically growable) set of points.

    Parameters
    ----------
    points:
        The initial points.  Order is preserved: vertex ``i`` of the
        triangulation is ``points[i]``.
        The insertion order is the build's own (Hilbert-curve order over
        the bounding box), so sorted input costs nothing extra.

    Attributes
    ----------
    points:
        The input points (aliases included; grows with ``add_point``).
    alias_of:
        Maps the index of each duplicate point to the index of its first
        occurrence; canonical points map to themselves.
    locate_steps:
        Triangle-to-triangle moves point location has made so far, bulk
        build and ``add_point`` together — a deterministic measure of how
        near its target each walk started (the tests bound its mean).
    """

    def __init__(self, points: Sequence[Point]) -> None:
        self.points: List[Point] = list(points)
        if len(self.points) < 1:
            raise ValueError("triangulation needs at least one point")

        self.alias_of: Dict[int, int] = {}
        self._vertices: List[Point] = []  # super vertices + canonical points
        self._vertex_to_input: List[int] = []  # triangulation vertex -> input index
        self._input_to_vertex: Dict[int, int] = {}
        self._location_index: Dict[Tuple[float, float], int] = {}
        # triangle id -> vertex triple (CCW)
        self._triangles: Dict[int, Triangle] = {}
        # triangle id -> neighbour ids, entry i is across the edge opposite
        # vertex i (None on the hull)
        self._neighbors: Dict[int, List[Optional[int]]] = {}
        self._next_triangle_id = 0
        self._last_triangle = 0
        self.locate_steps = 0

        # Neighbour bookkeeping: spatial adjacency over canonical input
        # indices, duplicate groups, and a per-index view cache.
        self._spatial_adj: Dict[int, Set[int]] = {}
        self._groups: Dict[int, List[int]] = {}  # only canons with >1 copy
        self._has_duplicates = False
        self._chain_mode = False  # True while the input is fully collinear
        self._neighbor_cache: Dict[int, Tuple[int, ...]] = {}

        self._build()

    # -- public API ----------------------------------------------------------

    def neighbors(self, index: int) -> Tuple[int, ...]:
        """Voronoi neighbours of input point ``index`` (input indices).

        Copies of one location form a clique and share the location's
        spatial neighbourhood (they are at distance zero from each other);
        a point is never its own neighbour and the relation is symmetric.
        """
        cached = self._neighbor_cache.get(index)
        if cached is not None:
            return cached
        canonical = self.alias_of[index]
        spatial = self._spatial_adj[canonical]
        if not self._has_duplicates:
            result = tuple(sorted(spatial))
        else:
            full: Set[int] = set(self._groups.get(canonical, (canonical,)))
            for neighbor_canonical in spatial:
                full.update(
                    self._groups.get(
                        neighbor_canonical, (neighbor_canonical,)
                    )
                )
            full.discard(index)
            result = tuple(sorted(full))
        self._neighbor_cache[index] = result
        return result

    def add_point(self, point: Point) -> InsertionResult:
        """Insert one more point into the triangulation, incrementally.

        Expected O(1) amortised cavity work per insert (worst case O(n)).
        Returns the new input index and the set of input indices whose
        neighbour sets changed, so callers can update caches locally
        instead of rebuilding.
        """
        index = len(self.points)
        self.points.append(point)
        key = (point.x, point.y)

        existing = self._location_index.get(key)
        if existing is not None:
            # Duplicate: join the location's clique.
            self.alias_of[index] = existing
            group = self._groups.setdefault(existing, [existing])
            group.append(index)
            self._has_duplicates = True
            affected: Set[int] = set(group)
            for neighbor_canonical in self._spatial_adj[existing]:
                affected.update(
                    self._groups.get(
                        neighbor_canonical, (neighbor_canonical,)
                    )
                )
            self._invalidate(affected)
            return InsertionResult(index, frozenset(affected))

        self._guard_inside_super(point)
        self.alias_of[index] = index
        self._location_index[key] = index
        vertex = len(self._vertices)
        self._vertices.append(point)
        self._vertex_to_input.append(index)
        self._input_to_vertex[index] = vertex
        # Walk from the triangle remembered for the point's cell; a cell no
        # vertex has landed in yet starts where the previous write ended.
        start = self._hint[self._hint_cell(point.x, point.y)]
        if start not in self._triangles:
            start = self._last_triangle
        interior_edges, boundary_vertices = self._insert_vertex(vertex, start)

        if self._chain_mode:
            # The pre-insert structure was a degenerate collinear chain; the
            # incremental edge bookkeeping below assumes triangle-derived
            # adjacency, so rebuild from the (small) current topology.
            before = {
                i: set(nbrs) for i, nbrs in self._spatial_adj.items()
            }
            self._spatial_adj = self._extract_spatial_adjacency()
            self._chain_mode = not any(True for _ in self.triangles())
            affected = {index}
            for i, nbrs in self._spatial_adj.items():
                if before.get(i) != nbrs:
                    affected.add(i)
            affected = self._expand_to_groups(affected)
            self._invalidate(affected)
            return InsertionResult(index, frozenset(affected))

        changed: Set[int] = {index}
        self._spatial_adj[index] = set()
        for u, w in interior_edges:
            iu = self._vertex_to_input[u]
            iw = self._vertex_to_input[w]
            self._spatial_adj[iu].discard(iw)
            self._spatial_adj[iw].discard(iu)
            changed.add(iu)
            changed.add(iw)
        for u in boundary_vertices:
            iu = self._vertex_to_input[u]
            self._spatial_adj[index].add(iu)
            self._spatial_adj[iu].add(index)
            changed.add(iu)

        affected = self._expand_to_groups(changed)
        self._invalidate(affected)
        return InsertionResult(index, frozenset(affected))

    def triangles(self) -> Iterator[Tuple[int, int, int]]:
        """The finite triangles as triples of input indices (CCW)."""
        for tri in self._triangles.values():
            if any(v in _SUPER for v in tri):
                continue
            yield tuple(self._vertex_to_input[v] for v in tri)  # type: ignore[misc]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """The finite Delaunay edges as ordered pairs ``(i, j)`` with i < j."""
        seen: Set[Tuple[int, int]] = set()
        for i, nbrs in self._spatial_adj.items():
            for j in nbrs:
                edge = (i, j) if i < j else (j, i)
                if edge not in seen:
                    seen.add(edge)
                    yield edge

    def triangle_circumcenters(self) -> Dict[Tuple[int, int, int], Point]:
        """Circumcentre of every finite triangle (keyed by input indices).

        These are exactly the Voronoi vertices of the dual diagram.
        """
        return {
            tri: circumcenter(
                self.points[tri[0]], self.points[tri[1]], self.points[tri[2]]
            )
            for tri in self.triangles()
        }

    @property
    def canonical_count(self) -> int:
        """Number of distinct point locations."""
        return len(self._vertices) - 3

    def check_delaunay_property(self) -> None:
        """Raise :class:`AssertionError` if any finite triangle's circumcircle
        strictly contains another input point (the empty-circumcircle
        invariant).  O(T * n); for tests only."""
        canonical_indices = [
            i for i in range(len(self.points)) if self.alias_of.get(i, i) == i
        ]
        for a, b, c in self.triangles():
            pa, pb, pc = self.points[a], self.points[b], self.points[c]
            for i in canonical_indices:
                if i in (a, b, c):
                    continue
                if incircle(pa, pb, pc, self.points[i]) > 0.0:
                    raise AssertionError(
                        f"point {i} lies inside the circumcircle of "
                        f"triangle ({a}, {b}, {c})"
                    )

    # -- construction ---------------------------------------------------------

    def _build(self) -> None:
        # Imported here: the engine package imports the layers above this
        # one, which import this module.
        from repro.engine.order import hilbert_keys

        # Deduplicate: canonical index for every distinct location.
        canonical: List[int] = []
        for i, p in enumerate(self.points):
            key = (p.x, p.y)
            if key in self._location_index:
                canon = self._location_index[key]
                self.alias_of[i] = canon
                self._groups.setdefault(canon, [canon]).append(i)
                self._has_duplicates = True
            else:
                self._location_index[key] = i
                self.alias_of[i] = i
                canonical.append(i)

        # Super triangle: a triangle comfortably containing all points.
        count = len(self.points)
        xs = np.fromiter((p.x for p in self.points), np.float64, count)
        ys = np.fromiter((p.y for p in self.points), np.float64, count)
        min_x, max_x = float(xs.min()), float(xs.max())
        min_y, max_y = float(ys.min()), float(ys.max())
        span = max(max_x - min_x, max_y - min_y, 1.0)
        mid_x = (min_x + max_x) / 2.0
        mid_y = (min_y + max_y) / 2.0
        # The super triangle must be far enough away that the circumcircle
        # of (hull edge, super vertex) approximates the outer half-plane:
        # its sagitta over a hull edge of length d is ~d^2/(8*margin), so a
        # 1e8 factor keeps the geometric shielding error below 1e-8 * span.
        # Numeric robustness at this scale is covered by the exact-predicate
        # fallback.
        margin = 1.0e8 * span
        self._span = span
        self._mid = Point(mid_x, mid_y)
        self._vertices = [
            Point(mid_x - 2.0 * margin, mid_y - margin),
            Point(mid_x + 2.0 * margin, mid_y - margin),
            Point(mid_x, mid_y + 2.0 * margin),
        ]
        self._vertex_to_input = [-1, -1, -1]
        self._last_triangle = self._new_triangle((0, 1, 2), [None, None, None])

        # Hint grid over the input's bounding box: cell -> id of a live
        # triangle with a vertex in that cell (-1 until one lands there).
        width = (max_x - min_x) or 1.0
        height = (max_y - min_y) or 1.0
        side = min(_HINT_SIDE_MAX, max(1, int((len(canonical) / 4.0) ** 0.5)))
        self._hint_side = side
        self._hint_origin = (min_x, min_y)
        self._hint_scale = (side / width, side / height)
        self._hint: List[int] = [-1] * (side * side)

        # Insert along the Hilbert curve through the bounding box, so every
        # point is a spatial neighbour of the one before it and its walk
        # from the last triangle created is a few steps long.
        rows = np.asarray(canonical, dtype=np.int64)
        keys = hilbert_keys(
            (xs[rows] - min_x) / width,
            (ys[rows] - min_y) / height,
            order=_CURVE_ORDER,
        )
        for input_index in rows[np.argsort(keys, kind="stable")].tolist():
            vertex = len(self._vertices)
            self._vertices.append(self.points[input_index])
            self._vertex_to_input.append(input_index)
            self._input_to_vertex[input_index] = vertex
            self._insert_vertex(vertex, self._last_triangle)

        self._spatial_adj = self._extract_spatial_adjacency()
        self._chain_mode = not any(True for _ in self.triangles())

    def _hint_cell(self, x: float, y: float) -> int:
        """Index into the hint grid of the cell holding ``(x, y)``; points
        outside the build extent fall into the border cells."""
        last = self._hint_side - 1
        cx = int((x - self._hint_origin[0]) * self._hint_scale[0])
        cy = int((y - self._hint_origin[1]) * self._hint_scale[1])
        cx = 0 if cx < 0 else (last if cx > last else cx)
        cy = 0 if cy < 0 else (last if cy > last else cy)
        return cy * self._hint_side + cx

    def _guard_inside_super(self, point: Point) -> None:
        """Reject inserts so far outside the original extent that the super
        triangle's half-plane approximation would degrade (the database
        falls back to a full rebuild in that case)."""
        limit = 1.0e6 * self._span
        if (
            abs(point.x - self._mid.x) > limit
            or abs(point.y - self._mid.y) > limit
        ):
            raise ValueError(
                "point lies too far outside the triangulation's original "
                "extent for incremental insertion; rebuild instead"
            )

    def _new_triangle(
        self, tri: Triangle, neighbors: List[Optional[int]]
    ) -> int:
        tri_id = self._next_triangle_id
        self._next_triangle_id += 1
        self._triangles[tri_id] = tri
        self._neighbors[tri_id] = neighbors
        return tri_id

    # -- point location -------------------------------------------------------

    def _locate(self, px: float, py: float, start: int) -> int:
        """Find a triangle whose closed interior contains ``(px, py)``.

        Visibility walk from triangle ``start``: cross the first edge that
        has the point strictly on its far side, never the edge just
        crossed (the exact predicate is antisymmetric, so that one cannot
        be an exit).  Where the walk starts changes how long it is, never
        where it ends up: any triangle containing the point opens the same
        cavity.  The triangulation is Delaunay throughout, so the walk
        cannot cycle, and the super triangle guarantees containment.
        """
        triangles = self._triangles
        neighbors = self._neighbors
        vertices = self._vertices
        tri_id = start
        previous = -1
        for steps in range(4 * len(triangles) + 16):
            i, j, k = triangles[tri_id]
            a, b, c = vertices[i], vertices[j], vertices[k]
            ax, ay, bx, by, cx, cy = a.x, a.y, b.x, b.y, c.x, c.y
            # neighbour e is across the edge opposite local vertex e
            n0, n1, n2 = neighbors[tri_id]
            if n0 != previous and orientation_sign(bx, by, cx, cy, px, py) < 0.0:
                step = n0
            elif n1 != previous and orientation_sign(cx, cy, ax, ay, px, py) < 0.0:
                step = n1
            elif n2 != previous and orientation_sign(ax, ay, bx, by, px, py) < 0.0:
                step = n2
            else:
                self.locate_steps += steps
                return tri_id
            if step is None:
                # Outside the hull of live triangles — cannot happen with a
                # super triangle, but guard anyway.
                raise RuntimeError("point-location walk left the triangulation")
            previous, tri_id = tri_id, step
        raise RuntimeError("point-location walk failed to terminate")

    # -- insertion --------------------------------------------------------------

    def _insert_vertex(
        self, vertex: int, start: int
    ) -> Tuple[List[Tuple[int, int]], List[int]]:
        """Bowyer–Watson insertion of ``vertex``, located from ``start``.

        Returns ``(interior_edges, boundary_vertices)``: the finite edges
        destroyed by the cavity (each shared by two cavity triangles) and
        the finite vertices of the cavity's boundary cycle (the new
        vertex's Delaunay neighbours) — exactly the adjacency delta.
        """
        triangles = self._triangles
        neighbors = self._neighbors
        vertices = self._vertices
        p = vertices[vertex]
        first = self._locate(p.x, p.y, start)

        # Grow the cavity: all triangles whose circumcircle contains p.
        cavity: Set[int] = {first}
        frontier = [first]
        while frontier:
            for neighbor in neighbors[frontier.pop()]:
                if neighbor is None or neighbor in cavity:
                    continue
                i, j, k = triangles[neighbor]
                if incircle(vertices[i], vertices[j], vertices[k], p) > 0.0:
                    cavity.add(neighbor)
                    frontier.append(neighbor)

        # Boundary of the cavity (directed edges with the outside neighbour
        # across them) and the interior edges (shared by 2 cavity
        # triangles; reported once via id ordering).
        boundary: List[Tuple[int, int, Optional[int]]] = []
        interior_edges: List[Tuple[int, int]] = []
        for tri_id in cavity:
            tri = triangles[tri_id]
            for edge_index, neighbor in enumerate(neighbors[tri_id]):
                u = tri[edge_index - 2]
                w = tri[edge_index - 1]
                if neighbor is None or neighbor not in cavity:
                    boundary.append((u, w, neighbor))
                elif tri_id < neighbor and u > 2 and w > 2:
                    interior_edges.append((u, w))

        # Delete the cavity (no live triangle references a cavity id after
        # the redirection below, so the entries can be reclaimed outright).
        for tri_id in cavity:
            del triangles[tri_id]
            del neighbors[tri_id]

        # Fan-retriangulate: one new triangle per boundary edge.  The cavity
        # is star-shaped around p, so its boundary is a single CCW cycle and
        # each boundary vertex starts exactly one edge and ends exactly one.
        # Every boundary vertex re-points its hint cell at its new triangle:
        # a hinted triangle always has a vertex in the hinting cell, so when
        # a cavity deletes it that vertex is on the boundary and the cell is
        # refreshed here — hints never go stale.
        hint = self._hint
        hint_cell = self._hint_cell
        owner_by_start: Dict[int, int] = {}
        owner_by_end: Dict[int, int] = {}
        new_ids: List[int] = []
        for u, w, outside in boundary:
            new_id = self._new_triangle((vertex, u, w), [outside, None, None])
            new_ids.append(new_id)
            owner_by_start[u] = new_id
            owner_by_end[w] = new_id
            if u > 2:
                corner = vertices[u]
                hint[hint_cell(corner.x, corner.y)] = new_id
            if outside is not None:
                # Point the outside triangle back at the new one.
                outside_tri = triangles[outside]
                outside_neighbors = neighbors[outside]
                for i in range(3):
                    if outside_tri[i - 2] == w and outside_tri[i - 1] == u:
                        outside_neighbors[i] = new_id
                        break
        hint[hint_cell(p.x, p.y)] = new_ids[-1]

        # Stitch the fan: triangle (vertex, u, w) meets the triangle whose
        # boundary edge starts at w along the spoke (w, vertex) (edge
        # opposite local vertex 1), and the triangle whose boundary edge
        # ends at u along the spoke (vertex, u) (edge opposite local
        # vertex 2).
        for new_id in new_ids:
            _, u, w = triangles[new_id]
            fan = neighbors[new_id]
            fan[1] = owner_by_start.get(w)
            fan[2] = owner_by_end.get(u)
        self._last_triangle = new_ids[-1]

        boundary_vertices = [u for u, _, _ in boundary if u > 2]
        return interior_edges, boundary_vertices

    # -- adjacency extraction ----------------------------------------------------

    def _extract_spatial_adjacency(self) -> Dict[int, Set[int]]:
        """Spatial adjacency over canonical input indices, from triangles."""
        adjacency: Dict[int, Set[int]] = {
            self._vertex_to_input[v]: set()
            for v in range(3, len(self._vertices))
        }
        for tri in self._triangles.values():
            finite = [v for v in tri if v not in _SUPER]
            if len(finite) < 2:
                continue
            inputs = [self._vertex_to_input[v] for v in finite]
            for i in range(len(inputs)):
                for j in range(i + 1, len(inputs)):
                    adjacency[inputs[i]].add(inputs[j])
                    adjacency[inputs[j]].add(inputs[i])

        # Collinear degenerate case: no finite triangle at all, but >= 2
        # distinct points.  Chain them along the line so the neighbour graph
        # stays connected (the true Voronoi adjacency for collinear points).
        canonical = [
            i for i in range(len(self.points)) if self.alias_of.get(i, i) == i
        ]
        if len(canonical) >= 2 and all(not nbrs for nbrs in adjacency.values()):
            ordered = sorted(
                canonical, key=lambda i: (self.points[i].x, self.points[i].y)
            )
            for a, b in zip(ordered, ordered[1:]):
                adjacency[a].add(b)
                adjacency[b].add(a)
        return adjacency

    def _expand_to_groups(self, canonicals: Set[int]) -> Set[int]:
        """All input indices living in the duplicate groups of ``canonicals``."""
        if not self._has_duplicates:
            return set(canonicals)
        expanded: Set[int] = set()
        for canonical in canonicals:
            expanded.update(self._groups.get(canonical, (canonical,)))
        return expanded

    def _invalidate(self, indices: Iterable[int]) -> None:
        for index in indices:
            self._neighbor_cache.pop(index, None)

    # -- convenience ------------------------------------------------------------

    @staticmethod
    def from_xy(
        xs: Iterable[float], ys: Iterable[float], **kwargs
    ) -> "DelaunayTriangulation":
        """Build from parallel coordinate iterables."""
        return DelaunayTriangulation(
            [Point(float(x), float(y)) for x, y in zip(xs, ys)], **kwargs
        )
