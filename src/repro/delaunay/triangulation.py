"""Insertable Delaunay triangulation in int arrays.

The substrate from which the paper's method reads Voronoi-neighbour
relationships (Property 4: the Delaunay graph is the dual of the Voronoi
diagram).  It holds no Python object per row: everything lives in growable
:class:`array.array` columns, which index at list speed from Python and
copy into numpy in one call.

* **Coordinates** ``_xs`` / ``_ys`` and ``alias_of`` (row -> lowest row at
  its location).  Vertex ids are row ids; only the lowest row of a location
  is a vertex, the others are its copies.
* **Triangles** ``_tri`` / ``_adj``, three entries per slot: the vertices
  counter-clockwise, and the slot across the edge opposite each.  Every
  convex-hull edge carries a **ghost triangle** whose third vertex is
  :data:`GHOST`, the point at infinity, so a point outside the hull
  conflicts with the ghosts of the hull edges it sees: no insert is too far
  outside.  An insert refills its cavity's slots first and appends two.
* **Rows** ``_start`` / ``_stop`` / ``_flat``: row ``r``'s neighbours,
  ascending, are ``_flat[_start[r]:_stop[r]]``.  A changed row is appended
  to ``_flat`` and the old entries stay, so a reader holding copies of
  ``_start`` / ``_stop`` keeps reading the rows it saw
  (:class:`repro.delaunay.backends.CsrRows`).  :meth:`DelaunayTriangulation.csr`
  packs the live rows into new arrays; an insert does so once the garbage
  outgrows them.

**Insertion** is Bowyer–Watson on the exact predicates of
:mod:`repro.geometry.predicates`: a visibility walk locates the point, the
cavity collects every triangle whose circumcircle strictly contains it (for
a ghost: the open half-plane beyond its edge, or the open edge itself), and
its boundary is fanned to the new vertex.  Walks start next to their
target: the bulk build inserts in Hilbert-curve order
(:func:`repro.delaunay.compiled.hilbert_order`) from the previous insert's
triangle, and a live insert from a *hint grid* — about four build points
per cell, each cell remembering a live finite triangle with a vertex in it,
refreshed whenever a cavity boundary passes through — under three steps on
average on uniform, clustered, sorted and exact-grid input.  Only the
boundary vertices' rows are rewritten: O(cavity) work, expected O(1).

**Bulk builds** that keep only the graph (:func:`bulk_graph`, which every
backend uses) run the same inserts compiled (:mod:`repro.delaunay.compiled`)
where a C compiler works, and emit the CSR pair without keeping a triangle.

**Adoption** (:meth:`DelaunayTriangulation.from_graph`) derives the
triangles of a graph built elsewhere — by :func:`bulk_graph`, or carried by
a snapshot — with array passes: each row's neighbours sorted by angle, a
consecutive pair with an exact counter-clockwise turn is a face, directed
edges paired for adjacency, unpaired ones given ghosts.  The result must be a Delaunay
triangulation (the certificate of :meth:`_problem`) whose edges are exactly
the graph's; otherwise the rows are triangulated by exact inserts instead.
Distinct rows the graph leaves empty (as a float triangulator's graph did
in snapshots of older versions) are inserted exactly afterwards.

**Degeneracies.**  Copies of one location form a clique and share its
spatial neighbourhood.  Cocircular ties keep the current topology
(``incircle == 0`` is no conflict).  While every location lies on one line
there are no triangles and the rows are the chain along the line; the first
point off it is joined to every chain vertex, the only triangulation such a
set has.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.delaunay import compiled
from repro.geometry.point import Point
from repro.geometry.predicates import (
    _INCIRCLE_ERR_BOUND,
    _MIN_NORMAL,
    _ORIENT_ERR_BOUND,
    incircle_sign,
    orientation_sign,
)

#: The third vertex of every ghost triangle: the point at infinity.
GHOST = -1
#: The most rows a graph may cover.  Its CSR pair is int32, and ``indptr[n]``
#: counts the directed edges, about 6n: past this many rows it could overflow.
MAX_ROWS = (2**31 - 1) // 6
#: The hint grid has about one cell per four build-time points, and never
#: more than this many cells per axis, however large the build.
_HINT_SIDE_MAX = 256
#: Triangles per block of the array certificate (bounds its temporaries).
_BLOCK = 4096
#: The edge opposite local vertex ``e`` runs from ``_NEXT[e]`` to ``_PREV[e]``.
_NEXT = (1, 2, 0)
_PREV = (2, 0, 1)

Delta = Tuple[List[int], List[Tuple[int, int]]]


class DelaunayTriangulation:
    """The Delaunay triangulation of a growable point set, in int arrays.

    ``points`` is a sequence of :class:`Point` or anything with a
    ``columns()`` method returning ``(xs, ys)`` (a store view); row ``i``
    is vertex ``i``, whatever order the build inserts them in.
    ``locate_steps`` counts the triangle-to-triangle moves of every walk so
    far — a deterministic measure of how near its target each walk started.
    """

    def __init__(self, points: Sequence[Point]) -> None:
        self._build(*_coordinate_columns(points))

    @classmethod
    def from_xy(cls, xs, ys) -> "DelaunayTriangulation":
        """Build from parallel coordinate columns."""
        triangulation = cls.__new__(cls)
        triangulation._build(np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))
        return triangulation

    @classmethod
    def from_graph(cls, xs, ys, indptr, indices) -> "DelaunayTriangulation":
        """Adopt the neighbour graph ``(indptr, indices)`` of rows ``(xs, ys)``.

        The triangles are derived from the graph (see the module
        docstring), which becomes the rows unchanged.  A graph that is not
        the Delaunay graph of its rows — a chain, a corrupted file that
        passed the structural checks — is not trusted: the rows are
        triangulated by exact inserts instead, compiled where
        :func:`bulk_graph` can be.
        """
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        triangulation = cls._adopt(xs, ys, indptr, indices)
        if triangulation is None and compiled.library() is not None:
            triangulation = cls._adopt(xs, ys, *bulk_graph(xs, ys))
        return cls.from_xy(xs, ys) if triangulation is None else triangulation

    @classmethod
    def _adopt(cls, xs, ys, indptr, indices) -> "DelaunayTriangulation | None":
        """:meth:`from_graph`'s derivation, or ``None`` where the graph
        does not pass."""
        location = _locations(xs, ys)
        triangulation = cls.__new__(cls)
        triangulation._begin(xs, ys, location)
        faces, lone, directed = _faces(xs, ys, location, indptr, indices)
        if (
            faces is None
            or not triangulation._set_triangles(faces)
            # every face edge is a graph edge, and 3T + H slots = 2E: equal sets
            or len(triangulation._tri) // 3 != directed - 2 * len(faces)
            or triangulation._problem() is not None
        ):
            return None
        triangulation._set_rows(np.asarray(indptr), np.asarray(indices))
        x_of, y_of = triangulation._xs, triangulation._ys
        for vertex in lone.tolist():  # distinct rows the graph left out
            located = triangulation._locate(x_of[vertex], y_of[vertex], triangulation._last)
            triangulation._link(vertex, *triangulation._cavity_insert(vertex, located))
        return triangulation

    # -- public API ----------------------------------------------------------

    def __len__(self) -> int:
        """Number of rows (copies of a location included)."""
        return len(self.alias_of)

    @property
    def canonical_count(self) -> int:
        """Number of distinct point locations."""
        return len(self.alias_of) - sum(len(group) - 1 for group in self._groups.values())

    def neighbors(self, index: int) -> Tuple[int, ...]:
        """Voronoi neighbours of row ``index``, ascending: symmetric, never
        the row itself, and copies of a location adjacent to each other."""
        return tuple(self._flat[self._start[index] : self._stop[index]])

    def rows(self) -> Tuple[array, array, array]:
        """The live row storage ``(start, stop, flat)``, not copied (see
        the module docstring for what later inserts do to it)."""
        return self._start, self._stop, self._flat

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The rows as a packed int32 CSR pair ``(indptr, indices)``: new
        arrays, whose values also become the (int64) row storage, dropping
        the garbage."""
        start = np.frombuffer(self._start, dtype=np.int64)
        lengths = np.frombuffer(self._stop, dtype=np.int64) - start
        indptr = _packed_indptr(lengths)
        flat = np.frombuffer(self._flat, dtype=np.int64)
        indices = flat[_ranges(start, lengths)].astype(np.int32)
        del start, flat  # the old storage is replaced, never resized
        self._set_rows(indptr, indices)
        return indptr, indices

    def add_point(self, point: Point) -> int:
        """Insert ``point`` as the next row; returns its row id.

        A new location is inserted by Bowyer–Watson; one that already has a
        vertex joins its clique.  Only rows whose neighbours change are
        rewritten.
        """
        x, y = point.x, point.y
        row = len(self.alias_of)
        self._xs.append(x)
        self._ys.append(y)
        self._start.append(0)
        self._stop.append(0)
        if self._chain is None:
            start = self._hint[self._hint_cell(x, y)]
            located = self._locate(x, y, start if start >= 0 else self._last)
            corners = self._tri[3 * located : 3 * located + 3]
            same = [v for v in corners if v >= 0 and self._xs[v] == x and self._ys[v] == y]
        else:
            located = -1
            i = bisect_left(self._chain, (x, y), key=self._location)
            same = [v for v in self._chain[i : i + 1] if self._location(v) == (x, y)]
        if same:
            self.alias_of.append(same[0])
            self._add_copy(row, same[0])
        else:
            self.alias_of.append(row)
            delta = self._chain_insert(row) if located < 0 else self._cavity_insert(row, located)
            self._link(row, *delta)
        if 2 * self._garbage > len(self._flat):
            self.csr()
        return row

    def triangles(self) -> Iterator[Tuple[int, int, int]]:
        """The finite triangles as counter-clockwise triples of row ids."""
        tri = self._tri
        for base in range(0, len(tri), 3):
            a, b, c = tri[base], tri[base + 1], tri[base + 2]
            if a >= 0 and b >= 0 and c >= 0:
                yield a, b, c

    def edges(self) -> Iterator[Tuple[int, int]]:
        """The Delaunay edges between locations as pairs ``(i, j)``, i < j."""
        alias_of = self.alias_of
        for i in range(len(alias_of)):
            if alias_of[i] == i:
                yield from ((i, j) for j in self.neighbors(i) if j > i and alias_of[j] == j)

    def check_delaunay_property(self) -> None:
        """Raise :class:`AssertionError` unless this is the Delaunay
        triangulation of its rows and the rows are exactly its graph.

        An O(T) certificate, not an O(T * n) search: adjacency symmetric,
        every location a vertex, and :meth:`_problem`'s checks — together
        they imply that no circumcircle contains another point.  On a
        chain, every location lies on the chain's line.
        """
        derived = self._triangle_graph()
        if not all(np.array_equal(a, b) for a, b in zip(derived, self.csr())):
            raise AssertionError("the rows are not the triangulation's graph")
        chain = self._chain
        if chain is not None:
            assert len(chain) == self.canonical_count, "a location is missing"
            ends = (*self._location(chain[0]), *self._location(chain[-1]))
            assert all(orientation_sign(*ends, *self._location(v)) == 0.0 for v in chain)
            return
        vertices = {v for triangle in self.triangles() for v in triangle}
        assert len(vertices) == self.canonical_count, "a location is missing"
        tri = np.array(self._tri, dtype=np.int64).reshape(-1, 3)
        adj = np.array(self._adj, dtype=np.int64).reshape(-1, 3)
        t, e, n = np.repeat(np.arange(len(tri)), 3), np.tile(np.arange(3), len(tri)), adj.ravel()
        back = (adj[n] == t[:, None]).argmax(axis=1)  # the neighbour's slot back
        assert (
            (adj[n, back] == t).all()
            and (tri[n, (back + 1) % 3] == tri[t, (e + 2) % 3]).all()
            and (tri[n, (back + 2) % 3] == tri[t, (e + 1) % 3]).all()
        ), "adjacency is not symmetric"
        problem = self._problem()
        if problem is not None:
            raise AssertionError(problem)

    # -- construction ---------------------------------------------------------

    def _begin(self, xs: np.ndarray, ys: np.ndarray, location: np.ndarray) -> None:
        """Empty triangulation over the rows ``(xs, ys)``, nothing inserted."""
        self._xs, self._ys = _array("d", xs), _array("d", ys)
        self.alias_of = _array("q", location)
        self._groups: Dict[int, List[int]] = {}  # only locations with copies
        for row in np.flatnonzero(location != np.arange(len(location))).tolist():
            canonical = self.alias_of[row]
            self._groups.setdefault(canonical, [canonical]).append(row)
        self._chain: List[int] | None = []  # the line's locations, no triangle yet
        self._tri, self._adj = array("q"), array("q")
        self._last = -1
        self.locate_steps = 0
        self._set_rows(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))
        # hint grid over the bounding box: cell -> a live finite triangle
        # with a vertex in that cell (-1 until one lands there)
        min_x, min_y, width, height = compiled.extent(xs, ys)
        side = min(_HINT_SIDE_MAX, max(1, int((self.canonical_count / 4.0) ** 0.5)))
        self._hint_side = side
        self._hint_origin = (min_x, min_y)
        self._hint_scale = (side / width, side / height)
        self._hint = array("q", [-1]) * (side * side)

    def _build(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """Triangulate the rows by exact inserts in Hilbert-curve order."""
        _check_rows(xs, ys)
        order, distinct = compiled.hilbert_order(xs, ys)
        location = np.arange(len(xs)) if distinct else _locations(xs, ys)
        self._begin(xs, ys, location)
        for vertex in order[location[order] == order].tolist():
            if self._chain is None:
                located = self._locate(self._xs[vertex], self._ys[vertex], self._last)
                self._cavity_insert(vertex, located)
            else:
                self._chain_insert(vertex)
        self._set_rows(*self._triangle_graph())

    def _set_rows(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        """Make the packed CSR pair the row storage (new array objects)."""
        self._start, self._stop = _array("q", indptr[:-1]), _array("q", indptr[1:])
        self._flat = _array("q", indices)
        self._garbage = 0

    def _set_triangles(self, faces: np.ndarray) -> bool:
        """Make ``faces`` (counter-clockwise rows of three vertices) the
        triangles: pair their directed edges for adjacency and put a ghost
        on every unpaired one.  ``False`` if the edges do not pair up."""
        n, count = len(self.alias_of), len(faces)
        u = faces[:, [1, 2, 0]].ravel()  # slot 3t + e: the edge opposite e, u -> w
        w = faces[:, [2, 0, 1]].ravel()
        key = np.minimum(u, w)
        key *= n
        key += np.maximum(u, w)
        order = np.argsort(key)
        same = key[order[1:]] == key[order[:-1]]
        del key
        left, right = order[:-1][same], order[1:][same]
        del order
        if (same[1:] & same[:-1]).any() or (u[left] != w[right]).any():
            return False  # an edge in three triangles, or twice one way
        adj = np.empty(3 * count, dtype=np.int64)
        adj[left], adj[right] = right // 3, left // 3
        paired = np.zeros(3 * count, dtype=bool)
        paired[left] = paired[right] = True
        del left, right
        hull = np.flatnonzero(~paired)  # hull edge u -> w gets the ghost (w, u, GHOST)
        hu, hw = u[hull], w[hull]
        del u, w, paired
        ghosts = count + np.arange(len(hull), dtype=np.int64)
        first, second = np.full(n, -1, dtype=np.int64), np.full(n, -1, dtype=np.int64)
        first[hw], second[hu] = ghosts, ghosts
        # across (u, GHOST): the ghost starting at u; across (GHOST, w): the
        # ghost whose second vertex is w; across (w, u): the face
        across = np.column_stack((first[hu], second[hw], hull // 3))
        if (first[hw] != ghosts).any() or (second[hu] != ghosts).any() or (across < 0).any():
            return False  # the hull is not one simple cycle
        adj[hull] = ghosts
        self._tri = _array("q", faces, np.column_stack((hw, hu, np.full_like(hu, GHOST))))
        self._adj = _array("q", adj, across)
        self._chain = None
        self._last = count - 1
        hint = np.full(len(self._hint), -1, dtype=np.int64)
        hint[self._cells(np.arange(n))[faces.ravel()]] = np.repeat(np.arange(count), 3)
        self._hint = _array("q", hint)
        return True

    # -- point location -------------------------------------------------------

    def _location(self, vertex: int) -> Tuple[float, float]:
        return self._xs[vertex], self._ys[vertex]

    def _hint_cell(self, x: float, y: float) -> int:
        """Index into the hint grid of the cell holding ``(x, y)``; points
        outside the build extent fall into the border cells."""
        last = self._hint_side - 1
        cx = int((x - self._hint_origin[0]) * self._hint_scale[0])
        cy = int((y - self._hint_origin[1]) * self._hint_scale[1])
        cx = 0 if cx < 0 else (last if cx > last else cx)
        cy = 0 if cy < 0 else (last if cy > last else cy)
        return cy * self._hint_side + cx

    def _cells(self, vertices: np.ndarray) -> np.ndarray:
        """:meth:`_hint_cell` of many vertices at once."""
        last = self._hint_side - 1
        (ox, oy), (sx, sy) = self._hint_origin, self._hint_scale
        x_of = np.frombuffer(self._xs, dtype=np.float64)[vertices]
        y_of = np.frombuffer(self._ys, dtype=np.float64)[vertices]
        cx = np.clip(((x_of - ox) * sx).astype(np.int64), 0, last)
        return np.clip(((y_of - oy) * sy).astype(np.int64), 0, last) * self._hint_side + cx

    def _locate(self, px: float, py: float, t: int) -> int:
        """A finite triangle whose closure holds ``(px, py)``, or the ghost
        of a hull edge the point lies strictly beyond.

        Visibility walk from the finite triangle ``t``: cross the first
        edge that has the point strictly on its far side, never the edge
        just crossed.  Where the walk starts changes how long it is, never
        the cavity it opens; over a Delaunay triangulation it cannot cycle.
        """
        tri, adj, xs, ys = self._tri, self._adj, self._xs, self._ys
        previous = -1
        for steps in range(len(tri) // 3 + 1):
            base = 3 * t
            i, j, k = tri[base], tri[base + 1], tri[base + 2]
            ax, ay, bx, by, cx, cy = xs[i], ys[i], xs[j], ys[j], xs[k], ys[k]
            n0, n1, n2 = adj[base], adj[base + 1], adj[base + 2]
            if n0 != previous and orientation_sign(bx, by, cx, cy, px, py) < 0.0:
                step = n0
            elif n1 != previous and orientation_sign(cx, cy, ax, ay, px, py) < 0.0:
                step = n1
            elif n2 != previous and orientation_sign(ax, ay, bx, by, px, py) < 0.0:
                step = n2
            else:
                self.locate_steps += steps
                return t
            base = 3 * step
            if tri[base] < 0 or tri[base + 1] < 0 or tri[base + 2] < 0:
                self.locate_steps += steps + 1
                return step  # beyond the hull: the ghost conflicts
            previous, t = t, step
        raise RuntimeError("point-location walk failed to terminate")

    # -- insertion --------------------------------------------------------------

    def _ghost_conflict(self, a: int, b: int, c: int, px: float, py: float) -> bool:
        """Whether ``(px, py)`` is in the "circumcircle" of ghost ``(a, b, c)``:
        strictly beyond its hull edge, or strictly inside the edge itself."""
        if a < 0:
            a, b = b, c
        elif b < 0:
            a, b = c, a
        (ax, ay), (bx, by) = self._location(a), self._location(b)
        turn = orientation_sign(ax, ay, bx, by, px, py)
        if turn != 0.0:
            return turn > 0.0
        if ax != bx:
            return min(ax, bx) < px < max(ax, bx)
        return min(ay, by) < py < max(ay, by)

    def _cavity_insert(self, vertex: int, first: int) -> Delta:
        """Bowyer–Watson insertion of ``vertex`` from the triangle ``first``
        that :meth:`_locate` found for it.  Returns ``(boundary, interior)``:
        the finite vertices of the cavity's boundary (the new vertex's
        neighbours) and the finite edges the cavity destroyed."""
        tri, adj, xs, ys = self._tri, self._adj, self._xs, self._ys
        px, py = xs[vertex], ys[vertex]
        cavity = {first}  # every triangle in conflict with the point
        frontier = [first]
        while frontier:
            base = 3 * frontier.pop()
            for neighbor in (adj[base], adj[base + 1], adj[base + 2]):
                if neighbor in cavity:
                    continue
                nb = 3 * neighbor
                a, b, c = tri[nb], tri[nb + 1], tri[nb + 2]
                if a >= 0 and b >= 0 and c >= 0:
                    hit = incircle_sign(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], px, py) > 0.0
                else:
                    hit = self._ghost_conflict(a, b, c, px, py)
                if hit:
                    cavity.add(neighbor)
                    frontier.append(neighbor)

        # the boundary's directed edges with the triangle outside, and the
        # finite edges two cavity triangles share (reported once)
        boundary: List[Tuple[int, int, int]] = []
        interior: List[Tuple[int, int]] = []
        for t in cavity:
            base = 3 * t
            for e in range(3):
                neighbor = adj[base + e]
                u, w = tri[base + _NEXT[e]], tri[base + _PREV[e]]
                if neighbor not in cavity:
                    boundary.append((u, w, neighbor))
                elif t < neighbor and u >= 0 and w >= 0:
                    interior.append((u, w))

        # Fan: one triangle (vertex, u, w) per boundary edge, in the
        # cavity's slots first; the cavity is star-shaped around the point,
        # so each boundary vertex starts one edge and ends one.  Every
        # finite new triangle re-points the cells of its boundary vertices:
        # a hinted triangle has a vertex in the hinting cell, so when a
        # cavity deletes it that vertex is on the boundary — hints never go
        # stale.
        hint, cell = self._hint, self._hint_cell
        free = list(cavity)
        by_start: Dict[int, int] = {}
        by_end: Dict[int, int] = {}
        finite = -1
        for u, w, outside in boundary:
            if free:
                t = free.pop()
                base = 3 * t
                tri[base], tri[base + 1], tri[base + 2] = vertex, u, w
                adj[base] = outside
            else:
                t = len(tri) // 3
                tri.extend((vertex, u, w))
                adj.extend((outside, -1, -1))
            by_start[u] = by_end[w] = t
            ob = 3 * outside  # point the outside triangle back at the new one
            for i in range(3):
                if tri[ob + _NEXT[i]] == w and tri[ob + _PREV[i]] == u:
                    adj[ob + i] = t
                    break
            if u >= 0 and w >= 0:
                hint[cell(xs[u], ys[u])] = hint[cell(xs[w], ys[w])] = finite = t
        hint[cell(px, py)] = finite
        # (vertex, u, w) meets the new triangle whose edge starts at w across
        # the spoke (w, vertex), and the one whose edge ends at u across (vertex, u)
        for t in by_start.values():
            base = 3 * t
            adj[base + 1] = by_start[tri[base + 2]]
            adj[base + 2] = by_end[tri[base + 1]]
        self._last = finite
        return [u for u, _, _ in boundary if u >= 0], interior

    def _chain_insert(self, vertex: int) -> Delta:
        """Insert a new location while there are no triangles; returns the
        same delta as :meth:`_cavity_insert`."""
        chain = self._chain
        if len(chain) >= 2:
            ends = (*self._location(chain[0]), *self._location(chain[-1]))
            turn = orientation_sign(*ends, *self._location(vertex))
            if turn != 0.0:  # off the line: every triangle has the new vertex
                pairs = zip(chain, chain[1:])
                faces = [(a, b, vertex) if turn > 0.0 else (b, a, vertex) for a, b in pairs]
                self._set_triangles(np.array(faces, dtype=np.int64))
                return chain, []
        i = bisect_left(chain, self._location(vertex), key=self._location)
        chain.insert(i, vertex)
        ends = chain[max(i - 1, 0) : i] + chain[i + 1 : i + 2]
        return ends, [(ends[0], ends[1])] if len(ends) == 2 else []

    # -- rows -------------------------------------------------------------------

    def _row(self, r: int) -> List[int]:
        return self._flat[self._start[r] : self._stop[r]].tolist()

    def _write(self, r: int, values: List[int]) -> None:
        """Row ``r`` becomes ``values``, appended; the old entries stay."""
        flat = self._flat
        self._garbage += self._stop[r] - self._start[r]
        self._start[r] = len(flat)
        flat.extend(values)
        self._stop[r] = len(flat)

    def _link(self, vertex: int, boundary: List[int], interior: List[Tuple[int, int]]) -> None:
        """Rewrite the rows an insert of ``vertex`` changed: each boundary
        vertex's copies lose the destroyed edges and gain ``vertex``'s
        copies, which get the boundary's copies (and each other)."""
        lost: Dict[int, set] = {}
        for a, b in interior:
            lost.setdefault(a, set()).add(b)
            lost.setdefault(b, set()).add(a)
        alias_of, groups = self.alias_of, self._groups
        mine = groups.get(vertex, (vertex,))
        members: List[int] = []
        for u in boundary:
            gone = lost.get(u, ())
            for copy in groups.get(u, (u,)):
                row = [w for w in self._row(copy) if alias_of[w] not in gone]
                row.extend(mine)
                row.sort()
                self._write(copy, row)
                members.append(copy)
        for copy in mine:
            self._write(copy, sorted(members + [m for m in mine if m != copy]))

    def _add_copy(self, row: int, vertex: int) -> None:
        """Row ``row`` is another copy of ``vertex``'s location."""
        old = self._row(vertex)
        for other in old + [vertex]:
            self._write(other, self._row(other) + [row])
        self._write(row, sorted(old + [vertex]))
        self._groups.setdefault(vertex, [vertex]).append(row)

    def _triangle_graph(self) -> Tuple[np.ndarray, np.ndarray]:
        """The CSR graph the triangles (or the chain) define, copies
        expanded — what the rows must equal."""
        n = len(self.alias_of)
        if self._chain is not None:
            chain = np.array(self._chain, dtype=np.int64)
            src, dst = np.r_[chain[:-1], chain[1:]], np.r_[chain[1:], chain[:-1]]
        else:  # each directed edge once: 3 per finite triangle, 1 per ghost
            tri = np.frombuffer(self._tri, dtype=np.int64).reshape(-1, 3)
            src, dst = tri[:, [1, 2, 0]].ravel(), tri[:, [2, 0, 1]].ravel()
            finite = (src >= 0) & (dst >= 0)
            src, dst = src[finite], dst[finite]
        key = np.sort(src * n + dst)
        return _expand_copies(np.array(self.alias_of, dtype=np.int64), key // n, key % n)

    def _problem(self) -> str | None:
        """What keeps the triangle arrays from being a Delaunay
        triangulation of a convex region, or ``None``: orientation, every
        interior edge locally Delaunay, Euler's formula and a convex hull
        ring, a block of triangles at a time so nothing of the input's
        size is allocated.  The adjacency is taken as consistent, as the
        insert and :meth:`_set_triangles` make it."""
        xs = np.frombuffer(self._xs, dtype=np.float64)
        ys = np.frombuffer(self._ys, dtype=np.float64)
        tri = np.frombuffer(self._tri, dtype=np.int64).reshape(-1, 3)
        adj = np.frombuffer(self._adj, dtype=np.int64).reshape(-1, 3)
        finite = (tri >= 0).all(axis=1)
        vertex = np.zeros(len(xs), dtype=bool)
        for start in range(0, len(tri), _BLOCK):
            t = np.arange(start, min(start + _BLOCK, len(tri)))
            t = t[finite[t]]
            a, b, c = tri[t].T
            vertex[a] = vertex[b] = vertex[c] = True
            if (_orient_signs(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]) <= 0).any():
                return "a triangle is not counter-clockwise"
            for e in range(3):
                n = adj[t, e]
                inner = finite[n] & (t < n)
                # the neighbour's third corner: its corners less the shared edge
                d = tri[n[inner]].sum(axis=1) - (a + b + c)[inner] + tri[t[inner], e]
                ai, bi, ci = a[inner], b[inner], c[inner]
                corners = (xs[ai], ys[ai], xs[bi], ys[bi], xs[ci], ys[ci], xs[d], ys[d])
                if (_incircle_signs(*corners) > 0).any():
                    return "an edge is not locally Delaunay"
        ghosts = np.flatnonzero(~finite)
        corners = tri[ghosts]
        apex = (corners < 0).argmax(axis=1)
        if ((corners < 0).sum(axis=1) != 1).any() or not finite[adj[ghosts, apex]].all():
            return "a ghost is not on a hull edge"
        count = len(tri) - len(ghosts)
        edges, rest = divmod(3 * count + len(ghosts), 2)
        if rest or int(vertex.sum()) - edges + count != 1:
            return "Euler's formula fails"
        # the hull ring: ghost edge p -> q, then the ghost across (q, apex)
        p = corners[np.arange(len(ghosts)), (apex + 1) % 3]
        q = corners[np.arange(len(ghosts)), (apex + 2) % 3]
        following = adj[ghosts, (apex + 1) % 3]
        at = np.minimum(np.searchsorted(ghosts, following), len(ghosts) - 1)
        if (ghosts[at] != following).any() or (p[at] != q).any():
            return "the hull ring is broken"
        if (_orient_signs(xs[p], ys[p], xs[q], ys[q], xs[q[at]], ys[q[at]]) > 0).any():
            return "the hull is not convex"
        return None


def bulk_graph(xs, ys) -> Tuple[np.ndarray, np.ndarray]:
    """The Delaunay graph of the rows ``(xs, ys)`` as a packed int32 CSR
    pair: the bulk build's exact inserts in Hilbert-curve order, by the
    compiled loop (:mod:`repro.delaunay.compiled`) where it loads and by
    :meth:`DelaunayTriangulation.from_xy` where it does not — the same
    graph either way.  Only the pair is kept, no triangle.  More than
    :data:`MAX_ROWS` rows raise :class:`ValueError` before anything is
    allocated."""
    _check_rows(xs, ys)
    lib = compiled.library()
    if lib is None:
        return DelaunayTriangulation.from_xy(xs, ys).csr()
    return _compiled_graph(lib, xs, ys)


def _compiled_graph(lib, xs, ys) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`bulk_graph` through the compiled library ``lib``."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)  # read twice below
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    order, distinct = compiled.hilbert_order(xs, ys)
    if distinct:
        return compiled.graph(lib, xs, ys, order)
    location = _locations(xs, ys)
    indptr, indices = compiled.graph(lib, xs, ys, order[location[order] == order])
    return _expand_copies(location, np.repeat(np.arange(len(xs)), np.diff(indptr)), indices)


# -- array helpers -------------------------------------------------------------


def check_row_count(count: int) -> None:
    """:class:`ValueError` if a graph of ``count`` rows would outgrow its
    int32 CSR pair (more than :data:`MAX_ROWS`)."""
    if count > MAX_ROWS:
        raise ValueError(f"{count} rows are more than a graph holds ({MAX_ROWS})")


def _check_rows(xs: np.ndarray, ys: np.ndarray) -> None:
    """Refuse what no triangulation has: no rows, more than
    :data:`MAX_ROWS`, or a NaN or infinite coordinate (before anything is
    built from it)."""
    if not len(xs):
        raise ValueError("triangulation needs at least one point")
    check_row_count(len(xs))
    finite = np.isfinite(xs) & np.isfinite(ys)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"non-finite coordinate ({xs[row]!r}, {ys[row]!r}) at row {row}")


def _array(typecode: str, *parts: np.ndarray) -> array:
    """An :class:`array.array` holding ``parts`` back to back, copied once."""
    dtype = np.float64 if typecode == "d" else np.int64
    out = array(typecode)
    for part in parts:
        out.frombytes(memoryview(np.ascontiguousarray(part, dtype=dtype)).cast("B"))
    return out


def _coordinate_columns(points: Sequence[Point]):
    """``points`` as two float64 columns: a store view
    (:meth:`repro.core.store.PointsView.columns`) hands over its columns
    as they are; only a plain sequence of points is read row by row."""
    columns = getattr(points, "columns", None)
    if columns is not None:
        return columns()
    count = len(points)
    return (
        np.fromiter((p.x for p in points), dtype=np.float64, count=count),
        np.fromiter((p.y for p in points), dtype=np.float64, count=count),
    )


def _locations(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Per row, the lowest row at the same location (int64)."""
    order = np.lexsort((ys, xs))  # stable: copies side by side, lowest first
    sorted_xs, sorted_ys = xs[order], ys[order]
    first = np.ones(len(xs), dtype=bool)
    first[1:] = (sorted_xs[1:] != sorted_xs[:-1]) | (sorted_ys[1:] != sorted_ys[:-1])
    lowest = np.empty(len(xs), dtype=np.int64)
    lowest[order] = order[first][np.cumsum(first) - 1]
    return lowest


def _packed_indptr(lengths: np.ndarray) -> np.ndarray:
    """The int32 ``indptr`` of rows of ``lengths`` neighbours; a
    :class:`ValueError` where they are more than int32 counts (copies of
    one location form a clique, so rows alone do not bound the edges)."""
    total = int(lengths.sum())
    if total > np.iinfo(np.int32).max:
        raise ValueError(f"{total} directed edges are more than a graph holds")
    indptr = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


def _expand_copies(location: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """The int32 CSR rows over every row, from the sorted, unique directed edges
    ``src -> dst`` between canonical rows (``location[r]`` is row ``r``'s):
    each row's neighbours are the other rows at its location and every row
    at an adjacent one, ascending."""
    n = len(location)
    counts = np.bincount(location, minlength=n)
    if counts.max(initial=0) <= 1:  # no copies: the edges are the rows
        return _packed_indptr(np.bincount(src, minlength=n)), dst.astype(np.int32, copy=False)
    members = np.argsort(location, kind="stable")
    starts = np.cumsum(counts) - counts
    own = np.flatnonzero(counts)
    of = np.concatenate((own, dst))
    owner = np.repeat(np.concatenate((own, src)), counts[of])
    member = members[_ranges(starts[of], counts[of])]
    order = np.lexsort((member, owner))
    owner, member = owner[order], member[order]
    listed = np.bincount(owner, minlength=n)
    lengths = listed[location]
    values = member[_ranges(np.cumsum(listed)[location] - lengths, lengths)]
    keep = values != np.repeat(np.arange(n), lengths)
    return _packed_indptr(lengths - 1), values[keep].astype(np.int32)


def _faces(xs, ys, location, indptr, indices):
    """``(faces, lone, directed)`` of a neighbour graph.

    Each canonical row's neighbours (between locations) are sorted by
    angle; a consecutive pair with an exact counter-clockwise turn is a
    face, taken from its lowest corner.  ``faces`` are those rows of three,
    or ``None`` when there is none or a face's third edge is not a graph
    edge; ``lone`` are the canonical rows without a neighbour; ``directed``
    counts the graph's directed edges between locations.
    """
    n = len(xs)
    rows = np.arange(n)
    src, dst = np.repeat(rows, np.diff(indptr)), np.asarray(indices)
    if (location != rows).any():  # copies: keep the edges between locations
        spatial = (location[src] == src) & (location[dst] == dst)
        src, dst = src[spatial], dst[spatial]
        del spatial
    linked = np.zeros(n, dtype=bool)
    linked[src] = True
    lone = np.flatnonzero((location == rows) & ~linked)
    if not len(src):
        return None, lone, 0
    dx, dy = xs[dst], ys[dst]
    dx -= xs[src]
    dy -= ys[src]
    ring = dst[np.lexsort((np.arctan2(dy, dx), src))]  # src stays sorted
    del dx, dy
    last = np.append(src[1:] != src[:-1], True)
    following = np.arange(1, len(src) + 1)
    following[last] = np.flatnonzero(np.insert(last[:-1], 0, True))
    after = ring[following]
    del following, last
    face = (src < ring) & (src < after)
    faces = np.column_stack((src[face], ring[face], after[face]))
    del ring, after, face
    a, b, c = faces.T
    faces = faces[_orient_signs(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]) > 0]
    edges = src * n
    edges += dst  # ascending: the rows are, and so is each row
    probe = faces[:, 1] * n + faces[:, 2]  # the third edge of every face
    at = np.minimum(np.searchsorted(edges, probe), len(edges) - 1)
    if not len(faces) or (edges[at] != probe).any():
        return None, lone, len(edges)
    return faces, lone, len(edges)


def _exact_signs(det, sure, predicate, *columns) -> np.ndarray:
    """``sign(det)`` where ``sure``, the exact ``predicate`` elsewhere."""
    signs = np.sign(det)
    for k in np.flatnonzero(~sure).tolist():
        signs[k] = np.sign(predicate(*(float(column[k]) for column in columns)))
    return signs


def _orient_signs(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """:func:`orientation_sign`'s sign over arrays: the float determinant
    where its error bound vouches for it, the exact predicate elsewhere."""
    left, right = (ax - cx) * (by - cy), (ay - cy) * (bx - cx)
    magnitude = np.abs(left) + np.abs(right)
    sure = (np.abs(left - right) > _ORIENT_ERR_BOUND * magnitude) & (
        np.maximum(np.abs(left), np.abs(right)) >= _MIN_NORMAL
    )
    return _exact_signs(left - right, sure, orientation_sign, ax, ay, bx, by, cx, cy)


def _incircle_signs(ax, ay, bx, by, cx, cy, dx, dy) -> np.ndarray:
    """:func:`incircle_sign`'s sign over arrays, the same way."""
    adx, ady, bdx, bdy, cdx, cdy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
    alift, blift, clift = adx * adx + ady * ady, bdx * bdx + bdy * bdy, cdx * cdx + cdy * cdy
    det = alift * (bdx * cdy - cdx * bdy) + blift * (cdx * ady - adx * cdy)
    det += clift * (adx * bdy - bdx * ady)
    permanent = (np.abs(bdx * cdy) + np.abs(cdx * bdy)) * alift
    permanent += (np.abs(cdx * ady) + np.abs(adx * cdy)) * blift
    permanent += (np.abs(adx * bdy) + np.abs(bdx * ady)) * clift
    sure = np.abs(det) >= _INCIRCLE_ERR_BOUND * permanent
    return _exact_signs(det, sure, incircle_sign, ax, ay, bx, by, cx, cy, dx, dy)
