"""Algorithm 1: the Voronoi-diagram-based area query (the paper's Fig. 1b).

The candidate set is *grown*, not filtered:

1. **Seed** — pick any position inside the query area (we use the polygon
   centroid when it is interior, else a point on an interior diagonal) and
   find its nearest database point with the spatial index's NN search.  By
   Property 3 the seed's Voronoi cell contains that position, so the seed is
   an internal point or lies just outside near the boundary.
2. **Expand** — BFS over Voronoi neighbours.  An *internal* candidate (it
   passes the refinement test) enqueues all its unvisited neighbours; a
   non-internal candidate enqueues only the neighbours ``pn`` whose segment
   ``p -> pn`` intersects the area — exactly the pseudo-code of Algorithm 1.
   Properties 7–9 guarantee this reaches every internal point while visiting
   only internal points plus a one-cell-thick shell around the boundary.

Cost model: every dequeued candidate pays one refinement test, so redundant
validations equal the shell size, which scales with the polygon's
*perimeter* — compare the traditional method's scaling with the MBR/polygon
*area difference*.  That asymmetry is the entire empirical story of the
paper (Figs. 4–7).

Two executions of the same rule live here.  :func:`voronoi_area_query`'s
own loop is the scalar queue — one candidate at a time over ``Point``
objects and the backend's neighbour table — kept as the oracle
(``SpatialDatabase(vectorized=False)``, regions without array kernels).
:func:`_expand_vectorized` is what a database runs: the frontier advances
one BFS *wave* at a time, each wave refined by one ``contains_many`` call,
its neighbours gathered from the CSR graph, its shell segments tested by
one ``crosses_boundary_many`` call, all over the store's coordinate
columns; it builds neither the table nor a stored ``Point``.  The closure
the rule defines does not depend on the order candidates are visited in,
so both return the same ids and the same ``candidates`` / ``validations``
/ ``redundant_validations``.  ``segment_tests`` does depend on it — the
queue stops testing segments into a neighbour once one of them has
admitted it, a wave tests all its segments at once — and is reported as
measured, not as a paper quantity.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.geometry.kernels import squared_distances
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.region import QueryRegion
from repro.index.base import SpatialIndex
from repro.delaunay.backends import DelaunayBackend
from repro.core.exceptions import InvalidQueryAreaError
from repro.core.stats import QueryResult, QueryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import PointStore


def interior_position(area: Polygon) -> Point:
    """An arbitrary position strictly usable as the paper's ``pA``.

    The centroid works for convex and most concave polygons; when it falls
    outside (strongly concave shapes) or on the boundary, fall back to the
    ear-clipping triangulation: the centroid of the largest triangle is
    strictly interior for any simple polygon with positive area.
    """
    centroid = area.centroid
    if area.contains_point(centroid) and not area.point_on_boundary(centroid):
        return centroid
    try:
        return area.interior_point()
    except ValueError as error:
        raise InvalidQueryAreaError(
            "could not find an interior position of the query area; "
            "is the polygon degenerate?"
        ) from error


def graph_nearest(
    neighbor_table: Sequence[Sequence[int]],
    points: Sequence[Point],
    start: int,
    x: float,
    y: float,
) -> int:
    """The row whose Voronoi cell contains ``(x, y)``, by greedy descent.

    Walks the Delaunay neighbour graph from ``start``, stepping to the
    neighbour strictly closest to the target each round; over a Delaunay
    triangulation the distance-to-target has no non-global local minima,
    so the walk terminates exactly at the graph's nearest vertex.  Used
    to correct a *live*-index seed into the *graph* nearest neighbour
    when tombstones exist: the spatial index forgets deleted rows, but
    Algorithm 1's seed must own the Voronoi cell of the query position
    over the full graph point set (tombstones included), otherwise the
    expansion may start in the wrong cell and miss results.  No hop cap
    is needed — strict improvement bounds the walk by the vertex count.
    """
    current = start
    p = points[current]
    best = (p.x - x) ** 2 + (p.y - y) ** 2
    improved = True
    while improved:
        improved = False
        for neighbor in neighbor_table[current]:
            q = points[neighbor]
            d = (q.x - x) ** 2 + (q.y - y) ** 2
            if d < best:
                best = d
                current = neighbor
                improved = True
    return current


def voronoi_area_query(
    index: SpatialIndex,
    backend: DelaunayBackend,
    points: Sequence[Point],
    area: QueryRegion,
    *,
    seed_position: Optional[Point] = None,
    seed_id: Optional[int] = None,
    contains: Callable[[QueryRegion, Point], bool] | None = None,
    store: Optional["PointStore"] = None,
    deleted: Optional[Dict[int, int]] = None,
) -> QueryResult:
    """Run Algorithm 1.

    Parameters
    ----------
    index:
        Spatial index used **only** for the seed nearest-neighbour lookup
        (the paper deliberately uses the same R-tree as the baseline).
    backend:
        Voronoi-neighbour provider over ``points``.
    points:
        The database point table; ``backend`` must have been built on it.
        Only the scalar queue reads it — with ``store`` given the
        expansion reads the store's columns and ``points`` may be a lazy
        view that is never touched.
    area:
        The query polygon ``A``.
    seed_position:
        Override for the arbitrary interior position ``pA`` (defaults to
        :func:`interior_position`).
    seed_id:
        Row id of an already-known seed point — the nearest database point
        to a position inside ``area``.  When given, the index NN search
        (and the interior-position computation) is skipped entirely; the
        batch engine uses this to reuse seeds between nearby queries by
        walking the Voronoi neighbour graph instead of descending the
        index (see :mod:`repro.engine.batch`).
    contains:
        Override for the refinement predicate (test hook); defaults to the
        exact :meth:`Polygon.contains_point`.  Forces the scalar path.
    store:
        The database's columnar :class:`~repro.core.store.PointStore`.
        When given (and the region provides ``contains_many``), the BFS
        runs *wave by wave* on arrays only (:func:`_expand_vectorized`):
        every frontier generation is refined with one kernel call over
        coordinates gathered from the store's columns, neighbours come
        from the backend's CSR graph, and the shell's segments are tested
        by one ``crosses_boundary_many`` call — no neighbour table and no
        ``Point`` is built or read.  The visited closure — and therefore
        the result id list — is identical to the scalar queue's (the
        expansion rule depends only on per-point/per-segment predicates,
        never on order), and the kernels are bitwise-exact against the
        scalar tests; ``segment_tests`` is the one counter whose value
        may differ, since which external point first reaches a shared
        neighbour is order-dependent.
    deleted:
        The store's tombstone map (:attr:`PointStore.deleted_rows`), or
        ``None``/empty when nothing was ever deleted.  Tombstoned rows
        stay in the Delaunay graph as *transit* vertices: the expansion
        traverses through them (the paper's coverage argument holds over
        the superset point set) but they are filtered from the result,
        and the seed — which the live-only spatial index produced — is
        first corrected to the graph nearest neighbour via
        :func:`graph_nearest`.

    Returns
    -------
    QueryResult
        Result ids (ascending), with ``method="voronoi"`` stats.

    Notes
    -----
    If the seed's nearest neighbour is not an internal point (possible when
    the area contains *no* database points at all, or the NN sits just
    outside the boundary), the expansion still proceeds from it using the
    external-point rule, and correctly returns the internal points (or an
    empty result).
    """
    if contains is not None:
        def refine(p: Point) -> bool:
            return contains(area, p)
    else:
        refine = area.contains_point
    stats = QueryStats(method="voronoi")
    nodes_before = index.stats.node_accesses

    started = time.perf_counter()
    position = seed_position
    if seed_id is None:
        if position is None:
            from repro.geometry.region import interior_seed_position

            position = interior_seed_position(area)
        seed_entry = index.nearest_neighbor(position)
        if seed_entry is None:
            stats.time_ms = (time.perf_counter() - started) * 1000.0
            return QueryResult(ids=[], stats=stats)
        seed_id = seed_entry[1]
    contains_many = (
        getattr(area, "contains_many", None)
        if store is not None and contains is None
        else None
    )
    if deleted:
        # The seed came from the live-only spatial index (directly above,
        # or from the engine's seed-reuse walk whose fallback is the same
        # index lookup); with tombstones in the graph it may not own the
        # Voronoi cell containing pA — correct it before expanding.
        if position is None:
            from repro.geometry.region import interior_seed_position

            position = interior_seed_position(area)
        if contains_many is not None:
            seed_id = _csr_graph_nearest(
                *backend.neighbor_csr(),
                store.xs, store.ys, seed_id, position.x, position.y,
            )
        else:
            seed_id = graph_nearest(
                backend.neighbor_table(), points, seed_id, position.x, position.y
            )

    if contains_many is not None:
        return _expand_vectorized(
            index, backend, area, contains_many, store, seed_id,
            nodes_before, started, stats, deleted,
        )

    candidate_queue: deque[int] = deque([seed_id])
    # A bytearray visited-set: O(1) no-hash membership, one byte per row.
    visited = bytearray(len(points))
    visited[seed_id] = 1
    results: List[int] = []

    # Local bindings for the BFS inner loop.
    pop = candidate_queue.popleft
    push = candidate_queue.append
    neighbor_table = backend.neighbor_table()
    crosses = area.crosses_boundary_xy
    candidates = 1
    validations = 0
    redundant = 0
    segment_tests = 0

    tombstoned = deleted if deleted else ()
    while candidate_queue:
        current = pop()
        current_point = points[current]
        validations += 1
        if refine(current_point):
            if current not in tombstoned:
                results.append(current)
            for neighbor in neighbor_table[current]:
                if not visited[neighbor]:
                    visited[neighbor] = 1
                    push(neighbor)
                    candidates += 1
        else:
            # ``current`` is outside the closed area, so the paper's
            # Intersects(line(p, pn), A) reduces to a boundary-crossing
            # test (a segment starting outside meets the region only
            # through its boundary).
            redundant += 1
            cx, cy = current_point.x, current_point.y
            for neighbor in neighbor_table[current]:
                if not visited[neighbor]:
                    segment_tests += 1
                    neighbor_point = points[neighbor]
                    if crosses(cx, cy, neighbor_point.x, neighbor_point.y):
                        visited[neighbor] = 1
                        push(neighbor)
                        candidates += 1
    stats.candidates = candidates
    stats.validations = validations
    stats.redundant_validations = redundant
    stats.segment_tests = segment_tests
    stats.time_ms = (time.perf_counter() - started) * 1000.0

    stats.index_node_accesses = index.stats.node_accesses - nodes_before
    stats.result_size = len(results)
    results.sort()
    return QueryResult(ids=results, stats=stats)


def _csr_graph_nearest(indptr, indices, xs, ys, start: int, x: float, y: float) -> int:
    """:func:`graph_nearest` over the CSR graph and the coordinate columns.

    The same greedy descent, one array expression per step instead of a
    Python loop over the neighbour row — what the array-native expansion
    uses so that a database with tombstones builds neither the neighbour
    table nor a ``Point``.
    """
    current = start
    best = float(squared_distances(xs[current], ys[current], x, y))
    while True:
        row = indices[indptr[current] : indptr[current + 1]]
        if not row.shape[0]:
            return current
        distances = squared_distances(xs[row], ys[row], x, y)
        closest = int(distances.argmin())
        if not distances[closest] < best:
            return current
        best = float(distances[closest])
        current = int(row[closest])


#: Frontier size below which a wave is walked one candidate at a time:
#: under it the fixed cost of a wave's ~100 numpy calls exceeds the
#: per-candidate cost of the loop.  Set from the sweep in
#: ``benchmarks/bench_columnar.py`` (docs/BENCHMARKS.md, "Wave threshold").
_WAVE_MIN = 48


def _expand_vectorized(
    index: SpatialIndex,
    backend: DelaunayBackend,
    area: QueryRegion,
    contains_many,
    store: "PointStore",
    seed_id: int,
    nodes_before: int,
    started: float,
    stats: QueryStats,
    deleted: Optional[Dict[int, int]] = None,
) -> QueryResult:
    """Algorithm 1's expansion, one BFS *wave* at a time, off the columns.

    Identical closure to the scalar queue (see the ``store`` parameter
    note on :func:`voronoi_area_query`).  Neighbours always come from the
    backend's CSR graph
    (:meth:`~repro.delaunay.backends.DelaunayBackend.neighbor_csr`) and
    coordinates from the store's columns: no neighbour table is built and
    no stored ``Point`` is read.  A generation of the frontier of
    :data:`_WAVE_MIN` rows or more is processed as arrays:

    1. **refine** — one ``contains_many`` kernel call over the gathered
       coordinates splits the wave into internal and external members;
    2. **gather** — one CSR gather lists every member's adjacency row as
       (source, neighbour) pairs;
    3. **internal rule** — every unvisited neighbour of an internal
       member joins the next wave;
    4. **shell rule** — the pairs of external members whose neighbour is
       still unvisited are segments ``p -> pn``; one
       ``crosses_boundary_many`` kernel call (regions without it: their
       scalar ``crosses_boundary_xy`` over the same gathered columns)
       admits the neighbours whose segment meets the area.

    A smaller wave applies the same two rules candidate by candidate,
    reading the same arrays through ``memoryview`` (plain ints and floats,
    one transient ``Point`` per refinement, nothing kept).  Whether a
    point joins the closure depends only on per-point / per-segment
    predicates, never on visit order, and both kernels are bitwise-exact
    against their scalar siblings, so mixing the regimes cannot change
    ids, ``candidates``, ``validations`` or ``redundant_validations``.
    ``segment_tests`` counts the (external member, unvisited neighbour)
    pairs tested and is order-dependent: the loop marks a neighbour
    visited as soon as one segment admits it and so skips later segments
    into the same neighbour, while an array wave tests all of its pairs
    together.
    """
    xs = store.xs
    ys = store.ys
    indptr, indices = backend.neighbor_csr()
    crosses_many = getattr(area, "crosses_boundary_many", None)
    dead = store.dead_mask if deleted else None
    tombstoned = deleted if deleted else ()
    # One visited set, two views: bytes for the loop, bools for the arrays.
    flags = bytearray(len(store))
    visited = np.frombuffer(flags, dtype=np.bool_)
    flags[seed_id] = 1
    slot = np.empty(len(store), dtype=np.int64)  # scratch of the dedupe below
    x_of, y_of = memoryview(xs), memoryview(ys)
    row_start, row_data = memoryview(indptr), memoryview(indices)
    refine = area.contains_point
    crosses = area.crosses_boundary_xy
    wave = np.array([seed_id], dtype=np.int64)
    results: List[int] = []
    result_arrays: List[np.ndarray] = []
    candidates = 1
    validations = 0
    redundant = 0
    segment_tests = 0

    while wave.shape[0]:
        validations += wave.shape[0]
        if wave.shape[0] < _WAVE_MIN:
            next_wave: List[int] = []
            push = next_wave.append
            for current in wave.tolist():
                cx = x_of[current]
                cy = y_of[current]
                row = row_data[row_start[current] : row_start[current + 1]]
                if refine(Point(cx, cy)):
                    if current not in tombstoned:
                        results.append(current)
                    for neighbor in row:
                        if not flags[neighbor]:
                            flags[neighbor] = 1
                            push(neighbor)
                else:
                    redundant += 1
                    for neighbor in row:
                        if not flags[neighbor]:
                            segment_tests += 1
                            if crosses(cx, cy, x_of[neighbor], y_of[neighbor]):
                                flags[neighbor] = 1
                                push(neighbor)
            candidates += len(next_wave)
            wave = np.array(next_wave, dtype=np.int64)
            continue
        inside = contains_many(xs[wave], ys[wave])
        internal = wave[inside]
        if internal.shape[0]:
            # Tombstones expand (transit vertices) but never report.
            result_arrays.append(
                internal if dead is None else internal[~dead[internal]]
            )
        redundant += wave.shape[0] - internal.shape[0]
        # Every member's adjacency row in one gather: pair j is
        # (wave[owner[j]], neighbor[j]).
        starts = indptr[wave]
        counts = indptr[wave + 1] - starts
        ends = np.cumsum(counts)
        owner = np.repeat(np.arange(wave.shape[0]), counts)
        neighbor = indices[
            np.arange(int(ends[-1])) + (starts - (ends - counts))[owner]
        ]
        from_internal = inside[owner]
        admitted = neighbor[from_internal & ~visited[neighbor]]
        visited[admitted] = True
        outside = ~from_internal
        outside[outside] = ~visited[neighbor[outside]]
        if outside.any():
            source = wave[owner[outside]]
            target = neighbor[outside]
            segment_tests += target.shape[0]
            segments = (xs[source], ys[source], xs[target], ys[target])
            if crosses_many is not None:
                crossing = crosses_many(*segments)
            else:
                crossing = np.fromiter(
                    map(crosses, *(column.tolist() for column in segments)),
                    dtype=bool,
                    count=target.shape[0],
                )
            target = target[crossing]
            visited[target] = True
            admitted = np.concatenate((admitted, target))
        # Two members may admit the same neighbour: keep one copy of each
        # (whichever write to its slot lands last) without sorting.
        position = np.arange(admitted.shape[0])
        slot[admitted] = position
        wave = admitted[slot[admitted] == position]
        candidates += wave.shape[0]

    stats.candidates = candidates
    stats.validations = validations
    stats.redundant_validations = redundant
    stats.segment_tests = segment_tests
    stats.time_ms = (time.perf_counter() - started) * 1000.0
    stats.index_node_accesses = index.stats.node_accesses - nodes_before
    if result_arrays:
        result_arrays.append(np.asarray(results, dtype=np.int64))
        ids = np.sort(np.concatenate(result_arrays)).tolist()
    else:
        results.sort()
        ids = results
    stats.result_size = len(ids)
    return QueryResult(ids=ids, stats=stats)
