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

One execution of the rule lives here, and it is array-native: the
frontier advances one BFS *wave* at a time over the store's coordinate
columns and the backend's CSR graph, each wave refined by one
``contains_many`` call and its shell segments tested by one
``crosses_boundary_many`` call (:func:`repro.geometry.kernels.region_kernels`
supplies both for any region, mapping the scalar tests of a region that
has no array kernels); it builds neither the neighbour table nor a
stored ``Point``.  The closure the rule defines does not depend on the
order candidates are visited in, so ids, ``candidates``, ``validations``
and ``redundant_validations`` equal the textbook one-candidate-at-a-time
queue's (``tests/oracle.py`` keeps that queue as the reference).
``segment_tests`` does depend on the order — a queue stops testing
segments into a neighbour once one of them has admitted it, a wave tests
all its segments at once — and is reported as measured, not as a paper
quantity.
"""

from __future__ import annotations

import time
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.geometry.kernels import region_kernels
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.region import QueryRegion
from repro.index.base import ID_DTYPE, SpatialIndex
from repro.delaunay.backends import DelaunayBackend
from repro.core.exceptions import InvalidQueryAreaError
from repro.core.stats import QueryRecord, QueryStats

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
    store: "PointStore",
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
    Coordinates are read from the store's columns.
    """
    x_of, y_of = memoryview(store.xs), memoryview(store.ys)
    current = start
    best = (x_of[current] - x) ** 2 + (y_of[current] - y) ** 2
    improved = True
    while improved:
        improved = False
        for neighbor in neighbor_table[current]:
            d = (x_of[neighbor] - x) ** 2 + (y_of[neighbor] - y) ** 2
            if d < best:
                best = d
                current = neighbor
                improved = True
    return current


#: Frontier size below which a wave is walked one candidate at a time:
#: under it the fixed cost of a wave's ~100 numpy calls exceeds the
#: per-candidate cost of the loop.  Set from the sweep in
#: ``benchmarks/bench_columnar.py`` (docs/BENCHMARKS.md, "Wave threshold").
_WAVE_MIN = 48


def voronoi_area_query(
    index: SpatialIndex,
    backend: DelaunayBackend,
    store: "PointStore",
    area: QueryRegion,
    *,
    seed_position: Optional[Point] = None,
    contains: Callable[[QueryRegion, Point], bool] | None = None,
    deleted: Optional[Dict[int, int]] = None,
) -> QueryRecord:
    """Run Algorithm 1.

    Parameters
    ----------
    index:
        Spatial index used **only** for the seed nearest-neighbour lookup
        (the paper deliberately uses the same R-tree as the baseline).
    backend:
        Voronoi-neighbour provider; it must have been built over the rows
        of ``store``.  The expansion reads its CSR graph
        (:meth:`~repro.delaunay.backends.DelaunayBackend.neighbor_csr`);
        the tombstone seed correction reads the same graph as a table
        (:meth:`~repro.delaunay.backends.DelaunayBackend.neighbor_table`).
    store:
        The database's columnar :class:`~repro.core.store.PointStore`;
        the index's item ids must be its row ids, as they are inside
        :class:`~repro.core.database.SpatialDatabase`.
    area:
        The query region ``A``.
    seed_position:
        Override for the arbitrary interior position ``pA`` (defaults to
        :func:`repro.geometry.region.interior_seed_position`).
    contains:
        Override for the refinement predicate (test hook, candidate
        tracing in :mod:`repro.viz.figures`); called as
        ``contains(area, point)`` exactly once per validated candidate.
        Defaults to the region's own exact test.
    deleted:
        The store's tombstone map (:attr:`PointStore.deleted_rows`), or
        ``None``/empty when nothing was ever deleted.  Tombstoned rows
        stay in the Delaunay graph as *transit* vertices: the expansion
        traverses through them (the paper's coverage argument holds over
        the superset point set) but they are filtered from the result,
        and the seed — which the live-only spatial index produced — is
        first corrected to the graph nearest neighbour
        (:func:`graph_nearest`).

    Returns
    -------
    QueryRecord
        Result ids (ascending), with ``method="voronoi"`` stats.

    Notes
    -----
    If the seed's nearest neighbour is not an internal point (possible when
    the area contains *no* database points at all, or the NN sits just
    outside the boundary), the expansion still proceeds from it using the
    external-point rule, and correctly returns the internal points (or an
    empty result).

    The expansion advances one BFS *wave* at a time.  A generation of the
    frontier of :data:`_WAVE_MIN` rows or more is processed as arrays:

    1. **refine** — one ``contains_many`` kernel call over the gathered
       coordinates splits the wave into internal and external members;
    2. **gather** — one CSR gather lists every member's adjacency row as
       (source, neighbour) pairs;
    3. **internal rule** — every unvisited neighbour of an internal
       member joins the next wave;
    4. **shell rule** — the pairs of external members whose neighbour is
       still unvisited are segments ``p -> pn``; one
       ``crosses_boundary_many`` kernel call admits the neighbours whose
       segment meets the area.

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
    stats = QueryStats(method="voronoi")
    nodes_before = index.stats.node_accesses

    started = time.perf_counter()
    position = seed_position
    if position is None:
        from repro.geometry.region import interior_seed_position

        position = interior_seed_position(area)
    seed_entry = index.nearest_neighbor(position)
    if seed_entry is None:
        stats.time_ms = (time.perf_counter() - started) * 1000.0
        return QueryRecord(ids=[], stats=stats)
    seed_id = seed_entry[1]
    xs = store.xs
    ys = store.ys
    indptr, indices = backend.neighbor_csr()
    if deleted:
        # The seed came from the live-only spatial index; with tombstones
        # in the graph it may not own the Voronoi cell containing pA —
        # correct it before expanding.
        seed_id = graph_nearest(
            backend.neighbor_table(), store, seed_id, position.x, position.y
        )

    contains_many, crosses_many = region_kernels(area, contains)
    refine = area.contains_point if contains is None else partial(contains, area)
    crosses = area.crosses_boundary_xy
    dead = store.dead_mask if deleted else None
    tombstoned = deleted if deleted else ()
    # One visited set, two views: bytes for the loop, bools for the arrays.
    flags = bytearray(len(store))
    visited = np.frombuffer(flags, dtype=np.bool_)
    flags[seed_id] = 1
    slot = np.empty(len(store), dtype=ID_DTYPE)  # workspace of the dedupe below
    x_of, y_of = memoryview(xs), memoryview(ys)
    row_start, row_data = memoryview(indptr), memoryview(indices)
    wave = np.array([seed_id], dtype=ID_DTYPE)
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
                    # ``current`` is outside the closed area, so the
                    # paper's Intersects(line(p, pn), A) reduces to a
                    # boundary-crossing test (a segment starting outside
                    # meets the region only through its boundary).
                    redundant += 1
                    for neighbor in row:
                        if not flags[neighbor]:
                            segment_tests += 1
                            if crosses(cx, cy, x_of[neighbor], y_of[neighbor]):
                                flags[neighbor] = 1
                                push(neighbor)
            candidates += len(next_wave)
            wave = np.array(next_wave, dtype=ID_DTYPE)
            continue
        rows = wave.astype(np.intp)  # one widening for the four gathers
        inside = contains_many(xs[rows], ys[rows])
        internal = wave[inside]
        if internal.shape[0]:
            # Tombstones expand (transit vertices) but never report.
            result_arrays.append(
                internal if dead is None else internal[~dead[internal]]
            )
        redundant += wave.shape[0] - internal.shape[0]
        # Every member's adjacency row in one gather: pair j is
        # (wave[owner[j]], neighbor[j]).
        starts = indptr[rows]
        counts = indptr[rows + 1] - starts
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
            crossing = crosses_many(
                xs[source], ys[source], xs[target], ys[target]
            )
            target = target[crossing]
            visited[target] = True
            admitted = np.concatenate((admitted, target))
        # Two members may admit the same neighbour: keep one copy of each
        # (whichever write to its slot lands last) without sorting.
        order = np.arange(admitted.shape[0], dtype=ID_DTYPE)
        slot[admitted] = order
        wave = admitted[slot[admitted] == order]
        candidates += wave.shape[0]

    result_arrays.append(np.array(results, dtype=ID_DTYPE))
    ids = np.sort(np.concatenate(result_arrays))
    stats.time_ms = (time.perf_counter() - started) * 1000.0
    stats.candidates = candidates
    stats.validations = validations
    stats.redundant_validations = redundant
    stats.segment_tests = segment_tests
    stats.index_node_accesses = index.stats.node_accesses - nodes_before
    stats.result_size = ids.shape[0]
    return QueryRecord(ids, stats)
