"""Voronoi-diagram-based k-nearest-neighbour queries.

The paper's related work leans on Sharifzadeh & Shahabi's VoR-tree (its
reference [8]): once a database maintains Voronoi adjacency, other spatial
queries besides area queries can ride the same structure.  This module
implements the classical incremental kNN over the Voronoi graph:

* **Theorem (Okabe et al., Property 2 generalised).**  The (i+1)-th nearest
  neighbour of a query position q is a Voronoi neighbour of one of the
  first i nearest neighbours.

So the algorithm seeds with the 1-NN (one index lookup, exactly like
Algorithm 1) and then repeatedly pops the closest unvisited point from a
frontier heap that only ever contains Voronoi neighbours of already-
confirmed results.  Each confirmation touches ~6 neighbours, so a kNN query
costs O(k log k) heap work after the seed — independent of the database
size, versus the O(log n + k) node inspections of a best-first R-tree
descent (the baseline we compare against in the bench).

Each confirmation's neighbour distances are computed as one batched
kernel call over the store's coordinate columns
(:func:`repro.geometry.kernels.squared_distances`), whose values are
bitwise identical to ``Point.squared_distance_to`` (same IEEE operations
in the same order) — the ranking is the one a per-point loop would
produce.
"""

from __future__ import annotations

import heapq
import time
from itertools import islice
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.geometry.kernels import squared_distances
from repro.geometry.point import Point
from repro.index.base import ID_DTYPE, SpatialIndex
from repro.delaunay.backends import DelaunayBackend
from repro.core.stats import QueryRecord, QueryStats
from repro.core.voronoi_query import graph_nearest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import PointStore, StoreSnapshot


def _batched_expand(store: "PointStore", query: Point):
    """A closure pushing one confirmation's frontier additions, batched.

    Returns ``expand(current, visited, frontier, neighbor_table) ->
    fresh-count`` computing every unvisited neighbour's squared distance
    in one :func:`~repro.geometry.kernels.squared_distances` call.
    """
    xs = store.xs
    ys = store.ys
    qx = query.x
    qy = query.y

    def expand(current, visited, frontier, neighbor_table) -> int:
        fresh = [
            neighbor
            for neighbor in neighbor_table[current]
            if not visited[neighbor]
        ]
        if not fresh:
            return 0
        ids = np.fromiter(fresh, dtype=np.intp, count=len(fresh))
        distances = squared_distances(xs[ids], ys[ids], qx, qy).tolist()
        for neighbor, distance in zip(fresh, distances):
            visited[neighbor] = 1
            heapq.heappush(frontier, (distance, neighbor))
        return len(fresh)

    return expand


def voronoi_knn_query(
    index: SpatialIndex,
    backend: DelaunayBackend,
    store: "PointStore",
    query: Point,
    k: int,
    *,
    deleted: Optional[Dict[int, int]] = None,
    predicate: Optional[Callable[[Point], bool]] = None,
) -> QueryRecord:
    """The ``k`` nearest rows to ``query``, nearest first.

    Parameters mirror :func:`repro.core.voronoi_query.voronoi_area_query`:
    the spatial index supplies only the seed 1-NN; all further expansion is
    over the Voronoi neighbour graph.  Coordinates are read from
    ``store``'s columns, over whose rows ``backend`` was built.
    ``deleted`` (the store's tombstone map) makes tombstones expand
    without counting toward ``k`` (see :func:`incremental_nearest`).
    ``predicate``, when given, is called once per row the walk produces,
    in distance order, until ``k`` rows pass it.

    The eager form of :func:`incremental_nearest`: its first ``k``
    (passing) rows.  Returns a :class:`QueryRecord` whose ``ids`` are
    ordered by distance (ties broken by row id) — note this differs from
    the area query, whose ids are sorted ascending.
    ``stats.candidates`` counts every point whose distance was
    evaluated.
    """
    stats = QueryStats(method="voronoi")
    started = time.perf_counter()
    nodes_before = index.stats.node_accesses
    rows = incremental_nearest(
        index, backend, store, query, deleted=deleted, stats=stats
    )
    if predicate is not None:
        point = store.point
        rows = (row for row in rows if predicate(point(row)))
    ids = np.fromiter(islice(rows, max(k, 0)), dtype=ID_DTYPE)
    stats.result_size = ids.shape[0]
    stats.index_node_accesses = index.stats.node_accesses - nodes_before
    stats.time_ms = (time.perf_counter() - started) * 1000.0
    return QueryRecord(ids, stats)


def incremental_nearest(
    index: SpatialIndex,
    backend: DelaunayBackend,
    store: "PointStore",
    query: Point,
    *,
    deleted: Optional[Dict[int, int]] = None,
    snapshot: Optional["StoreSnapshot"] = None,
    stats: Optional[QueryStats] = None,
):
    """Generator yielding rows in increasing distance order, lazily.

    The one Voronoi kNN walk: callers can stop at any rank without
    choosing ``k`` up front (distance browsing), and
    :func:`voronoi_knn_query` is its first ``k`` rows.  A row's
    neighbours join the frontier before the row is yielded, so a
    consumer that stops after ``n`` rows has paid for exactly the
    expansions of those rows (and of the tombstones popped among them).
    ``stats``, when given, has every distance evaluation added to its
    ``candidates``.

    ``deleted`` (the store's tombstone map) filters tombstoned rows from
    the yields while still expanding through them — the walk runs over
    the superset graph, where Okabe's theorem holds — after correcting
    the live-index seed to the graph nearest neighbour (see
    :func:`repro.core.voronoi_query.graph_nearest`); for synchronous
    consumers that drain the generator before the next mutation.

    ``snapshot`` (a :class:`~repro.core.store.StoreSnapshot`) gives the
    generator full MVCC isolation for consumers that stay suspended
    across mutations (the server's chunked streams): the Delaunay
    adjacency table is frozen by its prefix slice
    (:class:`~repro.delaunay.backends.CsrRows`: O(1) over a CSR pair no
    write touches, a copy of the row bounds over rows that inserts only
    append to) — which also bounds the walk to admission-time row ids —
    and yields
    are filtered by :meth:`~repro.core.store.StoreSnapshot.visible`, so
    rows deleted after admission still appear and rows inserted after
    admission never do.  Distances read rows below that bound from the
    store's append-only columns, which later writes never rewrite.
    """
    if snapshot is not None:
        bound = snapshot.size
        if bound == 0:
            return
        # Freeze the admission-time graph: the prefix keeps reading the
        # rows as they are now while add_point rewrites them, and its
        # length excludes later inserts.
        neighbor_table = backend.neighbor_table()[:bound]
        visible = snapshot.visible
    else:
        bound = len(store)
        if bound == 0:
            return
        neighbor_table = backend.neighbor_table()
        visible = None
    seed_entry = index.nearest_neighbor(query)
    assert seed_entry is not None
    _, seed_id = seed_entry
    if seed_id >= bound or deleted:
        # The live index may answer a row beyond the frozen horizon, or
        # (with tombstones) one that does not own the query's Voronoi
        # cell over the full graph point set — re-seed with the walk.
        seed_id = graph_nearest(
            neighbor_table, store, min(seed_id, bound - 1), query.x, query.y
        )
    tombstoned = deleted if deleted else ()
    if stats is None:
        stats = QueryStats()

    visited = bytearray(bound)
    visited[seed_id] = 1
    frontier: List[Tuple[float, int]] = [
        (Point(*store.coords(seed_id)).squared_distance_to(query), seed_id)
    ]
    stats.candidates += 1
    expand = _batched_expand(store, query)
    while frontier:
        _, current = heapq.heappop(frontier)
        stats.candidates += expand(current, visited, frontier, neighbor_table)
        if visible is not None:
            if visible(current):
                yield current
        elif current not in tombstoned:
            yield current
