"""Spec execution: one code path shared by every query surface.

:func:`execute_spec` turns a declarative :class:`~repro.query.spec.Query`
into an eager :class:`~repro.core.stats.QueryRecord` record by
dispatching on the spec's kind and (planner-resolved) method.  The lazy
:class:`~repro.query.result.QueryResult`, the batch engine and the
planner's ``EXPLAIN ANALYZE`` all call into this module, so results are
identical no matter which surface issued the query.

Composite specs (:class:`~repro.query.spec.UnionQuery` /
``Intersection`` / ``Difference``) execute by **decomposition**: the
batch engine answers all leaves of one composite as one batch (each
distinct leaf runs once) and the sorted leaf id arrays merge with set
semantics (:func:`repro.query.merge.merge_ids`).  :func:`stream_spec`
is the iterator form of :func:`execute_spec`: a :class:`KnnQuery`
yields its distance ranking on demand; every other kind executes once
and iterates the eager record.

Common options are applied uniformly by :func:`finalize_record`:
``predicate`` filters the already-refined points (it never sees a point
outside the query geometry), ``limit`` truncates in the result order of
the kind (ascending row id for region kinds, nearest-first for point
kinds).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterator, List, Optional

import numpy as np

from repro.core.exceptions import EmptyDatabaseError, InvalidQueryAreaError
from repro.core.knn_query import incremental_nearest, voronoi_knn_query
from repro.core.stats import QueryRecord, QueryStats
from repro.core.traditional_query import traditional_area_query
from repro.core.voronoi_query import voronoi_area_query
from repro.geometry.polygon import Polygon
from repro.query.spec import (
    AreaQuery,
    CompositeQuery,
    KnnQuery,
    NearestQuery,
    Query,
    WindowQuery,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.database import SpatialDatabase


def _tombstones(database: "SpatialDatabase"):
    """The store's tombstone map, or ``None`` when nothing was deleted.

    Threaded into the Voronoi algorithms so deleted rows act as transit
    vertices (expanded through, filtered from results) — the spatial
    index forgets them physically, but the Delaunay graph cannot remap
    positional ids and keeps them forever.
    """
    return database.store.deleted_rows or None


def resolve_method(database: "SpatialDatabase", spec: Query) -> str:
    """The concrete execution method for ``spec`` on ``database``.

    An explicit ``spec.method`` is returned as-is (it was validated at
    spec construction); ``"auto"`` asks the database's cost-based planner
    (:meth:`repro.engine.planner.QueryPlanner.plan`).
    """
    if spec.method != "auto":
        return spec.method
    return database.engine.planner.plan(spec)


def execute_spec(
    database: "SpatialDatabase",
    spec: Query,
    *,
    method: Optional[str] = None,
) -> QueryRecord:
    """Execute ``spec`` and return the eager result record.

    Parameters
    ----------
    database:
        The target :class:`~repro.core.database.SpatialDatabase`.
    method:
        Override for the execution method (the planner's batch path and
        ``explain(execute=True)`` pass it explicitly); defaults to
        :func:`resolve_method`.

    Returns
    -------
    QueryRecord
        Ids plus :class:`~repro.core.stats.QueryStats` whose ``method``
        names the concrete method that ran.
    """
    if not isinstance(spec, Query):
        raise TypeError(f"not a query spec: {spec!r}")
    if method is None:
        method = resolve_method(database, spec)
    # Region kinds produce the raw geometric result and get the common
    # options applied here; point kinds weave predicate and limit into
    # their own expansion (a kNN must keep expanding until k rows *pass*
    # the filter), so finalize_record must NOT run again on top — the
    # predicate contract is one invocation per examined candidate.
    if isinstance(spec, AreaQuery):
        return finalize_record(
            database, spec, _execute_area(database, spec, method)
        )
    if isinstance(spec, WindowQuery):
        return finalize_record(
            database, spec, _execute_window(database, spec, method)
        )
    if isinstance(spec, KnnQuery):
        return _execute_knn(database, spec, method)
    if isinstance(spec, NearestQuery):
        return _execute_nearest(database, spec)
    if isinstance(spec, CompositeQuery):
        return _execute_composite(database, spec)
    raise TypeError(f"not a query spec: {spec!r}")


def finalize_record(
    database: "SpatialDatabase", spec: Query, record: QueryRecord
) -> QueryRecord:
    """Apply the spec's common options (``predicate``, ``limit``).

    Only for **raw region-kind records** (area/window — the geometric
    result before user-level options); point kinds weave both options
    into their own expansion and must not pass through here, so that a
    spec's predicate is invoked exactly once per examined candidate.
    The predicate is called once per id, in order.  Returns ``record``
    itself when the spec sets no predicate and no limit below the row
    count, else a new record over the kept ids that shares ``record``'s
    stats block (its ``result_size`` updated); the per-method counters
    are left as the underlying algorithm reported them (the predicate is
    a user-level filter, not part of the geometric work being measured).
    """
    ids = record.id_array
    if spec.predicate is not None:
        predicate = spec.predicate
        point = database.point
        ids = ids[
            np.fromiter(
                (bool(predicate(point(i))) for i in ids.tolist()),
                dtype=bool,
                count=ids.shape[0],
            )
        ]
    if spec.limit is not None and ids.shape[0] > spec.limit:
        # A copy, so the kept prefix does not pin the whole result.
        ids = ids[: spec.limit].copy()
    if ids is record.id_array:
        return record
    record.stats.result_size = ids.shape[0]
    return QueryRecord(ids, record.stats)


# -- per-kind execution -------------------------------------------------------


def _execute_area(
    database: "SpatialDatabase",
    spec: AreaQuery,
    method: str,
) -> QueryRecord:
    """Run an area query with ``method``."""
    if not len(database):
        raise EmptyDatabaseError("area query on an empty database")
    if spec.region.area <= 0.0:
        raise InvalidQueryAreaError("query area has zero area")
    if method == "traditional":
        return traditional_area_query(
            database.index, database.store, spec.region
        )
    return voronoi_area_query(
        database.index,
        database.backend,
        database.store,
        spec.region,
        deleted=_tombstones(database),
    )


def _execute_window(
    database: "SpatialDatabase",
    spec: WindowQuery,
    method: str,
) -> QueryRecord:
    """Run a window query natively on the index or as a Voronoi expansion."""
    if method == "voronoi":
        if not len(database):
            raise EmptyDatabaseError("voronoi window query on an empty database")
        if spec.rect.area <= 0.0:
            raise InvalidQueryAreaError(
                "voronoi execution needs a positive-area window; "
                "degenerate rectangles route to method='index'"
            )
        return voronoi_area_query(
            database.index,
            database.backend,
            database.store,
            Polygon.from_rect(spec.rect),
            deleted=_tombstones(database),
        )
    stats = QueryStats(method="index")
    index = database.index
    nodes_before = index.stats.node_accesses
    started = time.perf_counter()
    id_array = index.window_ids_array(spec.rect)
    candidates = int(id_array.shape[0])
    ids = np.sort(id_array)
    stats.time_ms = (time.perf_counter() - started) * 1000.0
    stats.candidates = candidates
    stats.index_node_accesses = index.stats.node_accesses - nodes_before
    stats.result_size = ids.shape[0]
    return QueryRecord(ids, stats)


def _effective_k(spec: KnnQuery) -> Optional[int]:
    """The row budget of a kNN spec (``k`` capped by ``limit``).

    ``None`` means *unbounded*: the spec streams (``k=None``) and no
    ``limit`` caps it either.
    """
    if spec.k is None:
        return spec.limit
    if spec.limit is not None:
        return min(spec.k, spec.limit)
    return spec.k


def _execute_knn(
    database: "SpatialDatabase",
    spec: KnnQuery,
    method: str,
) -> QueryRecord:
    """Run a kNN query via the index or the Voronoi neighbour graph.

    An unbounded spec (``k=None``, no ``limit``) materialises the full
    distance ranking here — the streaming consumption path is
    :func:`stream_spec`, which never calls this.
    """
    k = _effective_k(spec)
    if k is None:
        k = len(database)
    if k == 0 or not len(database):
        return QueryRecord(ids=[], stats=QueryStats(method=method))
    if method == "voronoi":
        return voronoi_knn_query(
            database.index,
            database.backend,
            database.store,
            spec.point,
            k,
            deleted=_tombstones(database),
            predicate=spec.predicate,
        )
    return _knn_index(database, spec, k)


def _knn_index(
    database: "SpatialDatabase", spec: KnnQuery, k: int
) -> QueryRecord:
    """Best-first index kNN; predicates retry with a doubled ``k``.

    The index search takes ``k`` up front, so a predicate that rejects
    candidates may leave the result short; doubling until the result is
    full (or the database is exhausted) keeps the contract "the ``k``
    nearest points satisfying the predicate".  The result prefix of a
    larger search equals the smaller search (deterministic tie-breaks),
    so each doubling round examines — and hands to the predicate — only
    the candidates beyond the previous round: one invocation per
    examined candidate, even across retries.
    """
    stats = QueryStats(method="index")
    index = database.index
    predicate = spec.predicate
    nodes_before = index.stats.node_accesses
    started = time.perf_counter()
    fetch = k
    n = len(database)
    ids: List[int] = []
    examined = 0
    while True:
        entries = index.k_nearest_neighbors(spec.point, fetch)
        for point, item_id in entries[examined:]:
            if len(ids) >= k:
                break
            if predicate is None or predicate(point):
                ids.append(item_id)
        examined = max(examined, len(entries))
        stats.candidates = examined
        if len(ids) >= k or fetch >= n:
            break
        fetch = min(n, fetch * 2)
    stats.time_ms = (time.perf_counter() - started) * 1000.0
    stats.index_node_accesses = index.stats.node_accesses - nodes_before
    stats.result_size = len(ids)
    return QueryRecord(ids=ids, stats=stats)


def _execute_nearest(
    database: "SpatialDatabase", spec: NearestQuery
) -> QueryRecord:
    """Run a 1-NN query (index best-first; predicate via doubling kNN)."""
    stats = QueryStats(method="index")
    if not len(database) or spec.limit == 0:
        return QueryRecord(ids=[], stats=stats)
    if spec.predicate is not None:
        knn = KnnQuery(
            spec.point, 1, method="index", predicate=spec.predicate
        )
        return _knn_index(database, knn, 1)
    index = database.index
    nodes_before = index.stats.node_accesses
    started = time.perf_counter()
    entry = index.nearest_neighbor(spec.point)
    stats.time_ms = (time.perf_counter() - started) * 1000.0
    stats.index_node_accesses = index.stats.node_accesses - nodes_before
    ids = [entry[1]] if entry is not None else []
    stats.candidates = len(ids)
    stats.result_size = len(ids)
    return QueryRecord(ids=ids, stats=stats)


# -- composite execution ------------------------------------------------------


def _execute_composite(
    database: "SpatialDatabase", spec: CompositeQuery
) -> QueryRecord:
    """Eagerly answer a composite by batch-decomposing its leaves.

    Delegates to the batch engine so the leaves of the composite are
    executed as one heterogeneous batch, in which duplicate leaves
    execute once.
    The cross-batch LRU cache is not consulted (single-spec execution
    through :func:`execute_spec` never is, for any kind).
    """
    return database.engine.run_specs([spec], use_cache=False).results[0]


# -- streaming consumption ----------------------------------------------------


def stream_spec(
    database: "SpatialDatabase", spec: Query
) -> Iterator[int]:
    """Yield the result row ids of ``spec`` in result order.

    The iterator form of :func:`execute_spec`, used by
    :meth:`repro.query.result.QueryResult.stream` and ``chunks``.  A
    :class:`KnnQuery` is produced incrementally
    (:func:`repro.core.knn_query.incremental_nearest`) — stopping after
    ``n`` rows examines only ~``n`` candidates.  Every other kind,
    composites included, executes once and iterates its record; ids are
    identical to :func:`execute_spec` in every case.
    """
    if isinstance(spec, KnnQuery):
        return _stream_knn(database, spec)
    return iter(execute_spec(database, spec))


def _stream_knn(
    database: "SpatialDatabase", spec: KnnQuery
) -> Iterator[int]:
    """Stream a kNN ranking lazily over the Voronoi neighbour graph.

    Always runs the incremental expansion regardless of ``spec.method``
    — the method field governs *eager* execution; a best-first index
    descent has no incremental form in this codebase.  The yielded order
    (distance, ties by row id) matches both eager methods.

    The generator body runs on the first ``next()`` — at the server this
    is synchronous with stream admission — and captures an MVCC
    :meth:`~repro.core.store.PointStore.snapshot` right there, so a
    stream that stays suspended across later writes keeps yielding
    exactly the admission-time version: rows inserted later never
    appear, rows deleted later still do (see
    :func:`repro.core.knn_query.incremental_nearest`).
    """
    if not len(database):
        return
    k = _effective_k(spec)
    if k == 0:
        return
    predicate = spec.predicate
    point_of = database.point
    produced = 0
    snapshot = database.store.snapshot()
    for row_id in incremental_nearest(
        database.index,
        database.backend,
        database.store,
        spec.point,
        deleted=_tombstones(database),
        snapshot=snapshot,
    ):
        if predicate is not None and not predicate(point_of(row_id)):
            continue
        yield row_id
        produced += 1
        if k is not None and produced >= k:
            return
