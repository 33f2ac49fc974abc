"""Traditional filter–refine area query (the paper's baseline, Fig. 1a).

Two steps:

1. **Filter** — a window query on the spatial index with the query
   polygon's MBR.  Cheap (no exact geometry), but returns every point in
   the MBR, so for an irregular polygon most of the candidates are outside
   the polygon itself.
2. **Refine** — an exact point-in-polygon test on each candidate.  This is
   the expensive stage the paper targets: every candidate outside the
   polygon is a *redundant validation*.

The expected redundancy is ``data_size * (MBR_area - polygon_area)`` /
``space_area`` — proportional to the *area difference*, which is what the
experiments confirm (Figs. 5 and 7).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.geometry.kernels import region_kernels
from repro.geometry.point import Point
from repro.geometry.region import QueryRegion
from repro.index.base import SpatialIndex
from repro.core.stats import QueryRecord, QueryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import PointStore


def traditional_area_query(
    index: SpatialIndex,
    store: "PointStore",
    area: QueryRegion,
    *,
    contains: Callable[[QueryRegion, Point], bool] | None = None,
) -> QueryRecord:
    """Run the filter–refine area query on ``index``.

    The filter is one bulk id probe
    (:meth:`~repro.index.base.SpatialIndex.window_ids_array`) and the
    refinement one ``contains_many`` call over coordinates gathered from
    the store's columns (:func:`repro.geometry.kernels.region_kernels`:
    the region's array kernel, or its scalar test mapped over the
    candidates for a region that has none).

    Parameters
    ----------
    index:
        Any :class:`~repro.index.base.SpatialIndex` holding the database
        points (the paper uses an R-tree).
    store:
        The database's columnar :class:`~repro.core.store.PointStore`;
        the index's item ids must be its row ids, as they are inside
        :class:`~repro.core.database.SpatialDatabase`.
    area:
        The query region ``A`` (any :class:`QueryRegion`, e.g. a
        :class:`~repro.geometry.polygon.Polygon` or
        :class:`~repro.geometry.circle.Circle`).
    contains:
        Override for the refinement predicate (test hook, candidate
        tracing in :mod:`repro.viz.figures`); called as
        ``contains(area, point)`` exactly once per candidate.  Defaults
        to the region's own exact test.

    Returns
    -------
    QueryRecord
        Result ids (ascending) and a :class:`QueryStats` with
        ``method="traditional"``.
    """
    contains_many, _ = region_kernels(area, contains)
    stats = QueryStats(method="traditional")
    nodes_before = index.stats.node_accesses

    started = time.perf_counter()
    candidate_ids = index.window_ids_array(area.mbr)
    count = int(candidate_ids.shape[0])
    stats.candidates = count
    stats.validations = count
    if count:
        # numpy gathers through intp indices: one widened copy serves both
        # columns, where each int32 gather would widen them again, slower
        rows = candidate_ids.astype(np.intp)
        mask = contains_many(store.xs[rows], store.ys[rows])
        results = np.sort(candidate_ids[mask])
    else:
        results = candidate_ids
    stats.time_ms = (time.perf_counter() - started) * 1000.0

    stats.redundant_validations = count - results.shape[0]
    stats.index_node_accesses = index.stats.node_accesses - nodes_before
    stats.result_size = results.shape[0]
    return QueryRecord(results, stats)
