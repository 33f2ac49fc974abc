"""The paper's primary contribution: area queries over a spatial database.

Two interchangeable implementations of "find all points inside polygon A":

* :func:`~repro.core.traditional_query.traditional_area_query` — the
  filter–refine baseline (Fig. 1a): window query with the polygon's MBR on a
  spatial index, then exact point-in-polygon refinement of every candidate.
* :func:`~repro.core.voronoi_query.voronoi_area_query` — Algorithm 1
  (Fig. 1b): seed with a nearest-neighbour lookup, then breadth-first
  expansion over Voronoi neighbours with boundary-crossing checks.

Both are wrapped by :class:`~repro.core.database.SpatialDatabase`, the
user-facing entry point that owns the point table (the columnar
:class:`~repro.core.store.PointStore`), the R-tree, and the Voronoi
neighbour backend, and reports per-query
:class:`~repro.core.stats.QueryStats`.  Both query functions take the
store and run their refinement over its coordinate columns.
"""

from repro.core.database import SpatialDatabase
from repro.core.exceptions import (
    EmptyDatabaseError,
    InvalidQueryAreaError,
    ReproError,
)
from repro.core.stats import QueryRecord, QueryStats
from repro.core.store import PointStore, PointsView
from repro.core.traditional_query import traditional_area_query
from repro.core.voronoi_query import voronoi_area_query

__all__ = [
    "SpatialDatabase",
    "PointStore",
    "PointsView",
    "QueryStats",
    "QueryRecord",
    "traditional_area_query",
    "voronoi_area_query",
    "ReproError",
    "EmptyDatabaseError",
    "InvalidQueryAreaError",
]
