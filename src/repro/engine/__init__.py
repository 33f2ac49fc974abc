"""Batch query engine and cost-based planner.

This package is the serving layer above :mod:`repro.core`: where ``core``
answers one query, ``engine`` answers *traffic*.

* :mod:`repro.engine.batch` — :func:`run_jobs`, the job runner under
  every read surface (validation, intra-batch deduplication, composite
  decomposition, each remaining job executed once through a caller's
  leaf executor), and :class:`BatchQueryEngine`, which runs it over one
  database with the result cache and the planner.
* :mod:`repro.engine.planner` — :class:`QueryPlanner`: the paper's I/O
  cost model (validations as record fetches, node accesses as page reads)
  used to pick the cheapest execution method for **every** query kind,
  with ``explain_spec()`` exposing predicted vs measured costs.
* :mod:`repro.engine.cache` — :class:`ResultCache`: an LRU result cache
  keyed by the (hashable) spec objects themselves, version-stamped so
  inserts invalidate.
* :mod:`repro.engine.order` — the Hilbert curve the cluster's shard map
  and the Delaunay bulk build order by.

The usual entry points are
:meth:`repro.core.database.SpatialDatabase.query` and
:meth:`~repro.core.database.SpatialDatabase.query_batch`, which construct
and reuse one engine per database.
"""

from repro.engine.batch import (
    BatchQueryEngine,
    BatchResult,
    BatchStats,
)
from repro.engine.cache import CacheStats, ResultCache
from repro.engine.order import hilbert_index, hilbert_keys
from repro.engine.planner import (
    CostEstimate,
    CostModel,
    PlanExplanation,
    QueryPlanner,
)

__all__ = [
    "BatchQueryEngine",
    "BatchResult",
    "BatchStats",
    "ResultCache",
    "CacheStats",
    "hilbert_index",
    "hilbert_keys",
    "QueryPlanner",
    "CostModel",
    "CostEstimate",
    "PlanExplanation",
]
