"""Batch query engine and cost-based planner.

This package is the serving layer above :mod:`repro.core`: where ``core``
answers one query, ``engine`` answers *traffic*.

* :mod:`repro.engine.batch` — :class:`BatchQueryEngine`: Hilbert-ordered
  execution of heterogeneous spec batches (see :mod:`repro.query`), with
  a shared window-query frontier (traditional/index strategies), Voronoi
  seed reuse via greedy graph walks (area *and* kNN executions), and
  intra-batch deduplication.
* :mod:`repro.engine.planner` — :class:`QueryPlanner`: the paper's I/O
  cost model (validations as record fetches, node accesses as page reads)
  used to pick the cheapest execution method for **every** query kind,
  with ``explain_spec()`` exposing predicted vs measured costs.
* :mod:`repro.engine.cache` — :class:`ResultCache`: an LRU result cache
  keyed by the (hashable) spec objects themselves, version-stamped so
  inserts invalidate.
* :mod:`repro.engine.order` — Hilbert-curve locality ordering shared by
  all of the above.

The usual entry points are
:meth:`repro.core.database.SpatialDatabase.query` and
:meth:`~repro.core.database.SpatialDatabase.query_batch`, which construct
and reuse one engine per database.
"""

from repro.engine.batch import (
    BatchQueryEngine,
    BatchResult,
    BatchStats,
    greedy_seed_walk,
)
from repro.engine.cache import CacheStats, ResultCache
from repro.engine.order import hilbert_index, hilbert_keys, locality_order
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
    "greedy_seed_walk",
    "ResultCache",
    "CacheStats",
    "hilbert_index",
    "hilbert_keys",
    "locality_order",
    "QueryPlanner",
    "CostModel",
    "CostEstimate",
    "PlanExplanation",
]
