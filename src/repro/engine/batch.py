"""The job runner under every read surface, and the engine around it.

The paper answers each area query on its own — one seed, then
Algorithm 1's expansion — and so does :func:`run_jobs`: every distinct
job of a batch runs once through a caller-supplied ``execute(job)``.
The runner owns the rest: validation of every spec up front
(:func:`repro.query.executor.validate_spec`), intra-batch dedup, and
composite *decomposition* — the leaves of
:class:`~repro.query.spec.UnionQuery` / ``Intersection`` /
``Difference`` join the job pool beside the plain specs, so a repeated
leaf executes once, and each composite's leaf id arrays then merge with
set semantics (:func:`repro.query.merge.merge_ids`) before its own
options apply (:func:`repro.query.executor.finalize_record`).  It reads
only its source's live-row count and ``point``, so the cluster
coordinator runs it too, with its region scatter and kNN merge as the
leaf executor.

:class:`BatchQueryEngine` runs it over one database with
:func:`repro.query.executor.execute_spec` and the planner's method per
job, and adds its own state: the LRU
:class:`~repro.engine.cache.ResultCache` keyed by the spec objects
(:meth:`repro.query.spec.Query.cache_key`), probed for submitted specs
and composite leaves and filled with every record a batch computed, and
the batch/lifetime accounting.  Results come in submission order and
are id-identical to executing each spec alone (both area methods return
the same id sets — the paper's theorem).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.core.stats import QueryRecord, QueryStats
from repro.engine.cache import DEFAULT_CAPACITY, ResultCache
from repro.engine.planner import QueryPlanner
from repro.query.executor import (
    execute_spec,
    finalize_record,
    resolve_method,
    validate_spec,
)
from repro.query.merge import merge_ids
from repro.query.spec import CompositeQuery, Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.database import SpatialDatabase


@dataclass
class BatchStats:
    """Work accounting for one :meth:`BatchQueryEngine.run_specs`."""

    total_queries: int = 0
    #: served from the cross-batch LRU result cache
    cache_hits: int = 0
    #: duplicates of an earlier spec in the *same* batch (computed once)
    duplicate_hits: int = 0
    #: specs actually executed against the database
    executed: int = 0
    #: executed specs per concrete method (planner decisions under ``auto``)
    method_counts: Dict[str, int] = field(default_factory=dict)
    #: executed specs per query kind (area/window/knn/nearest)
    kind_counts: Dict[str, int] = field(default_factory=dict)
    #: composite specs answered by decomposition (not cache/dedup hits)
    composite_queries: int = 0
    #: leaf specs contributed to the job pool by composite decomposition
    composite_leaves: int = 0
    #: leaf jobs merged with an identical job already in the pool
    leaf_duplicate_hits: int = 0
    #: composite leaves served from the cross-batch LRU result cache
    leaf_cache_hits: int = 0
    #: wall-clock time of the whole batch in milliseconds
    time_ms: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready mapping of every counter (wire/stats frames)."""
        return dict(asdict(self))


#: Engine counters of the retired shared window frontier and seed-walk
#: reuse, still emitted by :meth:`EngineTotals.as_dict` (always 0).
_RETIRED_SHARING_KEYS = (
    "shared_window_groups",
    "shared_window_queries",
    "seed_walk_reuses",
    "seed_index_lookups",
)


@dataclass
class EngineTotals:
    """Lifetime job-pool accounting across every batch an engine ran.

    The per-batch :class:`BatchStats` is reset on every
    :meth:`BatchQueryEngine.run_specs` call; external admission layers —
    the query server's cross-client coalescer in
    :mod:`repro.server.coalescer` — need *cumulative* counters to report
    cache/dedup behaviour over a whole serving session, so the
    engine absorbs each batch's stats into this running total.
    """

    #: number of :meth:`BatchQueryEngine.run_specs` calls absorbed
    batches: int = 0
    #: total specs submitted across all batches
    total_queries: int = 0
    #: batches holding two or more specs (the ones that could share work)
    coalesced_batches: int = 0
    #: largest single batch absorbed
    max_batch_size: int = 0
    cache_hits: int = 0
    duplicate_hits: int = 0
    executed: int = 0
    composite_queries: int = 0
    composite_leaves: int = 0
    leaf_duplicate_hits: int = 0
    leaf_cache_hits: int = 0
    #: summed wall-clock execution time of all batches, milliseconds
    time_ms: float = 0.0

    def absorb(self, stats: BatchStats) -> None:
        """Accumulate one finished batch's :class:`BatchStats`."""
        self.batches += 1
        self.total_queries += stats.total_queries
        if stats.total_queries >= 2:
            self.coalesced_batches += 1
        self.max_batch_size = max(self.max_batch_size, stats.total_queries)
        self.cache_hits += stats.cache_hits
        self.duplicate_hits += stats.duplicate_hits
        self.executed += stats.executed
        self.composite_queries += stats.composite_queries
        self.composite_leaves += stats.composite_leaves
        self.leaf_duplicate_hits += stats.leaf_duplicate_hits
        self.leaf_cache_hits += stats.leaf_cache_hits
        self.time_ms += stats.time_ms

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready mapping of every counter (the ``stats`` frame)."""
        data = asdict(self)
        data["time_ms"] = round(float(data["time_ms"]), 3)
        # The cross-query sharing these counted is gone, but the v1 stats
        # frame documents the keys and perfbench/served.py indexes two of
        # them, so every served run would crash without them: they stay
        # on the wire as constant zeros.
        for key in _RETIRED_SHARING_KEYS:
            data[key] = 0
        return data


@dataclass
class BatchResult(Sequence[QueryRecord]):
    """Per-query records (submission order) plus batch-level accounting.

    Behaves as a sequence of :class:`~repro.core.stats.QueryRecord`
    (:meth:`SpatialDatabase.query_batch
    <repro.core.database.SpatialDatabase.query_batch>` wraps these
    records into lazy handles).
    """

    results: List[QueryRecord]
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, item):
        return self.results[item]

    def __iter__(self):
        return iter(self.results)


def run_jobs(
    source,
    specs: Sequence[Query],
    execute: Callable[[Query], QueryRecord],
    *,
    lookup: Optional[Callable[[Query], Optional[QueryRecord]]] = None,
    store: Optional[Callable[[Query, QueryRecord], None]] = None,
) -> BatchResult:
    """Answer every spec in ``specs``; records in submission order.

    ``execute(job)`` answers one plain (non-composite) spec with its own
    options applied; it runs once per distinct job.  ``source`` is read
    for its live-row count (validation) and ``point`` (composite
    options) only.  ``lookup(key)`` may serve a submitted spec or a
    composite leaf from a result cache before it becomes a job, and
    ``store(key, record)`` receives every cacheable record the batch
    computed, submitted specs first, then their jobs.

    The returned records are shared: duplicate submissions share one
    record object, and a leaf's record may also be a plain spec's.  The
    id arrays are read-only and ``.ids`` returns a fresh list; a stats
    block must be copied before it is edited.
    """
    specs = list(specs)
    for spec in specs:
        validate_spec(source, spec)

    started = time.perf_counter()
    stats = BatchStats(total_queries=len(specs))
    results: List[Optional[QueryRecord]] = [None] * len(specs)

    # 1. Lookup + intra-batch dedup, both keyed by the
    #    (method/projection-normalised) spec objects themselves.
    pending: List[int] = []
    aliases: Dict[int, List[int]] = {}
    first_seen: Dict[Query, int] = {}
    keys = [spec.cache_key() for spec in specs]
    for i, key in enumerate(keys):
        if key is None:  # uncacheable spec (predicate): always execute
            aliases[i] = []
            pending.append(i)
            continue
        if lookup is not None:
            cached = lookup(key)
            if cached is not None:
                results[i] = cached
                stats.cache_hits += 1
                continue
        owner = first_seen.get(key)
        if owner is not None:
            aliases[owner].append(i)
            stats.duplicate_hits += 1
            continue
        first_seen[key] = i
        aliases[i] = []
        pending.append(i)
    stats.executed = len(pending)

    # 2. Decompose composites into executable leaf *jobs*.  A plain
    #    spec is its own single job; a composite contributes its
    #    (recursively flattened) leaves.  Identical jobs — a leaf repeated
    #    across composites, or equal to a plain pending spec — merge
    #    into one, and composite leaves may be served by ``lookup``.
    jobs: List[Query] = []
    job_records: List[Optional[QueryRecord]] = []
    job_keys: List[Optional[Query]] = []
    seen_jobs: Dict[Query, int] = {}
    trees: Dict[int, object] = {}

    def add_job(leaf: Query, from_composite: bool) -> int:
        key = leaf.cache_key()
        if key is not None:
            existing = seen_jobs.get(key)
            if existing is not None:
                stats.leaf_duplicate_hits += 1
                return existing
        job = len(jobs)
        jobs.append(leaf)
        job_keys.append(key)
        record = None
        if key is not None:
            seen_jobs[key] = job
            if from_composite and lookup is not None:
                record = lookup(key)
                if record is not None:
                    stats.leaf_cache_hits += 1
        job_records.append(record)
        return job

    def expand(spec: Query, from_composite: bool):
        if isinstance(spec, CompositeQuery):
            if from_composite is False:
                stats.composite_queries += 1
            return (
                spec,
                [expand(part, True) for part in spec.parts],
            )
        if from_composite:
            stats.composite_leaves += 1
        return add_job(spec, from_composite)

    for i in pending:
        trees[i] = expand(specs[i], False)

    # 3. Run every executable job once; ``execute`` applies each spec's
    #    own predicate/limit and names the concrete method that ran.
    for j, job in enumerate(jobs):
        if job_records[j] is not None:
            continue
        record = job_records[j] = execute(job)
        method = record.stats.method
        stats.method_counts[method] = stats.method_counts.get(method, 0) + 1
    for i in pending:
        kind = specs[i].kind
        stats.kind_counts[kind] = stats.kind_counts.get(kind, 0) + 1

    # 4. Assemble submitted specs from their jobs (set-merge for
    #    composites), fill duplicates, and hand every cacheable record
    #    to ``store`` — composite leaves too, so later batches (or later
    #    composites) reuse them.
    stored: set = set()
    for i in pending:
        record = _assemble(source, trees[i], job_records)
        results[i] = record
        if store is not None and keys[i] is not None:
            store(keys[i], record)
            stored.add(keys[i])
        for j in aliases[i]:
            results[j] = record
    if store is not None:
        for j, key in enumerate(job_keys):
            # A plain spec IS its own job: its key was already stored.
            if key is not None and key not in stored:
                store(key, job_records[j])

    stats.time_ms = (time.perf_counter() - started) * 1000.0
    return BatchResult(results=list(results), stats=stats)  # type: ignore[arg-type]


def _assemble(
    source, tree, job_records: List[Optional[QueryRecord]]
) -> QueryRecord:
    """Build one submitted spec's record from its executed jobs.

    A leaf tree node is a job index — its record is returned as-is
    (records are treated as immutable once finalized, so sharing one
    between a plain spec and a composite that also claimed it is safe).
    A composite node merges its children's id arrays (unique and
    ascending, as every region kind's are) with the spec's set semantics
    (:func:`repro.query.merge.merge_ids`), sums the children's work
    counters (a leaf claimed by several composites is reported by each,
    the same per-query accounting duplicate/cache hits get), and applies
    the composite's own ``predicate``/``limit``.
    """
    if isinstance(tree, int):
        record = job_records[tree]
        assert record is not None
        return record
    spec, children = tree
    child_records = [
        _assemble(source, child, job_records) for child in children
    ]
    started = time.perf_counter()
    ids = merge_ids(spec, [record.id_array for record in child_records])
    merged = QueryStats()
    for record in child_records:
        merged = merged.merge(record.stats)
    merged.method = "composite"
    merged.result_size = ids.shape[0]
    merged.time_ms += (time.perf_counter() - started) * 1000.0
    return finalize_record(source, spec, QueryRecord(ids, merged))


class BatchQueryEngine:
    """Runs batches of query specs through :func:`run_jobs`, with a cache.

    Parameters
    ----------
    database:
        The owning :class:`~repro.core.database.SpatialDatabase`.
    cache_capacity:
        LRU result-cache size in distinct specs (``0`` disables caching).
    planner:
        Cost-based planner used for ``method="auto"`` (default: a fresh
        :class:`~repro.engine.planner.QueryPlanner` over ``database``).
    """

    def __init__(
        self,
        database: "SpatialDatabase",
        *,
        cache_capacity: int = DEFAULT_CAPACITY,
        planner: Optional[QueryPlanner] = None,
    ) -> None:
        self._db = database
        self.cache = ResultCache(capacity=cache_capacity)
        self.planner = planner or QueryPlanner(database)
        #: stats of the most recent batch (None before the first one)
        self.last_batch_stats: Optional[BatchStats] = None
        #: lifetime accounting across every batch (admission layers report it)
        self.totals = EngineTotals()

    # -- public API --------------------------------------------------------

    def run_specs(
        self, specs: Sequence[Query], *, use_cache: bool = True
    ) -> BatchResult:
        """Answer every spec in ``specs``; records in submission order.

        Accepts a heterogeneous mix of query kinds.  Ids are identical
        to executing each spec alone via
        :func:`repro.query.executor.execute_spec`: :func:`run_jobs`
        runs each distinct job once through it, with the planner's
        method, and with ``use_cache`` the result cache serves and
        stores records at the database's current version.  The
        returned records are shared, as :func:`run_jobs` describes.
        """
        db = self._db
        cache = self.cache
        version = db.version
        caching = use_cache and cache.capacity > 0
        batch = run_jobs(
            db,
            specs,
            lambda job: execute_spec(
                db, job, method=resolve_method(db, job)
            ),
            lookup=(lambda key: cache.get(key, version)) if caching else None,
            store=(
                (lambda key, record: cache.put(key, version, record))
                if caching
                else None
            ),
        )
        self.last_batch_stats = batch.stats
        self.totals.absorb(batch.stats)
        return batch

    def explain(self, spec_or_region, *, execute: bool = False):
        """Forward to the planner's explain (spec or bare region)."""
        if isinstance(spec_or_region, Query):
            return self.planner.explain_spec(spec_or_region, execute=execute)
        return self.planner.explain(spec_or_region, execute=execute)
