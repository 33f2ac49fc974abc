"""The batch query engine: heterogeneous spec batches with sharing.

Serving queries one at a time repeats work that a batch can share:

1. **Index descent** — every traditional/window query descends the R-tree
   from the root.  Batched, specs are visited in Hilbert order
   (:mod:`repro.engine.order`) and *overlapping* windows are grouped: one
   window query over the group's union MBR feeds every member, which then
   only re-filters by its own MBR and refines.
2. **Voronoi seeding** — every Voronoi execution (area, window, or kNN)
   runs an index NN search for its seed.  Batched, the seed of the
   previous (spatially adjacent) query is *walked* to the new query's
   position over the Voronoi neighbour graph.  On a Delaunay graph the
   steepest-descent walk provably terminates at the true nearest
   neighbour — if a vertex ``v`` is not the NN of target ``q``, the
   neighbour ``u`` whose cell the segment ``v->q`` enters satisfies
   ``|uq| <= |ux| + |xq| = |vx| + |xq| = |vq|`` (``x`` the crossing
   point), with equality impossible for a distinct site — so the seed is
   exactly the one the index search would have produced, at the cost of a
   few graph hops instead of a root-to-leaf descent.
3. **The query itself** — repeated specs (hot tiles, dashboards) are
   served from an LRU :class:`~repro.engine.cache.ResultCache` keyed by
   the spec objects themselves (see :meth:`repro.query.spec.Query.cache_key`),
   and exact duplicates *within* one batch are computed once.

:meth:`BatchQueryEngine.run_specs` accepts any mix of
:class:`~repro.query.spec.AreaQuery`, :class:`~repro.query.spec.WindowQuery`,
:class:`~repro.query.spec.KnnQuery`, and
:class:`~repro.query.spec.NearestQuery`; specs are grouped by their
planner-resolved execution strategy *after* the Hilbert tour, so each
sharing mechanism sees a spatially coherent sub-tour.  Results are
returned in submission order and are id-identical to executing each spec
alone (both area methods return the same id sets — the paper's theorem —
so this holds for any mix of planned methods).

**Composite specs** (:class:`~repro.query.spec.UnionQuery` /
``Intersection`` / ``Difference``) are *decomposed*: their leaves join
the batch's executable job pool alongside the plain specs, so every
sharing mechanism above applies **across composite siblings** — four
near-coincident windows unioned into one spec share one index traversal,
Voronoi leaves chain seed walks, and a leaf repeated across composites
(or equal to a plain spec in the same batch) executes once.  After the
leaf jobs run, each composite's sorted leaf id lists merge with lazy set
semantics (:func:`repro.query.executor.merge_sorted_ids`) and the
composite's own options apply to the merged rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import EmptyDatabaseError, InvalidQueryAreaError
from repro.core.stats import QueryRecord, QueryStats
from repro.core.voronoi_query import voronoi_area_query
from repro.engine.cache import DEFAULT_CAPACITY, ResultCache
from repro.engine.order import locality_order
from repro.engine.planner import QueryPlanner
from repro.geometry.polygon import Polygon
from repro.geometry.region import QueryRegion, interior_seed_position
from repro.query.executor import (
    execute_spec,
    finalize_record,
    resolve_method,
)
from repro.query.spec import (
    AreaQuery,
    CompositeQuery,
    IntersectionQuery,
    KnnQuery,
    NearestQuery,
    Query,
    UnionQuery,
    WindowQuery,
)

import numpy as _np

from repro.geometry.kernels import rect_contains_many as _rect_mask, region_kernels

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.database import SpatialDatabase
    from repro.core.store import PointStore

#: Union-MBR slack for window grouping: a window joins a group only while
#: the union's area stays at or below this factor times the *largest*
#: member window's area.  Groups therefore only form around
#: near-coincident or nested windows (hot tiles, dashboard refreshes) and
#: can never snowball: under uniform density each member scans at most
#: ``slack`` times the largest member's own candidate count, however many
#: windows chain-overlap.  (Comparing against the *sum* of member areas
#: instead would double-count overlap and let a sliding chain of tiles
#: collapse into one unbounded group.)
DEFAULT_WINDOW_SLACK = 1.2


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
    #: window groups of size >= 2 that shared one index traversal
    shared_window_groups: int = 0
    #: frontier-strategy specs served from a shared group traversal
    shared_window_queries: int = 0
    #: Voronoi seeds obtained by graph walk (index NN search skipped)
    seed_walk_reuses: int = 0
    #: Voronoi seeds that needed a full index NN search
    seed_index_lookups: int = 0
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


@dataclass
class EngineTotals:
    """Lifetime job-pool accounting across every batch an engine ran.

    The per-batch :class:`BatchStats` is reset on every
    :meth:`BatchQueryEngine.run_specs` call; external admission layers —
    the query server's cross-client coalescer in
    :mod:`repro.server.coalescer` — need *cumulative* counters to report
    cache/dedup/sharing behaviour over a whole serving session, so the
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
    shared_window_groups: int = 0
    shared_window_queries: int = 0
    seed_walk_reuses: int = 0
    seed_index_lookups: int = 0
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
        self.shared_window_groups += stats.shared_window_groups
        self.shared_window_queries += stats.shared_window_queries
        self.seed_walk_reuses += stats.seed_walk_reuses
        self.seed_index_lookups += stats.seed_index_lookups
        self.composite_queries += stats.composite_queries
        self.composite_leaves += stats.composite_leaves
        self.leaf_duplicate_hits += stats.leaf_duplicate_hits
        self.leaf_cache_hits += stats.leaf_cache_hits
        self.time_ms += stats.time_ms

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready mapping of every counter (the ``stats`` frame)."""
        data = asdict(self)
        data["time_ms"] = round(float(data["time_ms"]), 3)
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


def greedy_seed_walk(
    neighbor_table: Sequence[Tuple[int, ...]],
    store: "PointStore",
    start: int,
    target_x: float,
    target_y: float,
    max_hops: int,
) -> Optional[int]:
    """Steepest-descent walk to the point nearest ``(target_x, target_y)``.

    From ``start``, repeatedly move to the neighbour closest to the target;
    stop when no neighbour improves.  On a Delaunay neighbour graph the
    stopping vertex is the global nearest neighbour of the target (see the
    module docstring for the argument).  Returns ``None`` if ``max_hops``
    is exhausted first (caller falls back to the index NN search).
    Coordinates are read from the store's columns.
    """
    x_of, y_of = memoryview(store.xs), memoryview(store.ys)
    current = start
    best = (x_of[current] - target_x) ** 2 + (y_of[current] - target_y) ** 2
    for _ in range(max_hops):
        next_id = -1
        for neighbor in neighbor_table[current]:
            d = (x_of[neighbor] - target_x) ** 2 + (y_of[neighbor] - target_y) ** 2
            if d < best:
                best = d
                next_id = neighbor
        if next_id < 0:
            return current
        current = next_id
    return None


#: Seed walks beat a best-first index NN descent only while the walk is
#: short: each hop costs a handful of neighbour distance evaluations,
#: the descent a few dozen node inspections, so the breakeven sits
#: around this many expected hops.  Beyond it the engine descends the
#: index instead of walking — the walk's purpose is chaining *nearby*
#: queries (clustered tiles, composite siblings), not crossing the map.
_WALK_HOP_BUDGET = 24


def _walk_radius_sq(planner: QueryPlanner) -> float:
    """Squared distance within which a seed walk is expected to pay off.

    The steepest-descent walk advances roughly one site spacing per hop
    (``sqrt(space_area / n)`` under uniform density), so the profitable
    radius is the hop budget times that spacing.  The space extent is the
    planner's (the R-tree's root MBR, O(1)); degenerate extents fall back
    to "always walk".
    """
    density = planner.density()
    if density <= 0.0:
        return float("inf")
    spacing_sq = 1.0 / density
    return _WALK_HOP_BUDGET * _WALK_HOP_BUDGET * spacing_sq


def _execution_region(spec: Query) -> QueryRegion:
    """The region a Voronoi expansion runs over for ``spec``.

    Area specs expand over their own region; window specs over the
    rectangle-as-polygon (a :class:`Rect` lacks the boundary-crossing
    operations Algorithm 1 needs).
    """
    if isinstance(spec, WindowQuery):
        return Polygon.from_rect(spec.rect)
    return spec.region  # type: ignore[attr-defined]


class BatchQueryEngine:
    """Executes batches of query specs with cross-query sharing.

    Parameters
    ----------
    database:
        The owning :class:`~repro.core.database.SpatialDatabase`.
    cache_capacity:
        LRU result-cache size in distinct specs (``0`` disables caching).
    planner:
        Cost-based planner used for ``method="auto"`` (default: a fresh
        :class:`~repro.engine.planner.QueryPlanner` over ``database``).
    window_slack:
        Union-MBR slack for shared window grouping
        (:data:`DEFAULT_WINDOW_SLACK`).
    """

    def __init__(
        self,
        database: "SpatialDatabase",
        *,
        cache_capacity: int = DEFAULT_CAPACITY,
        planner: Optional[QueryPlanner] = None,
        window_slack: float = DEFAULT_WINDOW_SLACK,
    ) -> None:
        self._db = database
        self.cache = ResultCache(capacity=cache_capacity)
        self.planner = planner or QueryPlanner(database)
        self.window_slack = window_slack
        #: stats of the most recent batch (None before the first one)
        self.last_batch_stats: Optional[BatchStats] = None
        #: lifetime accounting across every batch (admission layers report it)
        self.totals = EngineTotals()

    # -- public API --------------------------------------------------------

    def run_specs(
        self, specs: Sequence[Query], *, use_cache: bool = True
    ) -> BatchResult:
        """Answer every spec in ``specs``; records in submission order.

        Accepts a heterogeneous mix of query kinds.  Id lists are
        identical to executing each spec alone via
        :func:`repro.query.executor.execute_spec`.

        The returned records are **engine-owned and read-only**:
        duplicate submissions share one record object and cached entries
        are stored by reference, so consumers must copy before mutating
        (the lazy result surfaces do — ``.ids()`` returns a fresh list).
        """
        specs = list(specs)
        db = self._db
        for spec in specs:
            if not isinstance(spec, Query):
                raise TypeError(f"not a query spec: {spec!r}")
            self._validate_spec(spec)

        started = time.perf_counter()
        stats = BatchStats(total_queries=len(specs))
        results: List[Optional[QueryRecord]] = [None] * len(specs)
        version = db.version

        # 1. Cache probe + intra-batch dedup, both keyed by the
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
            if use_cache and self.cache.capacity > 0:
                cached = self.cache.get(key, version)
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
        #    (recursively flattened) leaves, so siblings share the tour
        #    with everything else.  Identical jobs — a leaf repeated
        #    across composites, or equal to a plain pending spec — merge
        #    into one, and composite leaves may be served straight from
        #    the cross-batch result cache.
        jobs: List[Query] = []
        job_records: List[Optional[QueryRecord]] = []
        job_cache_keys: List[Optional[Query]] = []
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
            job_cache_keys.append(key)
            record = None
            if key is not None:
                seen_jobs[key] = job
                if from_composite and use_cache and self.cache.capacity > 0:
                    record = self.cache.get(key, version)
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

        # 3. Resolve the concrete method per executable job (planner on
        #    auto), then Hilbert-tour the jobs and split by execution
        #    strategy (each sharing mechanism gets a coherent sub-tour).
        exec_jobs = [j for j in range(len(jobs)) if job_records[j] is None]
        choices = {j: resolve_method(db, jobs[j]) for j in exec_jobs}
        for j in exec_jobs:
            choice = choices[j]
            stats.method_counts[choice] = (
                stats.method_counts.get(choice, 0) + 1
            )
        for i in pending:
            kind = specs[i].kind
            stats.kind_counts[kind] = stats.kind_counts.get(kind, 0) + 1

        anchors = [jobs[j].anchor() for j in exec_jobs]
        tour = [exec_jobs[t] for t in locality_order(anchors)]
        frontier_tour: List[int] = []
        voronoi_tour: List[int] = []
        point_tour: List[int] = []
        for j in tour:
            job = jobs[j]
            if isinstance(job, (KnnQuery, NearestQuery)):
                point_tour.append(j)
            elif choices[j] == "voronoi":
                voronoi_tour.append(j)
            else:  # area/traditional or window/index
                frontier_tour.append(j)

        self._run_window_frontier(
            jobs, frontier_tour, choices, job_records, stats
        )
        self._run_voronoi(jobs, voronoi_tour, job_records, stats)
        self._run_point_queries(
            jobs, point_tour, choices, job_records, stats
        )

        # 4. Assemble submitted specs from their jobs (set-merge for
        #    composites), fill duplicates, and populate the cache —
        #    composite leaves too, so later batches (or later composites)
        #    reuse them.  Every execution path above returns finalized
        #    records (spec options applied once per level).
        stored: set = set()
        for i in pending:
            record = self._assemble(trees[i], job_records)
            assert record is not None
            results[i] = record
            if use_cache and keys[i] is not None:
                self.cache.put(keys[i], version, record)
                stored.add(keys[i])
            for j in aliases[i]:
                # Duplicates share the owner's record by reference:
                # handed-out records are read-only by engine convention
                # (every consumer surface copies on materialisation).
                results[j] = record
        if use_cache and self.cache.capacity > 0:
            for j, key in enumerate(job_cache_keys):
                # A plain spec IS its own job: its key was already stored
                # above — skip the duplicate put (and its entry snapshot).
                if (
                    key is not None
                    and key not in stored
                    and job_records[j] is not None
                ):
                    self.cache.put(key, version, job_records[j])

        stats.time_ms = (time.perf_counter() - started) * 1000.0
        self.last_batch_stats = stats
        self.totals.absorb(stats)
        return BatchResult(results=list(results), stats=stats)  # type: ignore[arg-type]

    def validate_spec(self, spec: Query) -> None:
        """Raise if ``spec`` cannot be answered by this database.

        The same checks :meth:`run_specs` performs on every submission
        (type, region validity, recursing composites), exposed so
        admission layers — the query server's coalescer — can reject one
        bad request up front instead of poisoning the whole shared batch
        it would have joined.
        """
        if not isinstance(spec, Query):
            raise TypeError(f"not a query spec: {spec!r}")
        self._validate_spec(spec)

    def _validate_spec(self, spec: Query) -> None:
        """Reject specs the database cannot answer (recursing composites)."""
        if isinstance(spec, CompositeQuery):
            for part in spec.parts:
                self._validate_spec(part)
        elif isinstance(spec, AreaQuery):
            if not len(self._db):
                raise EmptyDatabaseError("area query on an empty database")
            if spec.region.area <= 0.0:
                raise InvalidQueryAreaError("query area has zero area")

    def _assemble(
        self, tree, job_records: List[Optional[QueryRecord]]
    ) -> QueryRecord:
        """Build one submitted spec's record from its executed jobs.

        A leaf tree node is a job index — its record is returned as-is
        (records are treated as immutable once finalized, so sharing one
        between a plain spec and a composite that also claimed it is
        safe).  A composite node merges its children's sorted id lists
        with the spec's set semantics — eager C-level set operations
        here, semantically identical to the lazy generators the
        streaming path uses (pinned by tests) — sums the children's work
        counters (a leaf claimed by several composites is reported by
        each, the same per-query accounting duplicate/cache hits get),
        and applies the composite's own ``predicate``/``limit``.
        """
        if isinstance(tree, int):
            record = job_records[tree]
            assert record is not None
            return record
        spec, children = tree
        child_records = [
            self._assemble(child, job_records) for child in children
        ]
        started = time.perf_counter()
        id_lists = [record.ids for record in child_records]
        if isinstance(spec, UnionQuery):
            ids = sorted(set().union(*id_lists))
        elif isinstance(spec, IntersectionQuery):
            ids = sorted(set(id_lists[0]).intersection(*id_lists[1:]))
        else:  # DifferenceQuery: trees hold only the three kinds
            ids = sorted(set(id_lists[0]).difference(*id_lists[1:]))
        merged = QueryStats()
        for record in child_records:
            merged = merged.merge(record.stats)
        merged.method = "composite"
        merged.result_size = len(ids)
        merged.time_ms += (time.perf_counter() - started) * 1000.0
        return finalize_record(
            self._db, spec, QueryRecord(ids=ids, stats=merged)
        )

    def explain(self, spec_or_region, *, execute: bool = False):
        """Forward to the planner's explain (spec or bare region)."""
        if isinstance(spec_or_region, Query):
            return self.planner.explain_spec(spec_or_region, execute=execute)
        return self.planner.explain(spec_or_region, execute=execute)

    # -- traditional/index: shared window frontier --------------------------

    def _run_window_frontier(
        self,
        specs: Sequence[Query],
        tour: List[int],
        choices: Dict[int, str],
        results: List[Optional[QueryRecord]],
        stats: BatchStats,
    ) -> None:
        """Run ``tour`` (Hilbert-ordered indices) with grouped windows.

        Members are area specs executing traditionally (window = region
        MBR, refine = point-in-region) and window specs executing on the
        index (window = the rect itself, refine = rect containment).
        """
        group: List[int] = []
        union = None
        max_member_area = 0.0
        for i in tour:
            mbr = specs[i].anchor()
            if not group:
                group, union, max_member_area = [i], mbr, mbr.area
                continue
            candidate_union = union.union(mbr)
            if candidate_union.area <= self.window_slack * max(
                max_member_area, mbr.area
            ):
                group.append(i)
                union = candidate_union
                max_member_area = max(max_member_area, mbr.area)
            else:
                self._flush_window_group(
                    group, union, specs, choices, results, stats
                )
                group, union, max_member_area = [i], mbr, mbr.area
        if group:
            self._flush_window_group(
                group, union, specs, choices, results, stats
            )

    def _flush_window_group(
        self,
        group: List[int],
        union,
        specs: Sequence[Query],
        choices: Dict[int, str],
        results: List[Optional[QueryRecord]],
        stats: BatchStats,
    ) -> None:
        """One index traversal for the whole group, then per-member refine.

        The shared descent's node accesses are attributed to the group's
        first member (splitting them would fabricate fractional counters).

        The shared frontier is columnar end-to-end: one bulk id probe
        (:meth:`~repro.index.base.SpatialIndex.window_ids_array`) over
        the union MBR, candidate coordinates gathered from the
        :class:`~repro.core.store.PointStore` columns by row id, and
        every member answered by array masks — window members' masks ARE
        their answers, area members additionally refine the masked
        candidates with one ``contains_many`` call
        (:func:`repro.geometry.kernels.region_kernels`).
        """
        db = self._db
        if len(group) == 1:
            i = group[0]
            # execute_spec finalizes (applies predicate/limit) itself.
            results[i] = execute_spec(db, specs[i], method=choices[i])
            return
        stats.shared_window_groups += 1
        stats.shared_window_queries += len(group)
        index = db.index
        nodes_before = index.stats.node_accesses
        group_started = time.perf_counter()
        id_array = index.window_ids_array(union)
        store = db.store
        xs = store.xs[id_array]
        ys = store.ys[id_array]
        shared_nodes = index.stats.node_accesses - nodes_before
        shared_ms = (time.perf_counter() - group_started) * 1000.0
        for position, i in enumerate(group):
            spec = specs[i]
            member_started = time.perf_counter()
            if isinstance(spec, AreaQuery):
                member_stats = QueryStats(method="traditional")
                contains_many, _ = region_kernels(spec.region)
                mask = _rect_mask(spec.region.mbr, xs, ys)
                member_ids = id_array[mask]
                inside = contains_many(xs[mask], ys[mask])
                ids = _np.sort(member_ids[inside]).tolist()
                candidates = int(member_ids.shape[0])
                member_stats.candidates = candidates
                member_stats.validations = candidates
                member_stats.redundant_validations = candidates - len(ids)
            else:  # WindowQuery on the index: MBR filter is the query
                member_stats = QueryStats(method="index")
                mask = _rect_mask(spec.rect, xs, ys)
                member_ids = _np.sort(id_array[mask])
                member_stats.candidates = int(member_ids.shape[0])
                if spec.limit is not None and spec.predicate is None:
                    # Same ascending prefix finalize_record would
                    # keep — truncate before materialising ints.
                    member_ids = member_ids[: spec.limit]
                ids = member_ids.tolist()
            member_stats.time_ms = (
                time.perf_counter() - member_started
            ) * 1000.0
            if position == 0:
                member_stats.index_node_accesses = shared_nodes
                member_stats.time_ms += shared_ms
            member_stats.result_size = len(ids)
            results[i] = finalize_record(
                db, spec, QueryRecord(ids=ids, stats=member_stats)
            )

    # -- voronoi regions: seed reuse along the tour -------------------------

    def _run_voronoi(
        self,
        specs: Sequence[Query],
        tour: List[int],
        results: List[Optional[QueryRecord]],
        stats: BatchStats,
    ) -> None:
        """Run ``tour`` with the previous query's seed as the walk start."""
        if not tour:
            return
        db = self._db
        backend = db.backend
        store = db.store
        neighbor_table = backend.neighbor_table()
        max_hops = 64 + int(4.0 * math.sqrt(len(store)))
        walk_radius_sq = _walk_radius_sq(self.planner)
        previous_seed: Optional[int] = None
        for i in tour:
            region = _execution_region(specs[i])
            # Seeding work (walk or fallback NN descent) is charged to this
            # query's stats below, so batch and loop counters stay
            # comparable — same invariant _flush_window_group keeps for the
            # shared window descent.
            seeding_started = time.perf_counter()
            seeding_nodes_before = db.index.stats.node_accesses
            position = interior_seed_position(region)
            seed_id: Optional[int] = None
            if previous_seed is not None:
                anchor_x, anchor_y = store.coords(previous_seed)
                dx = position.x - anchor_x
                dy = position.y - anchor_y
                if dx * dx + dy * dy <= walk_radius_sq:
                    seed_id = greedy_seed_walk(
                        neighbor_table,
                        store,
                        previous_seed,
                        position.x,
                        position.y,
                        max_hops,
                    )
                if seed_id is not None:
                    stats.seed_walk_reuses += 1
            if seed_id is None:
                entry = db.index.nearest_neighbor(position)
                stats.seed_index_lookups += 1
                if entry is None:  # pragma: no cover - guarded by len check
                    results[i] = QueryRecord(
                        ids=[], stats=QueryStats(method="voronoi")
                    )
                    continue
                seed_id = entry[1]
            seeding_nodes = (
                db.index.stats.node_accesses - seeding_nodes_before
            )
            seeding_ms = (time.perf_counter() - seeding_started) * 1000.0
            result = voronoi_area_query(
                db.index,
                backend,
                store,
                region,
                seed_id=seed_id,
                deleted=store.deleted_rows or None,
            )
            result.stats.index_node_accesses += seeding_nodes
            result.stats.time_ms += seeding_ms
            results[i] = finalize_record(db, specs[i], result)
            previous_seed = seed_id

    # -- point queries: kNN / nearest along the tour ------------------------

    def _run_point_queries(
        self,
        specs: Sequence[Query],
        tour: List[int],
        choices: Dict[int, str],
        results: List[Optional[QueryRecord]],
        stats: BatchStats,
    ) -> None:
        """Run kNN/nearest specs; Voronoi kNN reuses seeds along the tour.

        Index-method point queries are a plain loop — a best-first descent
        has no frontier worth sharing — but Voronoi kNN executions chain
        exactly like area queries: the previous seed is walked to the next
        query position when the hop is short enough to beat a descent
        (:func:`_walk_radius_sq`), replacing the index NN lookup.
        """
        if not tour:
            return
        db = self._db
        previous_seed: Optional[int] = None
        neighbor_table = None
        max_hops = 0
        walk_radius_sq = _walk_radius_sq(self.planner)
        for i in tour:
            spec = specs[i]
            use_walk = (
                isinstance(spec, KnnQuery)
                and choices[i] == "voronoi"
                and len(db) > 0
                and (spec.k is None or spec.k > 0)  # None = unbounded
            )
            seed_id: Optional[int] = None
            if use_walk and previous_seed is not None:
                if neighbor_table is None:
                    neighbor_table = db.backend.neighbor_table()
                    max_hops = 64 + int(4.0 * math.sqrt(len(db)))
                anchor_x, anchor_y = db.store.coords(previous_seed)
                dx = spec.point.x - anchor_x
                dy = spec.point.y - anchor_y
                if dx * dx + dy * dy <= walk_radius_sq:
                    seed_id = greedy_seed_walk(
                        neighbor_table,
                        db.store,
                        previous_seed,
                        spec.point.x,
                        spec.point.y,
                        max_hops,
                    )
                if seed_id is not None:
                    stats.seed_walk_reuses += 1
            if use_walk and seed_id is None:
                stats.seed_index_lookups += 1
            record = execute_spec(
                db, spec, method=choices[i], seed_id=seed_id
            )
            results[i] = record
            if use_walk:
                # The walk target is the spec's own query position, so the
                # stopping vertex (or the first result, which is the NN for
                # unfiltered kNN) anchors the next walk.
                previous_seed = (
                    seed_id
                    if seed_id is not None
                    else (record.ids[0] if record.ids else previous_seed)
                )
