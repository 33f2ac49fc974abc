"""The paper's experiment harness: Tables I–II, Figures 4–7, batch throughput.

Two sweeps, exactly as in Section IV of the paper:

* **data-size sweep** (Table I; Figs. 4 and 5): query size fixed at 1 %,
  database size swept (paper: 1E5 … 1E6 in steps of 1E5);
* **query-size sweep** (Table II; Figs. 6 and 7): database size fixed at
  1E5, query size doubling 1 % … 32 %.

Each cell averages ``repetitions`` random 10-vertex query polygons (the
paper averages 1000).  Every repetition asserts that both methods return
identical result sets, so the harness doubles as a large-scale correctness
check.

Scale defaults are laptop-friendly (paper-scale runs take tens of minutes in
pure Python — pass ``--paper-scale`` or a custom config to reproduce the
full 1E6 sweep).  The figures are the same series as the tables plotted
against the sweep parameter; :func:`render_figure` prints them as aligned
series so the trend/crossover shapes can be read off directly.

Run from the command line::

    python -m repro.workloads.experiments table1
    python -m repro.workloads.experiments all --repetitions 20
    python -m repro.workloads.experiments table2 --paper-scale
    python -m repro.workloads.experiments batch

The ``batch`` target goes beyond the paper: it measures the throughput of
the batch query engine (:mod:`repro.engine`) against the one-query-at-a-time
loop on a production-style trace where hot regions repeat.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.database import SpatialDatabase
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.random_shapes import random_query_polygon
from repro.query.spec import (
    AreaQuery,
    CompositeQuery,
    DifferenceQuery,
    IntersectionQuery,
    KnnQuery,
    NearestQuery,
    Query,
    UnionQuery,
    WindowQuery,
)
from repro.workloads.generators import bursty_arrivals, uniform_points, zipf_ranks
from repro.workloads.queries import QueryWorkload

#: The paper's sweep values.
PAPER_DATA_SIZES = tuple(100_000 * i for i in range(1, 11))
PAPER_QUERY_SIZES = (0.01, 0.02, 0.04, 0.08, 0.16, 0.32)
PAPER_REPETITIONS = 1000

#: Laptop-scale defaults: same *structure* (10 data-size steps, 6 doubling
#: query sizes), an order of magnitude fewer points and repetitions.
DEFAULT_DATA_SIZES = tuple(10_000 * i for i in range(1, 11))
DEFAULT_QUERY_SIZES = PAPER_QUERY_SIZES
DEFAULT_REPETITIONS = 15


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of the two sweeps."""

    data_sizes: Tuple[int, ...] = DEFAULT_DATA_SIZES
    query_sizes: Tuple[float, ...] = DEFAULT_QUERY_SIZES
    #: query size used by the data-size sweep (paper: 1 %)
    fixed_query_size: float = 0.01
    #: data size used by the query-size sweep (paper: 1E5)
    fixed_data_size: int = 100_000
    repetitions: int = DEFAULT_REPETITIONS
    seed: int = 0

    @staticmethod
    def paper_scale() -> "ExperimentConfig":
        """The full configuration of the paper's Section IV."""
        return ExperimentConfig(
            data_sizes=PAPER_DATA_SIZES,
            query_sizes=PAPER_QUERY_SIZES,
            fixed_data_size=100_000,
            repetitions=PAPER_REPETITIONS,
        )


@dataclass
class SweepRow:
    """One averaged cell of a sweep (one row of Table I or Table II)."""

    parameter: float  # data size, or query size fraction
    result_size: float
    traditional_candidates: float
    traditional_time_ms: float
    traditional_redundant: float
    voronoi_candidates: float
    voronoi_time_ms: float
    voronoi_redundant: float
    repetitions: int = 0

    @property
    def candidate_saving(self) -> float:
        """Fraction of candidates removed by the Voronoi method.

        The paper's "number of candidates saved": at 1E5/1 % it reports
        ``1 - 648.47/999.2 = 35.1 %``, i.e. the ratio of the *full*
        candidate sets.
        """
        if self.traditional_candidates == 0:
            return 0.0
        return 1.0 - self.voronoi_candidates / self.traditional_candidates

    @property
    def redundant_saving(self) -> float:
        """Fraction of redundant validations removed (Figs. 5 and 7 series)."""
        if self.traditional_redundant == 0:
            return 0.0
        return 1.0 - self.voronoi_redundant / self.traditional_redundant

    @property
    def time_saving(self) -> float:
        """Fraction of query time removed: ``1 - t_voronoi / t_traditional``."""
        if self.traditional_time_ms == 0:
            return 0.0
        return 1.0 - self.voronoi_time_ms / self.traditional_time_ms


def _measure_cell(
    db: SpatialDatabase,
    query_size: float,
    repetitions: int,
    seed: int,
    parameter: float,
) -> SweepRow:
    """Average both methods over ``repetitions`` random query polygons."""
    workload = QueryWorkload(query_size=query_size, seed=seed)
    areas = workload.areas(repetitions)
    totals = {
        "result": 0.0,
        "t_cand": 0.0,
        "t_time": 0.0,
        "t_red": 0.0,
        "v_cand": 0.0,
        "v_time": 0.0,
        "v_red": 0.0,
    }
    for area in areas:
        voronoi = db.query(AreaQuery(area, method="voronoi")).record
        traditional = db.query(AreaQuery(area, method="traditional")).record
        if voronoi.ids != traditional.ids:
            raise AssertionError(
                "methods disagree: the harness found a correctness bug "
                f"(|voronoi|={len(voronoi.ids)}, "
                f"|traditional|={len(traditional.ids)})"
            )
        totals["result"] += voronoi.stats.result_size
        totals["t_cand"] += traditional.stats.candidates
        totals["t_time"] += traditional.stats.time_ms
        totals["t_red"] += traditional.stats.redundant_validations
        totals["v_cand"] += voronoi.stats.candidates
        totals["v_time"] += voronoi.stats.time_ms
        totals["v_red"] += voronoi.stats.redundant_validations
    n = float(len(areas))
    return SweepRow(
        parameter=parameter,
        result_size=totals["result"] / n,
        traditional_candidates=totals["t_cand"] / n,
        traditional_time_ms=totals["t_time"] / n,
        traditional_redundant=totals["t_red"] / n,
        voronoi_candidates=totals["v_cand"] / n,
        voronoi_time_ms=totals["v_time"] / n,
        voronoi_redundant=totals["v_red"] / n,
        repetitions=int(n),
    )


def _build_database(
    n: int, config: ExperimentConfig
) -> SpatialDatabase:
    points = uniform_points(n, seed=config.seed)
    return SpatialDatabase.from_points(points).prepare()


def run_data_size_sweep(
    config: ExperimentConfig = ExperimentConfig(),
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> List[SweepRow]:
    """Table I / Fig. 4 / Fig. 5: vary data size at fixed 1 % query size."""
    rows: List[SweepRow] = []
    for n in config.data_sizes:
        if progress is not None:
            progress(f"data size {n:,}: building database...")
        db = _build_database(n, config)
        row = _measure_cell(
            db,
            config.fixed_query_size,
            config.repetitions,
            seed=config.seed + n,
            parameter=float(n),
        )
        rows.append(row)
        if progress is not None:
            progress(
                f"data size {n:,}: voronoi {row.voronoi_time_ms:.1f} ms vs "
                f"traditional {row.traditional_time_ms:.1f} ms"
            )
    return rows


def run_query_size_sweep(
    config: ExperimentConfig = ExperimentConfig(),
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> List[SweepRow]:
    """Table II / Fig. 6 / Fig. 7: vary query size at fixed data size."""
    if progress is not None:
        progress(
            f"building database of {config.fixed_data_size:,} points..."
        )
    db = _build_database(config.fixed_data_size, config)
    rows: List[SweepRow] = []
    for query_size in config.query_sizes:
        row = _measure_cell(
            db,
            query_size,
            config.repetitions,
            seed=config.seed + int(query_size * 10_000),
            parameter=query_size,
        )
        rows.append(row)
        if progress is not None:
            progress(
                f"query size {query_size:.0%}: voronoi "
                f"{row.voronoi_time_ms:.1f} ms vs traditional "
                f"{row.traditional_time_ms:.1f} ms"
            )
    return rows


# -- batch-throughput experiment ---------------------------------------------


@dataclass
class BatchThroughputRow:
    """One execution strategy's throughput on the shared query trace."""

    strategy: str
    total_ms: float
    queries_per_second: float
    #: throughput relative to the single-query voronoi loop baseline
    speedup: float
    #: repeated regions answered once per batch (intra-batch dedup); the
    #: cross-batch LRU cache never fires here because each strategy
    #: submits the trace as one batch call
    duplicate_hits: int = 0
    method_counts: Dict[str, int] = field(default_factory=dict)


#: The strategies measured by :func:`run_batch_throughput_experiment`,
#: in reporting order.
TRACE_STRATEGIES = (
    "loop/voronoi",
    "loop/traditional",
    "batch/voronoi",
    "batch/traditional",
    "batch/auto",
)

#: Strategies meaningful for heterogeneous (mixed-kind) traces, where a
#: single forced area method does not exist.
MIXED_TRACE_STRATEGIES = (
    "loop/auto",
    "batch/auto",
)

#: Strategies for composite traces: leaves executed independently (one
#: :meth:`SpatialDatabase.query` per leaf, set-merged in Python — the
#: baseline the acceptance bar compares against) vs the engine's
#: batch-decomposition (sibling leaves share frontiers/seed walks).
COMPOSITE_TRACE_STRATEGIES = (
    "leaves/loop",
    "composite/batch",
)


def run_trace_strategy(db: SpatialDatabase, trace: List[Query], strategy: str):
    """Answer a spec ``trace`` with one strategy; returns per-request ids.

    Shared by the experiment harness and ``benchmarks/bench_batch_engine.py``
    so both measure exactly the same execution paths.  ``loop/<method>``
    issues one :meth:`SpatialDatabase.query` per spec; ``batch/<method>``
    uses :meth:`SpatialDatabase.query_batch` with the cross-batch cache
    disabled (isolating the sharing machinery); ``*/auto`` keeps each
    spec's own method field (the planner routes), and ``batch/auto`` is
    the full engine — planner plus LRU cache, cleared first so repeats
    within the trace are served by intra-batch dedup, not by earlier
    runs.  A non-auto method is applied via ``spec.with_method`` and only
    makes sense for kind-homogeneous traces.  Composite traces use
    ``leaves/loop`` (every leaf answered independently, set-merged in
    Python — the no-sharing baseline) vs ``composite/batch`` (the
    engine's batch-decomposition, cross-batch cache disabled).
    """
    if strategy == "leaves/loop":
        return [composite_reference_ids(db, spec) for spec in trace]
    if strategy == "composite/batch":
        db.engine.cache.clear()
        return [
            r.ids() for r in db.query_batch(trace, use_cache=False)
        ]
    kind, _, method = strategy.partition("/")
    if kind == "loop":
        if method == "auto":
            return [db.query(spec).ids() for spec in trace]
        return [
            db.query(spec.with_method(method)).ids() for spec in trace
        ]
    if kind != "batch":
        raise ValueError(f"unknown strategy {strategy!r}")
    if method == "auto":
        db.engine.cache.clear()
        return [r.ids() for r in db.query_batch(trace)]
    return [
        r.ids()
        for r in db.query_batch(
            [spec.with_method(method) for spec in trace], use_cache=False
        )
    ]


def make_query_trace(
    query_size: float,
    distinct: int,
    repeat: int,
    seed: int = 0,
) -> List[AreaQuery]:
    """A production-style trace: ``distinct`` area specs, each hit
    ``repeat`` times, shuffled deterministically.

    Real area-query traffic repeats itself (hot map tiles, dashboards,
    geofence monitors); ``repeat`` controls how hot the trace is.
    ``repeat=1`` gives an all-distinct trace.
    """
    areas = QueryWorkload(query_size=query_size, seed=seed).areas(distinct)
    specs = [AreaQuery(area) for area in areas]
    trace = [spec for spec in specs for _ in range(repeat)]
    random.Random(seed + 1).shuffle(trace)
    return trace


def make_mixed_trace(
    query_size: float,
    distinct: int,
    repeat: int,
    seed: int = 0,
    max_k: int = 16,
) -> List[Query]:
    """A heterogeneous trace cycling through all four query kinds.

    ``distinct`` specs are generated round-robin — area (a random query
    polygon), window (a same-scale rectangle), kNN (random position,
    random ``k`` up to ``max_k``), nearest — then each is repeated
    ``repeat`` times and the whole trace deterministically shuffled.
    This is the acceptance workload for heterogeneous batching: the
    engine must group the kinds back together to share work.
    """
    rng = random.Random(seed)
    areas = QueryWorkload(query_size=query_size, seed=seed).areas(distinct)
    specs: List[Query] = []
    for i, area in enumerate(areas):
        variant = i % 4
        if variant == 0:
            specs.append(AreaQuery(area))
        elif variant == 1:
            specs.append(WindowQuery(area.mbr))
        elif variant == 2:
            specs.append(
                KnnQuery(
                    Point(rng.random(), rng.random()),
                    1 + rng.randrange(max_k),
                )
            )
        else:
            specs.append(NearestQuery(Point(rng.random(), rng.random())))
    trace = [spec for spec in specs for _ in range(repeat)]
    random.Random(seed + 1).shuffle(trace)
    return trace


def make_composite_trace(
    query_size: float,
    distinct: int,
    seed: int = 0,
    parts: int = 4,
    method: str = "voronoi",
    kinds: Tuple[type, ...] = (
        UnionQuery,
        IntersectionQuery,
        DifferenceQuery,
    ),
) -> List[CompositeQuery]:
    """``distinct`` composite specs, each over ``parts`` sibling regions.

    Each composite models a hot-spot dashboard panel: ``parts`` random
    query polygons (each of ``query_size`` area fraction) clustered
    around a random centre — jittered by ~10 % of their side so siblings
    overlap heavily — combined round-robin over ``kinds``.  The
    clustering is what the engine's decomposition exploits: with
    ``method="voronoi"`` (the paper's algorithm, the default here) every
    sibling after the first gets its expansion seed by *walking* the
    previous seed across the Delaunay graph instead of descending the
    index, which is where the measured composite speedup comes from.
    """
    rng = random.Random(seed)
    specs: List[CompositeQuery] = []
    for i in range(distinct):
        cx = rng.uniform(0.15, 0.85)
        cy = rng.uniform(0.15, 0.85)
        leaves = []
        for _ in range(parts):
            polygon = random_query_polygon(query_size, rng=rng)
            mbr = polygon.mbr
            side = max(mbr.max_x - mbr.min_x, mbr.max_y - mbr.min_y)
            dx = (
                cx
                - (mbr.min_x + mbr.max_x) / 2.0
                + rng.uniform(-0.1, 0.1) * side
            )
            dy = (
                cy
                - (mbr.min_y + mbr.max_y) / 2.0
                + rng.uniform(-0.1, 0.1) * side
            )
            leaves.append(
                AreaQuery(
                    Polygon(
                        [
                            Point(p.x + dx, p.y + dy)
                            for p in polygon.vertices
                        ]
                    ),
                    method=method,
                )
            )
        specs.append(kinds[i % len(kinds)](tuple(leaves)))
    return specs


def composite_reference_ids(
    db: SpatialDatabase, spec: Query
) -> List[int]:
    """Answer ``spec`` by executing every leaf *independently*.

    The no-sharing baseline for the composite acceptance bar: each leaf
    runs as its own :meth:`SpatialDatabase.query`, the id sets merge
    with Python set operations, and the composite's own options apply on
    top — semantically identical to the engine's decomposition, without
    any cross-leaf sharing.  Non-composite specs fall through to a
    plain single query.
    """
    if not isinstance(spec, CompositeQuery):
        return db.query(spec).ids()
    part_ids = [composite_reference_ids(db, part) for part in spec.parts]
    if isinstance(spec, UnionQuery):
        merged = set().union(*part_ids)
    elif isinstance(spec, IntersectionQuery):
        merged = set(part_ids[0]).intersection(*part_ids[1:])
    else:
        merged = set(part_ids[0]).difference(*part_ids[1:])
    ids = sorted(merged)
    if spec.predicate is not None:
        predicate = spec.predicate
        point = db.point
        ids = [i for i in ids if predicate(point(i))]
    if spec.limit is not None:
        ids = ids[: spec.limit]
    return ids


def run_composite_throughput_experiment(
    config: ExperimentConfig = ExperimentConfig(),
    *,
    data_size: int = 10_000,
    distinct: int = 24,
    parts: int = 4,
    query_size: float = 0.001,
    rounds: int = 3,
    database: Optional[SpatialDatabase] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[BatchThroughputRow]:
    """Composite decomposition vs independent leaf execution.

    Same protocol as :func:`run_batch_throughput_experiment`: one shared
    trace of composite specs (:func:`make_composite_trace`), each
    strategy best-of-``rounds``, ids asserted identical.  The
    acceptance criterion of the composite algebra is that
    ``composite/batch`` beats ``leaves/loop`` on unions of four or more
    sibling regions (the benchmark asserts >= 1.3x).
    """
    if database is not None:
        db = database
    else:
        if progress is not None:
            progress(f"building database of {data_size:,} points...")
        db = _build_database(data_size, config)
    trace = make_composite_trace(
        query_size, distinct, seed=config.seed, parts=parts
    )
    if progress is not None:
        progress(
            f"composite trace: {len(trace)} specs x {parts} sibling "
            f"regions each"
        )
    expected = [composite_reference_ids(db, spec) for spec in trace]
    return _time_strategies(
        db, trace, COMPOSITE_TRACE_STRATEGIES, expected, rounds, progress
    )


def make_serve_trace(
    query_size: float,
    distinct: int,
    repeat: int,
    seed: int = 0,
    cluster: int = 4,
    shape: str = "mixed",
    limit: Optional[int] = None,
) -> List[Query]:
    """A multi-tenant trace: clustered hot-spot specs, repeated.

    Models N tenants watching a few hot areas *at the same time* (a
    live event, a dashboard auto-refresh tick): ``distinct`` specs are
    generated in clusters of ``cluster`` near-coincident regions around
    shared centres, emitted cluster by cluster, and the whole trace is
    repeated ``repeat`` times.  Submission order is deliberately
    cluster-contiguous: when the trace is dealt round-robin to N
    concurrent connections, each coalescing wave carries one cluster's
    near-coincident members from *different* clients — the traffic
    shape cross-client batching exists for.  Clusters alternate between
    the two sharing-friendly shapes of real map traffic:

    * **hot tiles** — jittered same-size :class:`WindowQuery` rectangles
      (one viewport, nudged per tenant): batched, the engine's window
      grouping answers the whole cluster with **one** shared index
      traversal;
    * **hot regions** — jittered voronoi-method :class:`AreaQuery`
      polygons: batched, expansion seeds chain across the cluster by
      Delaunay-graph walks instead of per-query index descents.

    Sequential round-trips (batches of one) can exploit neither, which
    is exactly the gap the served-throughput experiment measures; exact
    repeats (the ``repeat`` rounds) hit the LRU result cache in *both*
    settings, so they do not skew the comparison.  ``shape`` restricts
    the mix: ``"tiles"`` (all window clusters — the tile-server
    workload ``benchmarks/bench_server.py`` asserts on), ``"regions"``
    (all voronoi-method polygon clusters), or ``"mixed"`` (alternating,
    the default).  ``limit`` caps every spec's result rows (the
    paginated "first page per viewport" pattern of real dashboard
    traffic): execution still scans the full window — only the
    response payload is bounded — so the served-throughput comparison
    keeps measuring execution coalescing rather than per-request id
    transport once queries themselves are fast.
    """
    if shape not in ("mixed", "tiles", "regions"):
        raise ValueError(
            f"shape must be 'mixed', 'tiles', or 'regions', got {shape!r}"
        )
    rng = random.Random(seed)
    specs: List[Query] = []
    tile = shape != "regions"
    while len(specs) < distinct:
        cx = rng.uniform(0.15, 0.85)
        cy = rng.uniform(0.15, 0.85)
        members = min(cluster, distinct - len(specs))
        if tile:
            side = math.sqrt(query_size)
            for _ in range(members):
                jx = rng.uniform(-0.02, 0.02) * side
                jy = rng.uniform(-0.02, 0.02) * side
                specs.append(
                    WindowQuery(
                        (
                            cx - side / 2 + jx,
                            cy - side / 2 + jy,
                            cx + side / 2 + jx,
                            cy + side / 2 + jy,
                        ),
                        limit=limit,
                    )
                )
        else:
            for _ in range(members):
                polygon = random_query_polygon(query_size, rng=rng)
                mbr = polygon.mbr
                side = max(mbr.max_x - mbr.min_x, mbr.max_y - mbr.min_y)
                dx = (
                    cx
                    - (mbr.min_x + mbr.max_x) / 2.0
                    + rng.uniform(-0.1, 0.1) * side
                )
                dy = (
                    cy
                    - (mbr.min_y + mbr.max_y) / 2.0
                    + rng.uniform(-0.1, 0.1) * side
                )
                specs.append(
                    AreaQuery(
                        Polygon(
                            [
                                Point(p.x + dx, p.y + dy)
                                for p in polygon.vertices
                            ]
                        ),
                        method="voronoi",
                        limit=limit,
                    )
                )
        if shape == "mixed":
            tile = not tile
    return [spec for _ in range(repeat) for spec in specs]


def serve_trace_sequential(host: str, port: int, trace: List[Query]):
    """Answer ``trace`` over the wire, one blocking round-trip at a time.

    The no-concurrency baseline of the served-throughput experiment: a
    single :class:`~repro.server.client.QueryClient` submits each spec
    and waits for its result before sending the next, so every request
    is its own admission window (a batch of one — no cross-client
    sharing, though the server's LRU cache still sees the repeats).
    Returns the per-request id lists in trace order.
    """
    from repro.server.client import QueryClient

    with QueryClient(host, port) as client:
        return [client.query(spec).ids for spec in trace]


def serve_trace_concurrent(
    host: str, port: int, trace: List[Query], clients: int
):
    """Answer ``trace`` over the wire from ``clients`` concurrent clients.

    The trace is split round-robin over ``clients`` threads, each
    holding its own blocking connection; a barrier releases them
    together, so their requests land inside shared admission windows
    and the server coalesces them into cross-client engine batches.
    Returns the per-request id lists re-assembled in trace order (plus
    raising any client thread's failure).
    """
    import threading

    from repro.server.client import QueryClient

    shards = [trace[i::clients] for i in range(clients)]
    results: List[Optional[List[List[int]]]] = [None] * clients
    failures: List[BaseException] = []
    barrier = threading.Barrier(clients)

    def worker(position: int) -> None:
        try:
            with QueryClient(host, port) as client:
                barrier.wait()
                results[position] = [
                    client.query(spec).ids for spec in shards[position]
                ]
        except BaseException as exc:  # surfaced to the caller below
            failures.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    merged: List[Optional[List[int]]] = [None] * len(trace)
    for position, shard_ids in enumerate(results):
        assert shard_ids is not None
        for offset, ids in enumerate(shard_ids):
            merged[position + offset * clients] = ids
    return merged


def run_serve_throughput_experiment(
    config: ExperimentConfig = ExperimentConfig(),
    *,
    data_size: int = 10_000,
    clients: int = 8,
    distinct: int = 16,
    repeat: int = 4,
    query_size: float = 0.002,
    rounds: int = 3,
    window_ms: float = 5.0,
    cluster: int = 8,
    shape: str = "mixed",
    limit: Optional[int] = None,
    database: Optional[SpatialDatabase] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[BatchThroughputRow]:
    """Served throughput: N coalesced clients vs sequential round-trips.

    Two server phases over the same database and the same repeated trace
    (:func:`make_serve_trace`), results asserted id-identical:

    * ``serve/sequential`` — one client, one blocking round-trip per
      request, against a server with ``window_ms=0`` (every request
      flushes immediately: the *strongest* sequential configuration,
      with no admission latency to unfairly pad the baseline);
    * ``serve/coalesced`` — ``clients`` concurrent connections against a
      server with the given ``window_ms``, so requests from different
      connections land in shared admission windows and execute as one
      cross-client engine batch.

    The engine's LRU cache is cleared before every timed round of both
    phases, so each round pays the same cold-cache cost and the ratio
    isolates what coalescing adds: shared execution, intra-batch dedup,
    and round-trip overlap.  Each phase reports its best of ``rounds``.
    """
    from repro.server.app import ServerThread

    if database is not None:
        db = database
    else:
        if progress is not None:
            progress(f"building database of {data_size:,} points...")
        db = _build_database(data_size, config)
    trace = make_serve_trace(
        query_size,
        distinct,
        repeat,
        seed=config.seed,
        cluster=cluster,
        shape=shape,
        limit=limit,
    )
    if progress is not None:
        progress(
            f"served trace: {len(trace)} requests over {distinct} distinct "
            f"regions, {clients} clients"
        )
    expected = [db.query(spec).ids() for spec in trace]

    rows: List[BatchThroughputRow] = []
    phases = (
        ("serve/sequential", 0.0, 1),
        (f"serve/coalesced x{clients}", window_ms, clients),
    )
    for label, phase_window, phase_clients in phases:
        with ServerThread(db, window_ms=phase_window) as server:
            best = float("inf")
            for _ in range(rounds):
                db.engine.cache.clear()
                totals_before = db.engine.totals.duplicate_hits
                started = time.perf_counter()
                if phase_clients == 1:
                    ids = serve_trace_sequential(
                        server.host, server.port, trace
                    )
                else:
                    ids = serve_trace_concurrent(
                        server.host, server.port, trace, phase_clients
                    )
                elapsed = time.perf_counter() - started
                if ids != expected:
                    raise AssertionError(
                        "served strategy returned different ids than "
                        "local execution"
                    )
                best = min(best, elapsed)
            duplicate_hits = db.engine.totals.duplicate_hits - totals_before
            coalescer_stats = server.server.backend.coalescer.stats
        total_ms = best * 1000.0
        rows.append(
            BatchThroughputRow(
                strategy=label,
                total_ms=total_ms,
                queries_per_second=len(trace) / (total_ms / 1000.0),
                speedup=1.0,
                duplicate_hits=duplicate_hits,
                method_counts={},
            )
        )
        if progress is not None:
            progress(
                f"{label}: {total_ms:.1f} ms "
                f"(batches: {coalescer_stats.batch_sizes})"
            )
    baseline = rows[0].total_ms
    for row in rows:
        row.speedup = baseline / row.total_ms if row.total_ms else 0.0
    return rows


def run_batch_throughput_experiment(
    config: ExperimentConfig = ExperimentConfig(),
    *,
    data_size: int = 10_000,
    distinct: int = 30,
    repeat: int = 3,
    query_size: float = 0.01,
    rounds: int = 3,
    database: Optional[SpatialDatabase] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[BatchThroughputRow]:
    """Measure single-query vs batched throughput on one trace.

    ``database`` lets callers reuse an already-built database (the CLI
    does, to avoid paying the build twice); when given, ``data_size`` is
    ignored.

    Strategies (all answering the identical trace, results asserted
    id-identical):

    * ``loop/voronoi`` — the baseline: one :meth:`SpatialDatabase.query`
      per spec, forced to the paper's method;
    * ``loop/traditional`` — same loop with the filter–refine baseline;
    * ``batch/voronoi``, ``batch/traditional`` — the batch engine with the
      method fixed and the result cache disabled (isolates the sharing
      machinery: Hilbert ordering, shared windows, seed reuse);
    * ``batch/auto`` — the full engine: planner-chosen methods plus the
      LRU result cache (cleared before each round, so repeats within the
      trace are answered by intra-batch dedup — reported as
      ``duplicate_hits``).

    Each strategy runs ``rounds`` times; the fastest round is reported
    (standard practice to suppress scheduler noise).
    """
    if database is not None:
        db = database
    else:
        if progress is not None:
            progress(f"building database of {data_size:,} points...")
        db = _build_database(data_size, config)
    trace = make_query_trace(
        query_size, distinct, repeat, seed=config.seed
    )
    if progress is not None:
        progress(
            f"trace: {len(trace)} requests over {distinct} distinct regions"
        )

    expected = [
        db.query(spec.with_method("voronoi")).ids() for spec in trace
    ]
    return _time_strategies(
        db, trace, TRACE_STRATEGIES, expected, rounds, progress
    )


def run_mixed_throughput_experiment(
    config: ExperimentConfig = ExperimentConfig(),
    *,
    data_size: int = 10_000,
    distinct: int = 32,
    repeat: int = 3,
    query_size: float = 0.01,
    rounds: int = 3,
    database: Optional[SpatialDatabase] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[BatchThroughputRow]:
    """Heterogeneous-batch throughput: mixed kinds, loop vs batch.

    Same protocol as :func:`run_batch_throughput_experiment`, but the
    trace mixes all four query kinds (:func:`make_mixed_trace`) and only
    the planner-routed strategies are meaningful
    (:data:`MIXED_TRACE_STRATEGIES`).  Ids are asserted identical between
    loop and batch execution for every request.
    """
    if database is not None:
        db = database
    else:
        if progress is not None:
            progress(f"building database of {data_size:,} points...")
        db = _build_database(data_size, config)
    trace = make_mixed_trace(
        query_size, distinct, repeat, seed=config.seed
    )
    if progress is not None:
        kinds = sorted({spec.kind for spec in trace})
        progress(
            f"mixed trace: {len(trace)} requests over {distinct} distinct "
            f"specs ({', '.join(kinds)})"
        )
    expected = [db.query(spec).ids() for spec in trace]
    return _time_strategies(
        db, trace, MIXED_TRACE_STRATEGIES, expected, rounds, progress
    )


def _time_strategies(
    db: SpatialDatabase,
    trace: List[Query],
    strategies: Sequence[str],
    expected: List[List[int]],
    rounds: int,
    progress: Optional[Callable[[str], None]],
) -> List[BatchThroughputRow]:
    """Best-of-``rounds`` timing of each strategy on one shared trace."""

    def timed(run) -> float:
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            ids = run()
            best = min(best, time.perf_counter() - started)
            if ids != expected:
                raise AssertionError(
                    "batch strategy returned different ids than the loop"
                )
        return best * 1000.0

    rows: List[BatchThroughputRow] = []
    for strategy in strategies:
        total = timed(lambda s=strategy: run_trace_strategy(db, trace, s))
        batch_stats = (
            db.engine.last_batch_stats
            if strategy.startswith("batch/")
            else None
        )
        rows.append(
            BatchThroughputRow(
                strategy=strategy,
                total_ms=total,
                queries_per_second=len(trace) / (total / 1000.0),
                speedup=1.0,
                duplicate_hits=(
                    batch_stats.duplicate_hits if batch_stats else 0
                ),
                method_counts=(
                    dict(batch_stats.method_counts) if batch_stats else {}
                ),
            )
        )
        if progress is not None:
            progress(f"{strategy}: {total:.1f} ms")

    baseline = rows[0].total_ms
    for row in rows:
        row.speedup = baseline / row.total_ms if row.total_ms else 0.0
    return rows


def render_batch_table(rows: Sequence[BatchThroughputRow]) -> str:
    """Render the batch-throughput strategies as an aligned table."""
    header = (
        f"{'strategy':>18} | {'total ms':>9} | {'queries/s':>10} | "
        f"{'speedup':>8} | notes"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        notes = []
        if row.duplicate_hits:
            notes.append(f"{row.duplicate_hits} dedup hits")
        # method_counts is informative only where the planner chose; on
        # fixed-method rows it would just echo the forced method
        if row.method_counts and row.strategy.endswith("/auto"):
            chosen = ", ".join(
                f"{count} {method}"
                for method, count in sorted(row.method_counts.items())
            )
            notes.append(f"planner: {chosen}")
        lines.append(
            f"{row.strategy:>18} | {row.total_ms:>9.1f} | "
            f"{row.queries_per_second:>10.0f} | {row.speedup:>7.2f}x | "
            f"{'; '.join(notes)}"
        )
    return "\n".join(lines)


# -- rendering ----------------------------------------------------------------


def _format_parameter(value: float, as_query_size: bool) -> str:
    if as_query_size:
        return f"{value:.0%}"
    return f"{value:,.0f}"


def render_table(
    rows: Sequence[SweepRow],
    *,
    parameter_label: str,
    as_query_size: bool = False,
) -> str:
    """Render a sweep in the layout of the paper's Tables I and II."""
    header = (
        f"{parameter_label:>12} | {'Result size':>11} | "
        f"{'Trad. cand':>10} {'Trad. ms':>9} | "
        f"{'Vor. cand':>10} {'Vor. ms':>9} | "
        f"{'cand. saved':>11} {'time saved':>10}"
    )
    separator = "-" * len(header)
    lines = [header, separator]
    for row in rows:
        lines.append(
            f"{_format_parameter(row.parameter, as_query_size):>12} | "
            f"{row.result_size:>11.2f} | "
            f"{row.traditional_candidates:>10.2f} "
            f"{row.traditional_time_ms:>9.3f} | "
            f"{row.voronoi_candidates:>10.2f} "
            f"{row.voronoi_time_ms:>9.3f} | "
            f"{row.candidate_saving:>10.1%} "
            f"{row.time_saving:>10.1%}"
        )
    return "\n".join(lines)


def render_figure(
    rows: Sequence[SweepRow],
    *,
    value: str,
    title: str,
    as_query_size: bool = False,
    width: int = 60,
) -> str:
    """ASCII rendering of one of the paper's figures.

    ``value`` selects the y-series: ``"time"`` (Figs. 4 and 6) or
    ``"redundant"`` (Figs. 5 and 7).  Both methods are drawn as horizontal
    bars per sweep point, so the gap and its growth are visible in a
    terminal.
    """
    if value == "time":
        series = [
            (row.voronoi_time_ms, row.traditional_time_ms) for row in rows
        ]
        unit = "ms"
    elif value == "redundant":
        series = [
            (row.voronoi_redundant, row.traditional_redundant) for row in rows
        ]
        unit = "validations"
    else:
        raise ValueError(
            f"value must be 'time' or 'redundant', got {value!r}"
        )
    peak = max(max(pair) for pair in series) or 1.0
    lines = [title, f"(bar unit: {unit}; V = Voronoi method, T = traditional)"]
    for row, (v_value, t_value) in zip(rows, series):
        label = _format_parameter(row.parameter, as_query_size)
        v_bar = "#" * max(1, int(round(v_value / peak * width)))
        t_bar = "#" * max(1, int(round(t_value / peak * width)))
        lines.append(f"{label:>12} V |{v_bar:<{width}}| {v_value:,.1f}")
        lines.append(f"{'':>12} T |{t_bar:<{width}}| {t_value:,.1f}")
    return "\n".join(lines)


# -- command line ---------------------------------------------------------------

# ---------------------------------------------------------------------------
# Production traffic realism: skewed sessions, tail latency, overload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionOp:
    """One operation of a production session, tagged with its session.

    ``kind`` is ``window``/``area``/``knn`` (reads), ``insert`` (a
    write), or ``subscribe``/``unsubscribe`` (live queries); ``payload``
    is the matching :class:`~repro.query.spec.Query` spec or the insert
    coordinate pair.  The ``session`` tag routes every op of one tenant
    to the same connection when the trace is driven over the wire.
    """

    kind: str
    payload: object
    session: int


def make_production_sessions(
    *,
    sessions: int = 24,
    ops_per_session: int = 12,
    tiles: int = 12,
    alpha: float = 1.1,
    query_size: float = 0.002,
    write_fraction: float = 0.08,
    subscribe_fraction: float = 0.25,
    knn_fraction: float = 0.15,
    area_fraction: float = 0.1,
    limit: Optional[int] = 64,
    seed: int = 0,
) -> List[SessionOp]:
    """A skewed mixed read/write/subscribe trace of tenant sessions.

    The unit square is cut into a ``tiles`` x ``tiles`` grid whose
    popularity follows a Zipf law (:func:`~repro.workloads.generators.zipf_ranks`
    with exponent ``alpha``, ranks scattered spatially): every session
    picks its *home tile* by popularity, so a handful of hot tiles
    absorb most sessions while the long tail stays sparsely touched —
    the defining skew of production map traffic, and the access pattern
    the server's LRU cache and coalescer actually face.

    Each session issues ``ops_per_session`` operations against its home
    tile: mostly jittered viewport :class:`WindowQuery` reads (capped at
    ``limit`` rows, the first-page pattern), a ``knn_fraction`` of
    k-nearest probes and an ``area_fraction`` of Voronoi-method polygon
    reads at the tile centre, and a ``write_fraction`` of point inserts
    (a vehicle reporting in).  With probability ``subscribe_fraction`` a
    session brackets its reads in a standing subscription on its
    viewport — opened first, torn down last — so live-query fan-out
    rides the same trace.  Ops are interleaved round-robin across
    sessions (concurrent tenants, not one after another).  Deterministic
    in ``seed``.
    """
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions}")
    if ops_per_session < 2:
        raise ValueError(
            f"ops_per_session must be >= 2, got {ops_per_session}"
        )
    if tiles < 1:
        raise ValueError(f"tiles must be >= 1, got {tiles}")
    rng = random.Random(seed)
    side = 1.0 / tiles
    # Scatter popularity ranks over the grid so hot tiles are not
    # spatially adjacent (hot spots in a city are not one contiguous
    # blob) — rank r of the Zipf draw maps to a shuffled tile.
    order = list(range(tiles * tiles))
    rng.shuffle(order)
    homes = [
        order[rank]
        for rank in zipf_ranks(
            tiles * tiles, sessions, alpha=alpha, seed=rng.randrange(2**31)
        )
    ]

    def tile_rect(tile: int) -> Tuple[float, float, float, float]:
        """The bounding rectangle of grid tile ``tile``."""
        tx, ty = divmod(tile, tiles)
        return (tx * side, ty * side, (tx + 1) * side, (ty + 1) * side)

    per_session: List[List[SessionOp]] = []
    for session, tile in enumerate(homes):
        min_x, min_y, max_x, max_y = tile_rect(tile)
        cx = (min_x + max_x) / 2.0
        cy = (min_y + max_y) / 2.0
        view = math.sqrt(query_size)
        ops: List[SessionOp] = []
        subscribed = rng.random() < subscribe_fraction
        if subscribed:
            ops.append(
                SessionOp(
                    "subscribe",
                    WindowQuery((min_x, min_y, max_x, max_y)),
                    session,
                )
            )
        body = ops_per_session - (2 if subscribed else 0)
        for _ in range(max(1, body)):
            draw = rng.random()
            jx = rng.uniform(-0.3, 0.3) * side
            jy = rng.uniform(-0.3, 0.3) * side
            if draw < write_fraction:
                ops.append(
                    SessionOp(
                        "insert",
                        (
                            min(max(cx + jx, 0.0), 1.0),
                            min(max(cy + jy, 0.0), 1.0),
                        ),
                        session,
                    )
                )
            elif draw < write_fraction + knn_fraction:
                ops.append(
                    SessionOp(
                        "knn", KnnQuery((cx + jx, cy + jy), 8), session
                    )
                )
            elif draw < write_fraction + knn_fraction + area_fraction:
                polygon = random_query_polygon(query_size, rng=rng)
                mbr = polygon.mbr
                dx = cx - (mbr.min_x + mbr.max_x) / 2.0
                dy = cy - (mbr.min_y + mbr.max_y) / 2.0
                ops.append(
                    SessionOp(
                        "area",
                        AreaQuery(
                            Polygon(
                                [
                                    Point(p.x + dx, p.y + dy)
                                    for p in polygon.vertices
                                ]
                            ),
                            method="voronoi",
                            limit=limit,
                        ),
                        session,
                    )
                )
            else:
                ops.append(
                    SessionOp(
                        "window",
                        WindowQuery(
                            (
                                cx + jx - view / 2,
                                cy + jy - view / 2,
                                cx + jx + view / 2,
                                cy + jy + view / 2,
                            ),
                            limit=limit,
                        ),
                        session,
                    )
                )
        if subscribed:
            ops.append(SessionOp("unsubscribe", None, session))
        per_session.append(ops)
    # Round-robin interleave: tenants are concurrent, so their ops mix
    # on the wire instead of running session after session.
    interleaved: List[SessionOp] = []
    cursor = 0
    while any(per_session):
        ops = per_session[cursor % sessions]
        if ops:
            interleaved.append(ops.pop(0))
        cursor += 1
    return interleaved


@dataclass
class OpenLoopReport:
    """What an open-loop drive observed, client-side and server-side.

    ``client_latency_ms`` maps op kind to the sorted client-observed
    round-trip milliseconds of successful responses; ``errors`` counts
    error frames by code; ``stats_frame`` is the server's closing
    ``stats`` response (with the ``latency`` section recorded by the
    server itself).
    """

    offered: int
    answered: int
    duration_s: float
    client_latency_ms: Dict[str, List[float]]
    errors: Dict[str, int]
    notifications: int
    stats_frame: Dict


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def drive_open_loop(
    host: str,
    port: int,
    ops: Sequence[SessionOp],
    arrivals: Sequence[float],
    *,
    connections: int = 6,
    time_scale: float = 1.0,
) -> OpenLoopReport:
    """Send ``ops`` at their ``arrivals`` timestamps; measure what comes back.

    The *open-loop* load model: operation ``i`` goes out at
    ``arrivals[i] * time_scale`` seconds after the drive starts,
    whether or not earlier responses have arrived — exactly how
    production traffic behaves (users do not politely wait for each
    other), and the only model under which queueing delay and overload
    are observable at all.  A closed loop self-throttles: it can never
    offer more than the server absorbs, so its latencies look flat
    right up to collapse.

    Sessions are dealt to ``connections`` sockets (every op of one
    session stays on its session's connection); each connection runs a
    paced writer thread and a reader thread that timestamps responses.
    Error frames are counted by code, never raised — shed requests are
    data here, not failures.  Returns an :class:`OpenLoopReport` whose
    ``stats_frame`` is fetched over a fresh connection after the drive.
    """
    import json as _json
    import socket as _socket
    import threading

    if len(ops) != len(arrivals):
        raise ValueError(
            f"ops and arrivals must pair up, got {len(ops)} ops "
            f"and {len(arrivals)} arrivals"
        )
    from repro.query.serialize import spec_to_dict

    per_connection: List[List[Tuple[float, SessionOp]]] = [
        [] for _ in range(connections)
    ]
    for op, arrival in zip(ops, arrivals):
        per_connection[op.session % connections].append(
            (arrival * time_scale, op)
        )

    latencies: Dict[str, List[float]] = {}
    errors: Dict[str, int] = {}
    notifications = [0]
    answered = [0]
    guard = threading.Lock()
    failures: List[BaseException] = []

    def run_connection(plan: List[Tuple[float, SessionOp]]) -> None:
        if not plan:
            return
        sock = _socket.create_connection((host, port), timeout=60)
        reader = sock.makefile("rb")
        try:
            hello = _json.loads(reader.readline())
            assert hello["type"] == "hello"
            # Per-id FIFO: an unsubscribe reuses its subscription's wire
            # id, and the open loop may send it while the subscribed ack
            # is still in flight — a plain dict entry would be
            # overwritten and one response would find nothing to match.
            pending: Dict[int, List[Tuple[str, float]]] = {}
            subscription_ids: Dict[int, int] = {}
            local_notifications = 0
            local_latencies: Dict[str, List[float]] = {}
            local_errors: Dict[str, int] = {}
            done = threading.Event()

            def read_responses() -> None:
                expected = len(plan)
                seen = 0
                nonlocal local_notifications
                while seen < expected:
                    frame = _json.loads(reader.readline())
                    received = time.perf_counter()
                    if frame["type"] == "notify":
                        # A notification reuses its subscription's id:
                        # never pop the pending entry for it.
                        local_notifications += 1
                        continue
                    queue = pending.get(frame.get("id"))
                    kind_latency = queue.pop(0) if queue else None
                    seen += 1
                    if frame["type"] == "error":
                        code = frame["code"]
                        local_errors[code] = (
                            local_errors.get(code, 0) + 1
                        )
                        continue
                    if kind_latency is None:
                        continue  # pragma: no cover - defensive
                    kind, sent = kind_latency
                    local_latencies.setdefault(kind, []).append(
                        (received - sent) * 1000.0
                    )
                done.set()

            collector = threading.Thread(target=read_responses)
            collector.start()
            started = time.perf_counter()
            next_id = 0
            for offset, op in plan:
                next_id += 1
                frame: Dict = {"id": next_id}
                if op.kind in ("window", "area", "knn"):
                    frame["type"] = "query"
                    frame["spec"] = spec_to_dict(op.payload)
                elif op.kind == "insert":
                    x, y = op.payload
                    frame.update(type="insert", x=x, y=y)
                elif op.kind == "subscribe":
                    frame["type"] = "subscribe"
                    frame["spec"] = spec_to_dict(op.payload)
                    subscription_ids[op.session] = next_id
                else:  # "unsubscribe"
                    frame["type"] = "unsubscribe"
                    frame["id"] = subscription_ids.pop(
                        op.session, next_id
                    )
                delay = started + offset - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                pending.setdefault(frame["id"], []).append(
                    (op.kind, time.perf_counter())
                )
                sock.sendall(
                    (_json.dumps(frame) + "\n").encode("utf-8")
                )
            done.wait(timeout=120)
            collector.join(timeout=1)
            with guard:
                notifications[0] += local_notifications
                for kind, values in local_latencies.items():
                    latencies.setdefault(kind, []).extend(values)
                    answered[0] += len(values)
                for code, count in local_errors.items():
                    errors[code] = errors.get(code, 0) + count
                    answered[0] += count
        except BaseException as exc:  # surfaced to the caller below
            failures.append(exc)
        finally:
            sock.close()

    started = time.perf_counter()
    threads = [
        threading.Thread(target=run_connection, args=(plan,))
        for plan in per_connection
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - started
    if failures:
        raise failures[0]

    from repro.server.client import QueryClient

    with QueryClient(host, port) as monitor:
        stats_frame = monitor.stats()
    for values in latencies.values():
        values.sort()
    return OpenLoopReport(
        offered=len(ops),
        answered=answered[0],
        duration_s=duration,
        client_latency_ms=latencies,
        errors=errors,
        notifications=notifications[0],
        stats_frame=stats_frame,
    )


@dataclass
class TailLatencyReport:
    """Per-kind tail latencies of one skewed-traffic drive."""

    report: OpenLoopReport
    rate: float

    def kind_percentiles(self) -> Dict[str, Dict[str, float]]:
        """Client-observed p50/p95/p99 (ms) per op kind, sorted."""
        out: Dict[str, Dict[str, float]] = {}
        for kind in sorted(self.report.client_latency_ms):
            ordered = self.report.client_latency_ms[kind]
            out[kind] = {
                "count": float(len(ordered)),
                "p50_ms": _percentile(ordered, 0.50),
                "p95_ms": _percentile(ordered, 0.95),
                "p99_ms": _percentile(ordered, 0.99),
            }
        return out

    def server_latency(self) -> Dict:
        """The server's own ``latency`` stats section."""
        return self.report.stats_frame["latency"]


def run_tail_latency_experiment(
    config: ExperimentConfig = ExperimentConfig(),
    *,
    data_size: int = 20_000,
    sessions: int = 24,
    ops_per_session: int = 12,
    tiles: int = 12,
    alpha: float = 1.1,
    rate: float = 600.0,
    connections: int = 6,
    burst_probability: float = 0.08,
    burst_size: int = 8,
    window_ms: float = 2.0,
    max_batch: int = 32,
    database: Optional[SpatialDatabase] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> TailLatencyReport:
    """Drive skewed bursty sessions open-loop; report tail latencies.

    The traffic is :func:`make_production_sessions` (Zipf tile
    popularity, mixed reads/writes/subscriptions) paced by
    :func:`~repro.workloads.generators.bursty_arrivals` (Poisson gaps
    with a diurnal wave compressed into the trace and occasional
    thundering-herd bursts) at a mean of ``rate`` ops/second — brisk
    but below capacity, so what the percentiles expose is *queueing
    texture* (bursts stacking into the admission window) rather than
    overload.  Returns a :class:`TailLatencyReport` combining
    client-observed and server-recorded (histogram) percentiles.  Writes
    are absorbed by the Voronoi backend in place, so the tail measures
    queueing, not rebuilds.
    """
    from repro.server.app import ServerThread

    if database is not None:
        db = database
    else:
        if progress is not None:
            progress(f"building database of {data_size:,} points...")
        db = _build_database(data_size, config)
    ops = make_production_sessions(
        sessions=sessions,
        ops_per_session=ops_per_session,
        tiles=tiles,
        alpha=alpha,
        seed=config.seed,
    )
    arrivals = bursty_arrivals(
        len(ops),
        rate,
        seed=config.seed,
        diurnal_period_s=len(ops) / rate,
        diurnal_amplitude=0.5,
        burst_probability=burst_probability,
        burst_size=burst_size,
    )
    if progress is not None:
        progress(
            f"open-loop drive: {len(ops)} ops, {sessions} sessions, "
            f"{rate:g}/s offered over {connections} connections"
        )
    with ServerThread(
        db, window_ms=window_ms, max_batch=max_batch, max_inflight=512
    ) as server:
        report = drive_open_loop(
            server.host,
            server.port,
            ops,
            arrivals,
            connections=connections,
        )
    return TailLatencyReport(report=report, rate=rate)


def render_tail_table(result: TailLatencyReport) -> str:
    """Aligned text table of per-kind client and server percentiles."""
    lines = [
        f"{'kind':<12} {'count':>6} {'p50 ms':>9} "
        f"{'p95 ms':>9} {'p99 ms':>9}"
    ]
    for kind, row in result.kind_percentiles().items():
        lines.append(
            f"{kind:<12} {int(row['count']):>6} {row['p50_ms']:>9.2f} "
            f"{row['p95_ms']:>9.2f} {row['p99_ms']:>9.2f}"
        )
    wait = result.server_latency()["admission_wait"]
    lines.append(
        f"{'admission':<12} {wait['count']:>6} {wait['p50_ms']:>9.2f} "
        f"{wait['p95_ms']:>9.2f} {wait['p99_ms']:>9.2f}"
    )
    return "\n".join(lines)


@dataclass
class OverloadReport:
    """Outcome of a sustained 2x-capacity overload drive."""

    #: sustainable throughput measured in the calibration phase (req/s)
    capacity_rps: float
    #: offered rate of the overload phase (req/s)
    offered_rps: float
    #: requests admitted and answered with a result
    admitted: int
    #: requests shed with an ``overloaded`` error
    shed: int
    #: client-observed p99 of *admitted* window queries (ms)
    admitted_p99_ms: float
    #: the duration-independent bound the p99 must stay under (ms)
    p99_bound_ms: float
    #: the server's closing stats frame
    stats_frame: Dict

    @property
    def shed_rate(self) -> float:
        """Fraction of offered queries shed (0.0 when none offered)."""
        offered = self.admitted + self.shed
        return self.shed / offered if offered else 0.0


def run_overload_experiment(
    config: ExperimentConfig = ExperimentConfig(),
    *,
    data_size: int = 20_000,
    query_size: float = 0.002,
    calibration_requests: int = 400,
    calibration_clients: int = 4,
    overload_factor: float = 2.0,
    duration_s: float = 2.0,
    connections: int = 8,
    window_ms: float = 1.0,
    max_batch: int = 8,
    max_queue: int = 32,
    bound_slack: float = 8.0,
    database: Optional[SpatialDatabase] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> OverloadReport:
    """Prove bounded tail latency under sustained overload.

    Phase 1 *calibrates capacity*: ``calibration_clients`` closed-loop
    clients hammer the server as fast as round-trips allow; their
    aggregate throughput is what this host can actually sustain.
    Phase 2 *offers ``overload_factor`` times that* open-loop for
    ``duration_s`` seconds against a server with a deliberately small
    admission queue (``max_queue``).  Without backpressure the queue —
    and with it the latency of every admitted request — would grow
    linearly for the whole duration; with the bounded queue the server
    sheds the excess (``overloaded`` + retry hint) and an admitted
    request waits at most ``max_queue`` service times.  The report's
    ``p99_bound_ms`` is exactly that product (times ``bound_slack``
    for scheduling noise, plus the admission window): a
    **duration-independent** ceiling — the observable that load
    shedding works — while ``shed_rate`` rises with the overload.
    """
    from repro.server.app import ServerThread

    if database is not None:
        db = database
    else:
        if progress is not None:
            progress(f"building database of {data_size:,} points...")
        db = _build_database(data_size, config)
    def distinct_windows(count: int, seed: int) -> List[WindowQuery]:
        """``count`` all-distinct small windows (no result-cache hits).

        Calibration must measure real execution throughput, so its
        trace has the same shape as the overload phase: every window
        unique.  A repeated trace would calibrate the LRU result cache
        instead and overstate capacity several-fold.
        """
        rng = random.Random(seed)
        side = math.sqrt(query_size)
        out = []
        for _ in range(count):
            cx = rng.uniform(0.1, 0.9)
            cy = rng.uniform(0.1, 0.9)
            out.append(
                WindowQuery(
                    (
                        cx - side / 2,
                        cy - side / 2,
                        cx + side / 2,
                        cy + side / 2,
                    ),
                    limit=64,
                )
            )
        return out

    trace = distinct_windows(calibration_requests, config.seed + 1)

    with ServerThread(
        db, window_ms=window_ms, max_batch=max_batch
    ) as server:
        started = time.perf_counter()
        serve_trace_concurrent(
            server.host, server.port, trace, calibration_clients
        )
        calibration_s = time.perf_counter() - started
    capacity_rps = len(trace) / calibration_s
    service_ms = 1000.0 / capacity_rps
    if progress is not None:
        progress(
            f"calibrated capacity: {capacity_rps:,.0f} req/s "
            f"({service_ms:.3f} ms/request)"
        )

    offered_rps = capacity_rps * overload_factor
    count = int(offered_rps * duration_s)
    ops = [
        SessionOp("window", spec, session=i)
        for i, spec in enumerate(
            distinct_windows(count, config.seed)
        )
    ]
    arrivals = bursty_arrivals(
        count,
        offered_rps,
        seed=config.seed,
        burst_probability=0.05,
        burst_size=max_batch,
    )
    if progress is not None:
        progress(
            f"overload drive: {count} requests at {offered_rps:,.0f}/s "
            f"({overload_factor:g}x capacity), max_queue={max_queue}"
        )
    with ServerThread(
        db,
        window_ms=window_ms,
        max_batch=max_batch,
        max_queue=max_queue,
        max_inflight=10_000,
    ) as server:
        report = drive_open_loop(
            server.host,
            server.port,
            ops,
            arrivals,
            connections=connections,
        )
    admitted_latencies = report.client_latency_ms.get("window", [])
    admitted_p99 = _percentile(admitted_latencies, 0.99)
    shed = report.errors.get("overloaded", 0)
    p99_bound_ms = window_ms + max_queue * service_ms * bound_slack
    return OverloadReport(
        capacity_rps=capacity_rps,
        offered_rps=offered_rps,
        admitted=len(admitted_latencies),
        shed=shed,
        admitted_p99_ms=admitted_p99,
        p99_bound_ms=p99_bound_ms,
        stats_frame=report.stats_frame,
    )


def render_overload_table(result: OverloadReport) -> str:
    """Aligned text summary of one overload drive."""
    coalescer = result.stats_frame["coalescer"]
    rows = [
        ("capacity (calibrated)", f"{result.capacity_rps:,.0f} req/s"),
        ("offered", f"{result.offered_rps:,.0f} req/s"),
        ("admitted", f"{result.admitted}"),
        ("shed (overloaded)", f"{result.shed}"),
        ("shed rate", f"{result.shed_rate:.1%}"),
        ("admitted p99", f"{result.admitted_p99_ms:.2f} ms"),
        ("p99 bound", f"{result.p99_bound_ms:.2f} ms"),
        ("queue peak", f"{coalescer['queue_peak']}"),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(
        f"{label:<{width}}  {value}" for label, value in rows
    )


_TARGETS = (
    "table1",
    "table2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "batch",
    "mixed",
    "composite",
    "serve",
    "tail",
    "overload",
    "all",
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line driver: regenerate the requested tables/figures."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("target", choices=_TARGETS)
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's full parameters (1E5..1E6 points, 1000 reps); "
        "slow in pure Python",
    )
    parser.add_argument(
        "--repetitions", type=int, default=None, help="override repetitions"
    )
    parser.add_argument(
        "--data-size",
        type=int,
        default=None,
        help="fixed data size for the query-size sweep",
    )
    parser.add_argument(
        "--batch-distinct",
        type=int,
        default=30,
        help="batch target: distinct regions in the trace",
    )
    parser.add_argument(
        "--batch-repeat",
        type=int,
        default=3,
        help="batch target: repetitions of each region in the trace",
    )
    parser.add_argument(
        "--batch-query-size",
        type=float,
        default=0.01,
        help="batch target: query size of the trace regions",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=8,
        help="serve target: concurrent client connections",
    )
    parser.add_argument(
        "--window-ms",
        type=float,
        default=5.0,
        help="serve target: cross-client coalescing window",
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=24,
        help="tail target: concurrent tenant sessions in the trace",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=600.0,
        help="tail target: mean offered ops/second",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=32,
        help="overload target: coalescer admission-queue bound",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=2.0,
        help="overload target: seconds of sustained 2x-capacity load",
    )
    args = parser.parse_args(argv)

    config = (
        ExperimentConfig.paper_scale()
        if args.paper_scale
        else ExperimentConfig()
    )
    if args.repetitions is not None:
        config = replace(config, repetitions=args.repetitions)
    if args.data_size is not None:
        config = replace(config, fixed_data_size=args.data_size)

    def progress(message: str) -> None:
        print(f"  [{message}]", file=sys.stderr)

    if args.target in ("batch", "all"):
        batch_rows = run_batch_throughput_experiment(
            config,
            data_size=args.data_size or 10_000,
            distinct=args.batch_distinct,
            repeat=args.batch_repeat,
            query_size=args.batch_query_size,
            progress=progress,
        )
        print(
            "\nBatch engine throughput "
            f"({args.batch_distinct} regions x {args.batch_repeat} hits, "
            f"query size {args.batch_query_size:.0%}):"
        )
        print(render_batch_table(batch_rows))
        if args.target == "batch":
            return 0

    if args.target in ("mixed", "all"):
        mixed_rows = run_mixed_throughput_experiment(
            config,
            data_size=args.data_size or 10_000,
            distinct=args.batch_distinct,
            repeat=args.batch_repeat,
            query_size=args.batch_query_size,
            progress=progress,
        )
        print(
            "\nHeterogeneous batch throughput (mixed area/window/knn/"
            f"nearest specs, {args.batch_distinct} distinct x "
            f"{args.batch_repeat} hits):"
        )
        print(render_batch_table(mixed_rows))
        if args.target == "mixed":
            return 0

    if args.target in ("serve", "all"):
        serve_rows = run_serve_throughput_experiment(
            config,
            data_size=args.data_size or 10_000,
            clients=args.clients,
            distinct=args.batch_distinct,
            repeat=args.batch_repeat,
            query_size=args.batch_query_size,
            window_ms=args.window_ms,
            progress=progress,
        )
        print(
            f"\nServed throughput over the NDJSON wire ({args.clients} "
            f"coalesced clients vs one sequential client, "
            f"{args.batch_distinct} regions x {args.batch_repeat} hits):"
        )
        print(render_batch_table(serve_rows))
        if args.target == "serve":
            return 0

    if args.target in ("composite", "all"):
        composite_rows = run_composite_throughput_experiment(
            config,
            data_size=args.data_size or 10_000,
            distinct=args.batch_distinct,
            query_size=min(args.batch_query_size, 0.001),
            progress=progress,
        )
        print(
            "\nComposite decomposition throughput (unions/intersections/"
            f"differences of 4 sibling regions, {args.batch_distinct} "
            "distinct specs):"
        )
        print(render_batch_table(composite_rows))
        if args.target == "composite":
            return 0

    if args.target == "tail":
        tail = run_tail_latency_experiment(
            config,
            data_size=args.data_size or 20_000,
            sessions=args.sessions,
            rate=args.rate,
            window_ms=min(args.window_ms, 2.0),
            progress=progress,
        )
        print(
            f"\nTail latency under skewed bursty traffic "
            f"({args.sessions} sessions, {args.rate:g} ops/s offered):"
        )
        print(render_tail_table(tail))
        return 0

    if args.target == "overload":
        overload = run_overload_experiment(
            config,
            data_size=args.data_size or 20_000,
            max_queue=args.max_queue,
            duration_s=args.duration,
            progress=progress,
        )
        print(
            f"\nOverload shedding at "
            f"{overload.offered_rps / overload.capacity_rps:.1f}x "
            f"calibrated capacity (max_queue={args.max_queue}):"
        )
        print(render_overload_table(overload))
        return 0

    need_data = args.target in ("table1", "fig4", "fig5", "all")
    need_query = args.target in ("table2", "fig6", "fig7", "all")

    data_rows = (
        run_data_size_sweep(config, progress=progress) if need_data else []
    )
    query_rows = (
        run_query_size_sweep(config, progress=progress) if need_query else []
    )

    if args.target in ("table1", "all"):
        print("\nTable I — data-size sweep "
              f"(query size {config.fixed_query_size:.0%}):")
        print(render_table(data_rows, parameter_label="Data size"))
    if args.target in ("fig4", "all"):
        print()
        print(
            render_figure(
                data_rows, value="time", title="Fig. 4 — time vs data size"
            )
        )
    if args.target in ("fig5", "all"):
        print()
        print(
            render_figure(
                data_rows,
                value="redundant",
                title="Fig. 5 — redundant validations vs data size",
            )
        )
    if args.target in ("table2", "all"):
        print(f"\nTable II — query-size sweep "
              f"(data size {config.fixed_data_size:,}):")
        print(
            render_table(
                query_rows, parameter_label="Query size", as_query_size=True
            )
        )
    if args.target in ("fig6", "all"):
        print()
        print(
            render_figure(
                query_rows,
                value="time",
                title="Fig. 6 — time vs query size",
                as_query_size=True,
            )
        )
    if args.target in ("fig7", "all"):
        print()
        print(
            render_figure(
                query_rows,
                value="redundant",
                title="Fig. 7 — redundant validations vs query size",
                as_query_size=True,
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
