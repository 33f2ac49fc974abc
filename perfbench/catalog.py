"""Every workload and metric by name: the source of ``BENCHMARK.json``.

``python3 perfbench/run.py --list`` prints :func:`manifest`, and
``BENCHMARK.json`` is that output committed; ``test_smoke.py`` checks the
two agree.
"""

from __future__ import annotations

RUN_SECONDS = 22

WORKLOADS = (
    (
        "paper_area",
        "the paper's experiment in-process: voronoi vs traditional on the same polygons; "
        "loads geometry, index, delaunay, core and bypasses engine cache, server, cluster, live",
    ),
    (
        "serve_hot",
        "read-mostly map traffic with repeats over the wire; loads the engine cache/dedup, "
        "the server coalescer and the codec, and core does little",
    ),
    (
        "serve_rw_live",
        "distinct reads beside writes and 1050 standing queries; loads store MVCC, index and "
        "delaunay maintenance and live fan-out, and the cache is bypassed",
    ),
    (
        "cluster_scatter",
        "distinct reads through the 2-worker router; loads cover, shard RPC and gather with "
        "nothing cacheable",
    ),
)

PAPER = ("paper_area",)
HOT = ("serve_hot",)
LIVE = ("serve_rw_live",)
CLUSTER = ("cluster_scatter",)
SERVE = HOT + LIVE
SERVED = SERVE + CLUSTER
ALL = PAPER + SERVED

# What a user of the system sees: (name, unit, better, bound, workloads it
# is measured on, meaning).  ``bound`` is the share of the parent's median
# by which the metric may worsen; compare.py judges every row by it.
USER_VISIBLE = (
    ("setup_s", "s", "lower", 0.25, ALL,
     "input generation to first timed op ready: data loaded, structures built, warm-up done"),
    ("peak_rss_mb", "MiB", "lower", 0.15, ALL,
     "summed VmHWM of the program's processes (the bench process in paper_area)"),
    ("ops_per_s", "op/s", "higher", 0.10, ALL,
     "correct operations completed per second: the timed loop on paper_area, the closed-loop "
     "phase on served workloads"),
    ("op_ms_p50", "ms", "lower", 0.10, ALL,
     "median latency of one read; served: open-loop phase, from the instant it was due"),
    ("op_ms_p99", "ms", "lower", 0.10, ALL, "as op_ms_p50, 99th percentile"),
    ("voronoi_ms_p50", "ms", "lower", 0.10, PAPER,
     "one AreaQuery(method='voronoi') via db.query(spec).ids()"),
    ("traditional_ms_p50", "ms", "lower", 0.10, PAPER,
     "the same polygon with method='traditional': the paper's baseline"),
    ("write_ms_p50", "ms", "lower", 0.10, LIVE, "write due to its ack read"),
    ("write_ms_p95", "ms", "lower", 0.10, LIVE, "as write_ms_p50, 95th percentile"),
    ("notify_ms_p50", "ms", "lower", 0.10, LIVE,
     "write due to its first notify delta read on the subscriber connection"),
    ("notify_ms_p95", "ms", "lower", 0.10, LIVE, "as notify_ms_p50, 95th percentile"),
)

#: The user-visible metrics steady enough on this box to be the contract's
#: ``end_to_end`` (README, "Which metrics are bounded"); the contract also
#: wants each measured, and never 0, on every workload.  The others are
#: listed, without a bound, among its ``per_layer``.
CONTRACT = ("setup_s", "peak_rss_mb")

# (name, unit, better, workloads it is measured on, meaning)
LAYER = (
    ("failed_share", "ratio", "lower", ALL,
     "(errors + refusals + time-outs + oracle mismatches) / operations attempted"),
    ("geometry.contains_many_ns_per_point", "ns", "lower", PAPER,
     "Polygon.contains_many span time per point tested, large class"),
    ("index.window_probe_ms_p50", "ms", "lower", PAPER + SERVE, "window_ids_array span"),
    ("index.nn_seed_ms_p50", "ms", "lower", PAPER + LIVE,
     "nearest_neighbor span (the Voronoi seed lookup)"),
    ("index.node_accesses_per_op", "count", "lower", PAPER,
     "QueryStats.index_node_accesses per traditional query"),
    ("index.build_s", "s", "lower", PAPER + SERVE, "bulk_load spans in set-up"),
    ("index.write_ms_p50", "ms", "lower", LIVE, "index insert/delete span"),
    ("delaunay.build_s", "s", "lower", PAPER + SERVE,
     "make_backend + neighbor_table spans in set-up"),
    ("delaunay.csr_build_s", "s", "lower", PAPER, "neighbor_csr spans in set-up and warm-up"),
    ("delaunay.add_point_ms_p50", "ms", "lower", LIVE, "incremental insertion span"),
    ("delaunay.rebuilds", "count", "lower", LIVE,
     "make_backend spans after set-up; must stay 0"),
    ("io.load_database_s", "s", "lower", SERVE, "load_database span"),
    ("core.store_write_us_p50", "us", "lower", LIVE, "PointStore.append/delete span"),
    ("core.voronoi_self_ms_per_op", "ms", "lower", PAPER,
     "voronoi_area_query self time per query"),
    ("core.traditional_self_ms_per_op", "ms", "lower", PAPER,
     "traditional_area_query self time per query"),
    ("core.graph_nearest_ms_p50", "ms", "lower", LIVE, "graph_nearest span"),
    ("core.voronoi_ms_p50.small", "ms", "lower", PAPER, "untraced median, small class"),
    ("core.voronoi_ms_p50.medium", "ms", "lower", PAPER, "untraced median, medium class"),
    ("core.voronoi_ms_p50.large", "ms", "lower", PAPER, "untraced median, large class"),
    ("core.traditional_ms_p50.small", "ms", "lower", PAPER, "untraced median, small class"),
    ("core.traditional_ms_p50.medium", "ms", "lower", PAPER, "untraced median, medium class"),
    ("core.traditional_ms_p50.large", "ms", "lower", PAPER, "untraced median, large class"),
    ("core.candidates_per_result.voronoi", "ratio", "lower", PAPER,
     "QueryStats candidates / result size; repeats exactly for a seed"),
    ("core.candidates_per_result.traditional", "ratio", "lower", PAPER, "as above"),
    ("core.redundant_share.voronoi", "ratio", "lower", PAPER,
     "redundant validations / validations"),
    ("core.redundant_share.traditional", "ratio", "lower", PAPER, "as above"),
    ("core.segment_tests_per_op", "count", "lower", PAPER,
     "QueryStats.segment_tests per voronoi query"),
    ("core.knn_ms_p50", "ms", "lower", SERVE,
     "voronoi_knn_query or index k_nearest_neighbors span"),
    ("query.overhead_ms_per_op", "ms", "lower", PAPER,
     "execute_spec self time per query (spec handling around core)"),
    ("query.spec_from_dict_us_p50", "us", "lower", SERVED, "spec_from_dict span"),
    ("engine.plan_us_p50", "us", "lower", SERVE, "QueryPlanner.plan span"),
    ("engine.run_specs_ms_per_spec", "ms", "lower", SERVE,
     "run_specs span time per spec of the batch"),
    ("engine.cache_hit_share", "ratio", "higher", SERVED,
     "stats frame engine.cache_hits / total_queries over the timed phases"),
    ("engine.duplicate_hit_share", "ratio", "higher", SERVED, "duplicate_hits / total_queries"),
    ("engine.shared_window_share", "ratio", "higher", SERVED,
     "shared_window_queries / total_queries"),
    ("engine.seed_walk_share", "ratio", "higher", SERVED, "seed_walk_reuses / total_queries"),
    ("engine.voronoi_plan_share", "ratio", "higher", HOT,
     "area reads whose result stats.method is voronoi"),
    ("live.apply_write_ms_p50", "ms", "lower", LIVE, "SubscriptionRegistry.apply_write span"),
    ("live.evaluations_per_write", "count", "lower", LIVE,
     "stats frame subscriptions.evaluations / writes"),
    ("live.prune_ratio", "ratio", "higher", LIVE,
     "1 - evaluations / (writes x active subscriptions)"),
    ("live.register_us_p50", "us", "lower", LIVE, "register span"),
    ("server.decode_us_p50", "us", "lower", SERVED, "decode_frame span"),
    ("server.encode_us_p50", "us", "lower", SERVED, "encode_frame span"),
    ("server.pack_ids_ns_per_id", "ns", "lower", SERVED, "pack_ids span time per id"),
    ("server.admission_wait_ms_mean", "ms", "lower", SERVED,
     "stats frame latency.admission_wait, mean over the timed phases"),
    ("server.admission_wait_ms_p99", "ms", "lower", SERVED,
     "as above, 99th percentile (log2 bucket upper edge)"),
    ("server.mean_batch_size", "count", "higher", SERVED, "coalescer requests / batches"),
    ("server.multi_client_batch_share", "ratio", "higher", SERVED,
     "coalescer multi_client_batches / batches"),
    ("server.window_flush_share", "ratio", "lower", SERVED,
     "coalescer window_flushes / batches"),
    ("server.service_ms_mean.window", "ms", "lower", SERVED,
     "stats frame latency.kinds mean, admission to response written"),
    ("server.service_ms_mean.knn", "ms", "lower", SERVED, "as above"),
    ("server.service_ms_mean.area", "ms", "lower", HOT + CLUSTER, "as above"),
    ("server.service_ms_mean.write", "ms", "lower", LIVE, "as above"),
    ("server.wire_overhead_ms_mean", "ms", "lower", SERVED,
     "closed-loop client mean latency minus server service mean"),
    ("server.cpu_s_per_kop", "s", "lower", SERVE,
     "server process CPU seconds per 1000 operations"),
    ("server.shed_share", "ratio", "lower", SERVED, "queries_shed / requests"),
    ("cluster.router_overhead_ms_p50", "ms", "lower", CLUSTER,
     "router round trip minus a like window sent straight to the owning worker"),
    ("cluster.cover_us_p50", "us", "lower", CLUSTER,
     "workers_for_bounds/circle span in the router"),
    ("cluster.shard_rpc_ms_p50", "ms", "lower", CLUSTER, "RemoteShard.query_ids span"),
    ("cluster.gather_self_ms_p50", "ms", "lower", CLUSTER,
     "ClusterCoordinator.query self time (translate + merge)"),
    ("cluster.fanout_per_read", "count", "lower", CLUSTER,
     "worker requests_total delta / router reads"),
    ("cluster.cpu_s_per_kop.router", "s", "lower", CLUSTER,
     "router CPU seconds per 1000 operations"),
    ("cluster.cpu_s_per_kop.workers", "s", "lower", CLUSTER,
     "workers' CPU seconds per 1000 operations"),
    ("cluster.load_rows_per_s", "1/s", "higher", CLUSTER,
     "rows bulk-loaded through the router per second"),
    ("cluster.degraded_share", "ratio", "lower", CLUSTER,
     "degraded results / reads; must stay 0"),
    ("cluster.failovers", "count", "lower", CLUSTER, "must stay 0"),
    ("gen.late_ms_p90", "ms", "lower", SERVED,
     "how late the open-loop generator sent, from when it could"),
    ("gen.late_ms_p99", "ms", "lower", SERVED,
     "as above, 99th percentile; an idle sleeper on this box wakes 1.0-1.2 ms late at p99"),
    ("gen.held_share", "ratio", "lower", SERVED,
     "open-loop requests held back by the 24-in-flight cap of their connection"),
    ("gen.cpu_share", "ratio", "lower", SERVED, "generator CPU / wall in the open loop"),
    ("gen.backlog_end", "count", "lower", SERVED, "requests in flight when the schedule ended"),
    ("gen.saturated", "count", "lower", SERVED,
     "1 if the generator sent > 1 ms late at p90, used > 0.6 of a core or the backlog grew"),
    ("gen.canary_ms", "ms", "lower", ALL, "fixed kernel timed around every phase, median"),
    ("trace.overhead_share", "ratio", "lower", ALL,
     "1 - traced / untraced ops_per_s; spans mean little above 0.3"),
    ("trace.spans", "count", "higher", ALL, "spans recorded in the traced half"),
    ("trace.unresolved_spans", "count", "lower", ALL,
     "span targets that no longer resolve; 0 at seed"),
)

END_TO_END = tuple(
    (name, unit, better, bound)
    for name, unit, better, bound, _, _ in USER_VISIBLE
    if name in CONTRACT
)
PER_LAYER = tuple(
    (name, unit, better)
    for name, unit, better, _, _, _ in USER_VISIBLE
    if name not in CONTRACT
) + tuple((name, unit, better) for name, unit, better, _, _ in LAYER)

#: metric -> the workloads it is measured on
MEASURED_ON = {entry[0]: entry[4] for entry in USER_VISIBLE}
MEASURED_ON.update((entry[0], entry[3]) for entry in LAYER)

END_TO_END_NAMES = tuple(entry[0] for entry in END_TO_END)
PER_LAYER_NAMES = tuple(entry[0] for entry in PER_LAYER)
UNITS = {entry[0]: entry[1] for entry in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }
