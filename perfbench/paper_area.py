"""Workload ``paper_area``: the paper's experiment, in-process.

Closed loop, one thread.  Uniform points in a scipy-backed
``SpatialDatabase``; star polygons in three size classes; every polygon
answered back-to-back by ``method="voronoi"`` then ``"traditional"``
through ``db.query(spec).ids()``, whole passes until the time is up.
Only top-level ``repro`` exports are used.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import inputs, procs, tracing


def _setup(config: dict, seed: int) -> dict:
    """Inputs, database, structures, warm-up: everything before op one."""
    from repro import AreaQuery, Point, Polygon, SpatialDatabase

    started = time.perf_counter()
    rng = np.random.default_rng([seed, 1])
    xy = inputs.make_points(rng, config["points"])
    polygons = []
    for label, share, count in config["classes"]:
        for _ in range(count):
            ring = inputs.star_polygon(rng, share)
            region = Polygon([Point(x, y) for x, y in ring])
            polygons.append(
                {
                    "class": label,
                    "ring": ring,
                    "voronoi": AreaQuery(region, method="voronoi"),
                    "traditional": AreaQuery(region, method="traditional"),
                }
            )
    order = rng.permutation(len(polygons))
    polygons = [polygons[i] for i in order]
    db = SpatialDatabase.from_arrays(xy[:, 0], xy[:, 1], backend_kind="scipy").prepare()
    seen = set()
    for polygon in polygons:  # one of each class warms every lazy path
        if polygon["class"] not in seen:
            seen.add(polygon["class"])
            db.query(polygon["voronoi"]).ids()
            db.query(polygon["traditional"]).ids()
    return {
        "db": db,
        "xy": xy,
        "polygons": polygons,
        "setup_s": time.perf_counter() - started,
    }


def _timed_loop(context: dict, seconds: float) -> dict:
    """Whole passes over the polygons, as many as fit in ``seconds``."""
    db, polygons = context["db"], context["polygons"]
    clock = time.perf_counter
    samples = {"voronoi": [], "traditional": []}  # ms, in polygon order, pass after pass
    op_starts_ns = []
    mismatches = 0
    first_pass = []  # (voronoi handle, traditional handle) per polygon
    canary = [inputs.canary_ms()]
    started = clock()
    pass_s = 0.0
    # every polygon weighs the same in every run: stop before a pass
    # that would not finish in time (one pass always runs)
    while not first_pass or clock() - started + pass_s <= seconds:
        pass_started = clock()
        for polygon in polygons:
            op_starts_ns.append(time.perf_counter_ns())
            t0 = clock()
            voronoi = db.query(polygon["voronoi"])
            voronoi_ids = voronoi.ids()
            t1 = clock()
            traditional = db.query(polygon["traditional"])
            traditional_ids = traditional.ids()
            t2 = clock()
            samples["voronoi"].append((t1 - t0) * 1000.0)
            samples["traditional"].append((t2 - t1) * 1000.0)
            mismatches += voronoi_ids != traditional_ids
            if len(first_pass) < len(polygons):
                first_pass.append((voronoi, traditional))
        pass_s = clock() - pass_started
    loop_s = clock() - started
    canary.append(inputs.canary_ms())
    return {
        "samples": samples,
        "loop_s": loop_s,
        "op_starts_ns": np.asarray(op_starts_ns),
        "mismatches": mismatches,
        "first_pass": first_pass,
        "canary": canary,
    }


def _check_oracle(context: dict, loop: dict) -> int:
    """Every polygon's first-pass ids against the brute-force oracle."""
    xs, ys = context["xy"][:, 0], context["xy"][:, 1]
    wrong = 0
    for polygon, (voronoi, _) in zip(context["polygons"], loop["first_pass"]):
        expected = inputs.expected_ids(inputs.area_spec(polygon["ring"]), xs, ys)
        wrong += voronoi.ids() != expected
    return wrong


def _client_metrics(context: dict, loop: dict) -> dict:
    """What the caller sees, plus the counters the results carry."""
    classes = np.array([polygon["class"] for polygon in context["polygons"]])
    metrics = {}
    every = []
    for method, samples in loop["samples"].items():
        ms = np.array(samples)
        of_class = np.tile(classes, len(ms) // len(classes))
        every.append(ms)
        metrics[f"{method}_ms_p50"] = float(np.median(ms))
        for label in ("small", "medium", "large"):
            metrics[f"core.{method}_ms_p50.{label}"] = float(np.median(ms[of_class == label]))
        stats = [handles[method == "traditional"].stats for handles in loop["first_pass"]]
        results = sum(s.result_size for s in stats)
        validations = sum(s.validations for s in stats)
        metrics[f"core.candidates_per_result.{method}"] = (
            sum(s.candidates for s in stats) / results if results else None
        )
        metrics[f"core.redundant_share.{method}"] = (
            sum(s.redundant_validations for s in stats) / validations if validations else None
        )
        if method == "voronoi":
            metrics["core.segment_tests_per_op"] = sum(s.segment_tests for s in stats) / len(stats)
        else:
            metrics["index.node_accesses_per_op"] = sum(
                s.index_node_accesses for s in stats
            ) / len(stats)
    every = np.concatenate(every)
    metrics["ops_per_s"] = len(every) / loop["loop_s"]
    metrics["op_ms_p50"] = float(np.percentile(every, 50))
    metrics["op_ms_p99"] = float(np.percentile(every, 99))
    metrics["gen.canary_ms"] = float(np.median(loop["canary"]))
    return metrics


def _span_metrics(spans: tracing.Spans, context: dict, loop: dict, setup_ns: int) -> dict:
    """Per-layer numbers of the traced half."""
    loop_ns = int(loop["op_starts_ns"][0])
    # the polygon an in-loop span belongs to, by its start instant
    polygon_of = np.searchsorted(loop["op_starts_ns"], spans.start, side="right") - 1
    large = np.array(
        [p["class"] == "large" for p in context["polygons"]]
    )[polygon_of % len(context["polygons"])] & (spans.start >= loop_ns)
    return {
        "geometry.contains_many_ns_per_point": spans.ns_per_item(
            "geometry.contains_many", loop_ns, within=large
        ),
        "index.window_probe_ms_p50": spans.p50_ms("index.window_ids_array", loop_ns),
        "index.nn_seed_ms_p50": spans.p50_ms("index.nearest_neighbor", loop_ns),
        "index.build_s": spans.total_s("index.bulk_load", setup_ns, loop_ns),
        "delaunay.build_s": spans.total_s(
            ("delaunay.make_backend", "delaunay.neighbor_table"), setup_ns, loop_ns
        ),
        "delaunay.csr_build_s": spans.total_s("delaunay.neighbor_csr", setup_ns, loop_ns),
        "core.voronoi_self_ms_per_op": spans.self_ms_per_call("core.voronoi_area_query", loop_ns),
        "core.traditional_self_ms_per_op": spans.self_ms_per_call(
            "core.traditional_area_query", loop_ns
        ),
        "core.graph_nearest_ms_p50": spans.p50_ms("core.graph_nearest", loop_ns),
        "query.overhead_ms_per_op": spans.self_ms_per_call("query.execute_spec", loop_ns),
        "trace.spans": float(len(spans.ms)),
        "trace.unresolved_spans": float(len(spans.unresolved)),
    }


def run(config: dict, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns metrics, attempted/failed counts and the spans."""
    context = _setup(config, seed)
    loop = _timed_loop(context, seconds / 2 if trace else seconds)
    metrics = _client_metrics(context, loop)
    metrics["setup_s"] = context["setup_s"]
    operations = 2 * len(loop["samples"]["voronoi"])
    attempted = operations
    failed = 2 * loop["mismatches"] + _check_oracle(context, loop)
    result = {
        "metrics": metrics,
        "samples": {
            "ops_per_s": operations,
            "op_ms_p50": operations,
            "op_ms_p99": operations,
            "voronoi_ms_p50": operations // 2,
            "traditional_ms_p50": operations // 2,
        },
    }
    if trace:
        del context, loop  # one database alive at a time, or peak_rss_mb doubles
        recorder = tracing.Recorder()
        tracing.import_program()
        tracing.install(recorder)
        setup_ns = time.perf_counter_ns()
        traced_context = _setup(config, seed)
        traced_loop = _timed_loop(traced_context, seconds / 2)
        spans = tracing.Spans(recorder.columns())
        metrics.update(_span_metrics(spans, traced_context, traced_loop, setup_ns))
        traced_rate = _client_metrics(traced_context, traced_loop)["ops_per_s"]
        metrics["trace.overhead_share"] = 1.0 - traced_rate / metrics["ops_per_s"]
        failed += 2 * traced_loop["mismatches"]
        attempted += 2 * len(traced_loop["samples"]["voronoi"])
        result["spans"] = recorder
        result["layers_seen"] = sorted(spans.layers_seen())
        result["unresolved_spans"] = spans.unresolved
    metrics["peak_rss_mb"] = procs.own_peak_rss_mb()
    result.update(attempted=attempted, failed=failed)
    return result
