"""The served workloads: ``serve_hot``, ``serve_rw_live``, ``cluster_scatter``.

Each starts ``python -m repro serve|cluster`` as a subprocess and speaks
wire protocol v1 to it with hand-built frames.  A run is: set-up (boot,
load, subscribe, warm-up), a closed-loop phase (``ops_per_s``), an
open-loop phase at the frozen rate (latencies), then — outside the
timing — the correctness checks and the teardown.
"""

from __future__ import annotations

import os
import re
import time
import zlib

import numpy as np

from perfbench import inputs, procs, tracing
from perfbench.loadgen import LoadGenerator, Op, Wire, frame_ids, poisson_schedule
from perfbench.settings import CLOSED_SHARE, ORACLE_EVERY

READ_KINDS = ("window", "knn", "area")
WRITE_KINDS = ("delete", "insert")

#: Upper estimates of the closed-loop rate (requests per second), only
#: to size the pre-encoded traces.
TRACE_RATE = {"serve_hot": 8000, "serve_rw_live": 3000, "cluster_scatter": 1500}


def _query(spec: dict) -> dict:
    return {"type": "query", "spec": spec, "packed": True}


# -- traces -------------------------------------------------------------------


class HotTraffic:
    """Zipf over home tiles; most requests repeat exactly, some never do."""

    def __init__(self, rng: np.random.Generator, config: dict) -> None:
        self.rng = rng
        side = config["tiles"]
        self.tile = 1.0 / side
        ranks = np.arange(1, side * side + 1, dtype=float) ** -config["zipf"]
        self.tile_share = ranks / ranks.sum()
        self.tile_of_rank = rng.permutation(side * side)
        self.side = side
        # four fixed viewports and four fixed points of interest per tile
        self.viewports = rng.random((side * side, 4, 2)) * (self.tile - 0.02)
        self.pois = rng.random((side * side, 4, 2)) * self.tile
        self.page = config["page"]

    def ops(self, count: int) -> list:
        rng = self.rng
        tiles = self.tile_of_rank[rng.choice(len(self.tile_share), count, p=self.tile_share)]
        kinds = rng.choice(4, count, p=(0.70, 0.15, 0.10, 0.05))
        picks = rng.integers(0, 4, count)
        jitter = rng.random((count, 2))
        ops = []
        for tile, kind, pick, (jx, jy) in zip(tiles, kinds, picks, jitter):
            x0, y0 = (tile % self.side) * self.tile, (tile // self.side) * self.tile
            if kind == 0:  # a fixed, paginated viewport: an exact repeat
                dx, dy = self.viewports[tile, pick]
                spec = inputs.window_spec(x0 + dx, y0 + dy, 0.02, self.page)
                ops.append(Op("window", _query(spec)))
            elif kind == 1:
                dx, dy = self.pois[tile, pick]
                ops.append(Op("knn", _query(inputs.knn_spec(x0 + dx, y0 + dy, 10))))
            elif kind == 2:  # a jittered viewport: never repeats
                span = self.tile - 0.02
                spec = inputs.window_spec(x0 + jx * span, y0 + jy * span, 0.02)
                ops.append(Op("window", _query(spec)))
            else:
                ring = np.asarray(inputs.star_polygon(rng, 0.001))
                ring = ring - ring.min(axis=0)
                room = self.tile - ring.max(axis=0)
                ring = ring + (x0 + jx * room[0], y0 + jy * room[1])
                ops.append(Op("area", _query(inputs.area_spec(ring.tolist()))))
        return ops


class DistinctReads:
    """All-distinct reads; the mix is (kind, share, parameter) rows."""

    def __init__(self, rng: np.random.Generator, mix: tuple) -> None:
        self.rng = rng
        self.mix = mix

    def op(self) -> Op:
        rng = self.rng
        kind, _, parameter = self.mix[rng.choice(len(self.mix), p=[m[1] for m in self.mix])]
        if kind == "window":
            x, y = rng.random(2) * (1.0 - parameter)
            return Op("window", _query(inputs.window_spec(x, y, parameter)))
        if kind == "knn":
            x, y = rng.random(2)
            return Op("knn", _query(inputs.knn_spec(x, y, parameter)))
        return Op("area", _query(inputs.area_spec(inputs.star_polygon(rng, parameter))))

    def ops(self, count: int) -> list:
        return [self.op() for _ in range(count)]


class MovingObjects(DistinctReads):
    """Distinct reads beside writes: an object leaves its row (``delete``)
    and reappears nearby (``insert``), 15 % of the operations."""

    def __init__(self, rng, mix, xy: np.ndarray) -> None:
        super().__init__(rng, mix)
        self.xy = xy
        self.victims = iter(rng.permutation(len(xy)))  # each initial row moves once

    def ops(self, count: int) -> list:
        ops = []
        while len(ops) < count:
            # a move is two operations: 0.081 of the draws makes 15 % writes
            if self.rng.random() < 0.081:
                row = int(next(self.victims))
                x, y = np.clip(self.xy[row] + self.rng.normal(0.0, 0.01, 2), 0.0, 1.0)
                ops.append(Op("delete", {"type": "delete", "row": row}))
                ops.append(Op("insert", {"type": "insert", "x": float(x), "y": float(y)}))
            else:
                ops.append(self.op())
        return ops[:count]  # a last move may lose its insert: the object just leaves


# -- set-up -------------------------------------------------------------------


class Session:
    """A started program, its connections and the benchmark's model of
    its data."""

    def __init__(self, config: dict, seed: int, spans_path=None) -> None:
        self.config = config
        self.workload = config["workload"]
        self.rng = np.random.default_rng([seed, zlib.crc32(self.workload.encode())])
        self.xy = inputs.make_points(self.rng, config["points"])
        self.program = None
        self.snapshot = None
        self.wires: list = []
        self.phases: list = []
        self.subscriptions: dict = {}  # id -> (spec, initial ids)
        self.subscriber = None
        self.worker_addresses: list = []
        self.load_s = 0.0
        started = time.perf_counter()
        try:
            self._boot(spans_path)
            self._warm_up()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _boot(self, spans_path) -> None:
        config = self.config
        if self.workload == "cluster_scatter":
            self.program = procs.Program(
                ["cluster", "--workers", str(config["workers"]), "--points", "0", "--port", "0"],
                spans_path=spans_path,
            )
            banner = self.program.wait_for(r"serving [\d,]+ points on ([\w.\-]+):(\d+) ")
            self.worker_addresses = [
                (host, int(port))
                for host, port in re.findall(
                    r"worker \d+ on ([\w.\-]+):(\d+) ", self.program.log_text()
                )
            ]
        else:
            from repro import SpatialDatabase
            from repro.io import save_database

            backend = "pure" if self.workload == "serve_rw_live" else "scipy"
            database = SpatialDatabase.from_arrays(
                self.xy[:, 0], self.xy[:, 1], backend_kind=backend
            )
            procs.OUT.mkdir(exist_ok=True)
            self.snapshot = save_database(
                procs.OUT / f"snapshot-{self.workload}-{os.getpid()}", database
            )
            self.program = procs.Program(
                ["serve", "--load", self.snapshot, "--port", "0"],
                spans_path=spans_path,
            )
            banner = self.program.wait_for(r"Serving [\d,]+ points on ([\w.\-]+):(\d+) ")
        self.address = (banner.group(1), int(banner.group(2)))
        connections = config.get("connections", 1)
        self.wires = [Wire(self.address) for _ in range(connections)]
        if self.workload == "cluster_scatter":
            self._bulk_load()
        if self.workload == "serve_rw_live":
            self.subscriber = Wire(self.address)
            self._subscribe()

    def _bulk_load(self) -> None:
        """The benchmark's own points through the router, in extend frames."""
        started = time.perf_counter()
        offset = 0
        for size in self.config["load_frames"]:
            ack = self.wires[0].call(
                {"type": "extend", "id": offset, "points": self.xy[offset:offset + size].tolist()}
            )
            if ack.get("rows") != list(range(offset, offset + size)):
                raise RuntimeError(f"bulk load did not keep row order: {str(ack)[:200]}")
            offset += size
        self.load_s = time.perf_counter() - started

    def _subscribe(self) -> None:
        """Standing window and kNN queries on the listening connection."""
        config, rng = self.config, self.rng
        specs = [
            inputs.window_spec(*(rng.random(2) * 0.97), 0.03)
            for _ in range(config["window_subscriptions"])
        ] + [inputs.knn_spec(*rng.random(2), 8) for _ in range(config["knn_subscriptions"])]
        for number, spec in enumerate(specs):
            answer = self.subscriber.call(
                {"type": "subscribe", "id": number, "spec": spec, "packed": True}
            )
            if answer["type"] != "subscribed":
                raise RuntimeError(f"subscribe refused: {answer!r}")
            self.subscriptions[number] = (spec, frame_ids(answer))

    def _traffic(self):
        """The workload's request source (one per session: it has state)."""
        if self.workload == "serve_hot":
            return HotTraffic(self.rng, self.config)
        if self.workload == "serve_rw_live":
            return MovingObjects(
                self.rng, (("window", 0.765, 0.02), ("knn", 0.235, 10)), self.xy
            )
        return DistinctReads(
            self.rng,
            (("window", 0.5, 0.02), ("window", 0.2, 0.3), ("knn", 0.2, 10), ("area", 0.1, 0.005)),
        )

    def _warm_up(self) -> None:
        """Force every lazy build and fill the caches before timing."""
        self.source = self._traffic()
        self.generator = LoadGenerator(
            self.wires, [self.subscriber] if self.subscriber else []
        )
        if self.workload == "cluster_scatter":
            # each worker builds its Delaunay graph on its first Voronoi
            # read: touch every kind all over the space, serially
            for x in (0.2, 0.8):
                for y in (0.2, 0.8):
                    ring = np.asarray(inputs.star_polygon(self.rng, 0.005)) * 0.1 + (x, y)
                    for spec in (inputs.knn_spec(x, y, 10), inputs.area_spec(ring.tolist())):
                        answer = self.wires[0].call(dict(_query(spec), id=1))
                        if answer["type"] != "result":
                            raise RuntimeError(f"warm-up read failed: {answer!r}")
        seconds = self.config["warmup_s"]
        ops = self.source.ops(int(TRACE_RATE[self.workload] * seconds))
        self.phases.append(
            self.generator.closed_loop(ops, seconds, self.config["in_flight"], self.source.ops)
        )

    def stats(self) -> dict:
        answer = self.wires[0].call({"type": "stats"})
        if answer["type"] != "stats":
            raise RuntimeError(f"no stats frame: {answer!r}")
        return answer

    def close(self) -> None:
        for wire in self.wires + ([self.subscriber] if self.subscriber else []):
            wire.close()
        if self.program is not None:
            self.program.stop()
        if self.snapshot is not None and os.path.exists(self.snapshot):
            os.remove(self.snapshot)


# -- measurement --------------------------------------------------------------


def _delta(after: dict, before: dict, *path) -> float:
    """``after - before`` of one nested stats-frame counter."""
    for key in path:
        after, before = after.get(key, {}), before.get(key, {})
    return float(after or 0) - float(before or 0)


def _histogram_delta(after: dict, before: dict) -> tuple:
    """(count, mean ms, p99 ms) of what a stats histogram gained."""
    count = after.get("count", 0) - before.get("count", 0)
    if count <= 0:
        return 0, None, None
    total = after["mean_ms"] * after["count"] - before.get("mean_ms", 0.0) * before.get("count", 0)
    gained = sorted(
        (float(edge), n - before.get("buckets", {}).get(edge, 0))
        for edge, n in after.get("buckets", {}).items()
    )
    seen, p99 = 0, 0.0
    for edge, n in gained:
        seen += n
        p99 = edge
        if seen >= 0.99 * count:
            break
    return count, total / count, p99


def measure(session: Session, seconds: float) -> dict:
    """The two timed phases; returns raw phases and stats frames."""
    config, generator = session.config, session.generator
    closed_s = seconds * CLOSED_SHARE
    open_s = seconds - closed_s
    closed_ops = session.source.ops(int(TRACE_RATE[session.workload] * closed_s))
    due = poisson_schedule(session.rng, config["rate"], open_s)
    open_ops = session.source.ops(len(due))
    began_ns = time.perf_counter_ns()
    stats0, cpu0 = session.stats(), session.program.cpu_seconds()
    closed = generator.closed_loop(closed_ops, closed_s, config["in_flight"], session.source.ops)
    stats1 = session.stats()
    opened = generator.open_loop(open_ops, due)
    stats2, cpu2 = session.stats(), session.program.cpu_seconds()
    session.phases += [closed, opened]
    return {
        "closed": closed,
        "open": opened,
        "stats": (stats0, stats1, stats2),
        "cpu": (cpu0, cpu2),
        "window_ns": (began_ns, time.perf_counter_ns()),  # cuts the program's spans
        "peak_rss_mb": session.program.peak_rss_mb(),
    }


def client_metrics(session: Session, measured: dict) -> tuple:
    """Everything visible from outside the program: what the client timed
    and what the ``stats`` frame counts.  Returns (metrics, sample counts)."""
    closed, opened = measured["closed"], measured["open"]
    stats0, stats1, stats2 = measured["stats"]
    config = session.config
    reads = opened.latencies_ms(READ_KINDS)
    late = opened.late_ms()
    operations = len(closed.answered()) + len(opened.answered())
    samples = {
        "ops_per_s": len(closed.answered()),
        "op_ms_p50": len(reads),
        "op_ms_p99": len(reads),
    }
    metrics = {
        "ops_per_s": closed.rate(),
        "op_ms_p50": inputs.percentile(reads, 50),
        "op_ms_p99": inputs.percentile(reads, 99),
        "peak_rss_mb": measured["peak_rss_mb"],
        "gen.late_ms_p90": inputs.percentile(late, 90),
        "gen.late_ms_p99": inputs.percentile(late, 99),
        "gen.held_share": opened.held_share(),
        "gen.cpu_share": opened.cpu_share,
        "gen.backlog_end": float(opened.backlog_end),
        "gen.canary_ms": float(np.median(closed.canary_ms + opened.canary_ms)),
    }
    # in flight at the end of a steady open loop: rate x latency; well
    # above that, the queue was growing
    steady = config["rate"] * metrics["op_ms_p50"] / 1000.0
    metrics["gen.saturated"] = float(
        metrics["gen.late_ms_p90"] > 1.0
        or opened.cpu_share > 0.6
        or opened.backlog_end > 4 * steady + 16
    )

    engine = {key: _delta(stats2, stats0, "engine", key) for key in stats2["engine"]}
    total = engine["total_queries"]
    if total:
        metrics["engine.cache_hit_share"] = engine["cache_hits"] / total
        metrics["engine.duplicate_hit_share"] = engine["duplicate_hits"] / total
        metrics["engine.shared_window_share"] = engine["shared_window_queries"] / total
        metrics["engine.seed_walk_share"] = engine["seed_walk_reuses"] / total
    methods = closed.area_methods + opened.area_methods
    if methods:
        metrics["engine.voronoi_plan_share"] = methods.count("voronoi") / len(methods)

    coalescer = {
        key: _delta(stats2, stats0, "coalescer", key)
        for key, value in stats2["coalescer"].items()
        if isinstance(value, (int, float))
    }
    if coalescer["batches"]:
        metrics["server.mean_batch_size"] = coalescer["requests"] / coalescer["batches"]
        metrics["server.multi_client_batch_share"] = (
            coalescer["multi_client_batches"] / coalescer["batches"]
        )
        metrics["server.window_flush_share"] = coalescer["window_flushes"] / coalescer["batches"]
    requests = _delta(stats2, stats0, "server", "requests_total")
    if requests:
        metrics["server.shed_share"] = _delta(stats2, stats0, "server", "queries_shed") / requests

    latency2, latency0 = stats2["latency"], stats0["latency"]
    _, wait_mean, wait_p99 = _histogram_delta(
        latency2["admission_wait"], latency0["admission_wait"]
    )
    metrics["server.admission_wait_ms_mean"] = wait_mean
    metrics["server.admission_wait_ms_p99"] = wait_p99
    for kind in ("window", "knn", "area", "write"):
        _, mean, _ = _histogram_delta(
            latency2["kinds"].get(kind, {}), latency0["kinds"].get(kind, {})
        )
        metrics[f"server.service_ms_mean.{kind}"] = mean
    served = [
        _histogram_delta(stats1["latency"]["kinds"].get(kind, {}), latency0["kinds"].get(kind, {}))
        for kind in stats1["latency"]["kinds"]
    ]
    served_count = sum(count for count, _, _ in served)
    if served_count:
        service_mean = sum(count * mean for count, mean, _ in served if count) / served_count
        metrics["server.wire_overhead_ms_mean"] = float(closed.latencies_ms().mean()) - service_mean

    cpu0, cpu2 = measured["cpu"]
    spent = {pid: cpu2[pid] - cpu0.get(pid, 0.0) for pid in cpu2}
    leader = session.program.session
    if session.workload == "cluster_scatter":
        cluster2, cluster0 = stats2["cluster"], stats0["cluster"]
        reads_routed = _delta(cluster2, cluster0, "router", "requests_total")
        metrics["cluster.cpu_s_per_kop.router"] = spent.get(leader, 0.0) * 1000.0 / operations
        metrics["cluster.cpu_s_per_kop.workers"] = (
            sum(value for pid, value in spent.items() if pid != leader) * 1000.0 / operations
        )
        if reads_routed:
            metrics["cluster.fanout_per_read"] = requests / reads_routed
            metrics["cluster.degraded_share"] = (
                _delta(cluster2, cluster0, "degraded_results") / reads_routed
            )
        metrics["cluster.failovers"] = _delta(cluster2, cluster0, "failovers")
        metrics["cluster.load_rows_per_s"] = config["points"] / session.load_s
    else:
        metrics["server.cpu_s_per_kop"] = sum(spent.values()) * 1000.0 / operations

    if session.workload == "serve_rw_live":
        subscriptions = {
            key: _delta(stats2, stats0, "subscriptions", key) for key in stats2["subscriptions"]
        }
        writes_ms = opened.latencies_ms(WRITE_KINDS)
        metrics["write_ms_p50"] = inputs.percentile(writes_ms, 50)
        metrics["write_ms_p95"] = inputs.percentile(writes_ms, 95)
        notify_ms = _notify_latencies_ms(opened)
        metrics["notify_ms_p50"] = inputs.percentile(notify_ms, 50)
        metrics["notify_ms_p95"] = inputs.percentile(notify_ms, 95)
        samples.update(write_ms_p50=len(writes_ms), write_ms_p95=len(writes_ms),
                       notify_ms_p50=len(notify_ms), notify_ms_p95=len(notify_ms))
        if subscriptions["writes"]:
            per_write = subscriptions["evaluations"] / subscriptions["writes"]
            metrics["live.evaluations_per_write"] = per_write
            metrics["live.prune_ratio"] = 1.0 - per_write / len(session.subscriptions)
    return metrics, samples


def _notify_latencies_ms(phase) -> np.ndarray:
    """Write due -> first ``notify`` carrying that write's version."""
    first_seen: dict = {}
    for received_at, frame in phase.notifies:
        first_seen.setdefault(frame["version"], received_at)
    return np.array(
        [
            (first_seen[ack["version"]] - phase.base_at[index]) * 1000.0
            for index, ack in phase.kept.items()
            if ack["type"] == "write" and ack["version"] in first_seen
        ]
    )


# -- correctness (outside the timing) -----------------------------------------


def check(session: Session) -> tuple:
    """(checked, what was wrong): recorded answers against the oracle;
    on the read-write workload, the quiesced end state against the model
    built from the write acks, and every subscription's replayed deltas
    against a fresh query."""
    xs, ys = session.xy[:, 0].copy(), session.xy[:, 1].copy()
    wrong: list = []

    def compare(what, got, expected) -> None:
        if got != expected:
            wrong.append(f"{what}: got {str(got)[:80]}, expected {str(expected)[:80]}")

    if session.workload != "serve_rw_live":
        checked = 0
        for phase in session.phases:
            for index, frame in phase.kept.items():
                if frame["type"] == "result" and index % ORACLE_EVERY == 0:
                    spec = phase.ops[index].frame["spec"]
                    checked += 1
                    compare(spec, frame_ids(frame), inputs.expected_ids(spec, xs, ys))
        return checked, wrong

    # the model: initial rows, then every acked write in version order
    acks = sorted(
        (
            (frame["version"], phase.ops[index].frame, frame)
            for phase in session.phases
            for index, frame in phase.kept.items()
            if frame["type"] == "write"
        ),
        key=lambda entry: entry[0],
    )
    inserted = [request for _, request, _ in acks if request["type"] == "insert"]
    xs = np.concatenate((xs, [request["x"] for request in inserted]))
    ys = np.concatenate((ys, [request["y"] for request in inserted]))
    live = np.ones(len(xs), dtype=bool)
    next_row = len(session.xy)
    for _, request, ack in acks:
        if request["type"] == "delete":
            live[request["row"]] = False
        else:
            compare("insert ack rows", ack["rows"], [next_row])
            next_row += 1
    checked = len(acks)

    reader = session.wires[0]
    source = DistinctReads(session.rng, (("window", 0.7, 0.02), ("knn", 0.3, 10)))
    specs = [source.op().frame["spec"] for _ in range(session.config["fresh_reads"])]
    answers = reader.call_many([dict(_query(spec), id=i) for i, spec in enumerate(specs)])
    for spec, answer in zip(specs, answers):
        compare(spec, _ids_or_error(answer), inputs.expected_ids(spec, xs, ys, live))

    # replay: initial ids, then every delta in arrival order
    members = {number: set(ids) for number, (_, ids) in session.subscriptions.items()}
    pushed = list(session.subscriber.pushed)
    for phase in session.phases:
        pushed += [frame for _, frame in phase.notifies]
    for frame in pushed:
        current = members[frame["id"]]
        current -= set(frame_ids(frame, "removed"))
        current |= set(frame_ids(frame, "added"))
    answers = reader.call_many(
        [dict(_query(spec), id=number) for number, (spec, _) in session.subscriptions.items()]
    )
    for number, answer in zip(session.subscriptions, answers):
        compare(f"subscription {number}", sorted(members[number]), sorted(_ids_or_error(answer)))
    return checked + len(specs) + len(session.subscriptions), wrong


def _ids_or_error(answer: dict):
    return frame_ids(answer) if answer["type"] == "result" else answer


# -- traced half --------------------------------------------------------------


def _times(value, factor: float):
    """``value * factor``; a metric not measured stays not measured."""
    return None if value is None else value * factor


def span_metrics(spans: tracing.Spans, measured: dict) -> dict:
    """Per-layer numbers from the traced program's spans."""
    timed = measured["window_ns"]
    begin = timed[0]
    metrics = {
        "index.window_probe_ms_p50": spans.p50_ms("index.window_ids_array", *timed),
        "index.nn_seed_ms_p50": spans.p50_ms("index.nearest_neighbor", *timed),
        "index.build_s": spans.total_s("index.bulk_load", 0, begin),
        "index.write_ms_p50": spans.p50_ms(("index.insert", "index.delete"), *timed),
        "delaunay.build_s": spans.total_s(
            ("delaunay.make_backend", "delaunay.neighbor_table"), 0, begin
        ),
        "delaunay.csr_build_s": spans.total_s("delaunay.neighbor_csr", 0, begin),
        "delaunay.add_point_ms_p50": spans.p50_ms("delaunay.add_point", *timed),
        "delaunay.rebuilds": float(len(spans.select("delaunay.make_backend", *timed))),
        "io.load_database_s": spans.total_s("io.load_database", 0, begin),
        "core.store_write_us_p50": _times(
            spans.p50_ms(("core.store_append", "core.store_delete"), *timed), 1000.0
        ),
        "core.graph_nearest_ms_p50": spans.p50_ms("core.graph_nearest", *timed),
        "core.knn_ms_p50": spans.p50_ms(
            ("core.voronoi_knn_query", "index.k_nearest_neighbors"), *timed
        ),
        "query.spec_from_dict_us_p50": _times(
            spans.p50_ms("query.spec_from_dict", *timed), 1000.0
        ),
        "engine.plan_us_p50": _times(spans.p50_ms("engine.plan", *timed), 1000.0),
        "live.apply_write_ms_p50": spans.p50_ms("live.apply_write", *timed),
        "live.register_us_p50": _times(spans.p50_ms("live.register", 0, begin), 1000.0),
        "server.decode_us_p50": _times(spans.p50_ms("server.decode_frame", *timed), 1000.0),
        "server.encode_us_p50": _times(spans.p50_ms("server.encode_frame", *timed), 1000.0),
        "server.pack_ids_ns_per_id": spans.ns_per_item("server.pack_ids", begin),
        "cluster.cover_us_p50": _times(
            spans.p50_ms(("cluster.workers_for_bounds", "cluster.workers_for_circle"), *timed),
            1000.0,
        ),
        "cluster.shard_rpc_ms_p50": spans.p50_ms("cluster.shard_query_ids", *timed),
        "trace.spans": float(len(spans.ms)),
        "trace.unresolved_spans": float(len(spans.unresolved)),
    }
    run_specs = spans.select("engine.run_specs", *timed)
    if spans.size[run_specs].sum():
        metrics["engine.run_specs_ms_per_spec"] = float(
            spans.ms[run_specs].sum() / spans.size[run_specs].sum()
        )
    gather = spans.select("cluster.coordinator_query", *timed)
    if len(gather):
        metrics["cluster.gather_self_ms_p50"] = float(np.median(spans.self_ms[gather]))
    return metrics


def router_overhead_ms(session: Session):
    """Router round trip minus a like window sent straight to its owner.

    Distinct windows on both sides (a repeat would hit the worker's
    result cache); medians over the pairs that fall on one shard.
    """
    workers = [Wire(address) for address in session.worker_addresses]
    source = DistinctReads(session.rng, (("window", 1.0, 0.02),))
    routed, direct = [], []
    try:
        for _ in range(session.config["overhead_pairs"]):
            started = time.perf_counter()
            session.wires[0].call(dict(source.op().frame, id=4))
            routed.append(time.perf_counter() - started)
            spec = source.op().frame
            timings = []
            for worker in workers:
                started = time.perf_counter()
                answer = worker.call(dict(spec, id=4))
                timings.append((time.perf_counter() - started, len(frame_ids(answer))))
            owners = [elapsed for elapsed, rows in timings if rows]
            if len(owners) == 1:
                direct.append(owners[0])
    finally:
        for worker in workers:
            worker.close()
    if not direct:
        return None
    return (float(np.median(routed)) - float(np.median(direct))) * 1000.0


# -- one run ------------------------------------------------------------------


def run_workload(config: dict, seed: int, seconds: float, trace: bool) -> dict:
    """One run of a served workload; see :func:`perfbench.run.main`."""
    session = Session(config, seed)
    try:
        measured, attempted, wrong = _measure_and_check(session, seconds / 2 if trace else seconds)
        metrics, samples = client_metrics(session, measured)
        metrics["setup_s"] = session.setup_s
        result = {"samples": samples, "saturated": bool(metrics["gen.saturated"])}
        if trace:
            if session.workload == "cluster_scatter":
                metrics["cluster.router_overhead_ms_p50"] = router_overhead_ms(session)
            session.close()
            spans_path = procs.OUT / f"spans-{config['workload']}-{seed}.npz"
            session = Session(config, seed, spans_path=spans_path)
            traced, more_attempted, more_wrong = _measure_and_check(session, seconds / 2)
            attempted, wrong = attempted + more_attempted, wrong + more_wrong
            session.close()  # the program writes its spans as it exits
            spans = tracing.Spans.load(spans_path)
            metrics.update(span_metrics(spans, traced))
            metrics["trace.overhead_share"] = 1.0 - traced["closed"].rate() / metrics["ops_per_s"]
            result["layers_seen"] = sorted(spans.layers_seen())
            result["unresolved_spans"] = spans.unresolved
    finally:
        session.close()
    result.update(metrics=metrics, attempted=attempted, failed=len(wrong), failures=wrong[:10])
    return result


def _measure_and_check(session: Session, seconds: float) -> tuple:
    """(measured, operations attempted, what failed) of one session."""
    measured = measure(session, seconds)
    checked, wrong = check(session)
    attempted = measured["closed"].sent + measured["open"].sent + checked
    return measured, attempted, wrong + _phase_failures(measured)


def _phase_failures(measured: dict) -> list:
    """Errors, refusals and requests never answered, one line each."""
    failures = []
    for name in ("closed", "open"):
        phase = measured[name]
        failures += [
            f"{name} loop: {frame.get('code')}: {frame.get('message')}"
            for frame in phase.kept.values()
            if frame["type"] == "error"
        ]
        failures += [f"{name} loop: no response"] * (phase.sent - len(phase.answered()))
    return failures
