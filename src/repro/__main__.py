"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``demo``
    One-shot demonstration: build a database, run one area spec with both
    methods, print the work-counter comparison.
``query``
    Declarative query runner: load specs from a JSON file
    (``--spec-file``, format of :mod:`repro.query.serialize` — leaf
    kinds, ``union``/``intersection``/``difference`` composites, and
    unbounded ``knn`` specs without a ``k``), answer them as one
    heterogeneous batch, print per-spec summaries and, optionally, the
    planner's ``--explain`` tables.  ``--first N`` instead *streams* the
    first ``N`` rows of each spec lazily (composites and unbounded kNN
    never materialise their full result).  ``--remote HOST:PORT`` sends
    the specs to a running ``serve`` instance over the NDJSON protocol
    instead of building a local database (``--first`` then uses the
    chunked wire stream).
``batch``
    Planner demonstration: calibrate the batch engine's cost model on
    probe specs and print the planner's ``explain`` (predicted against
    measured) for a sample spec.
``serve``
    Start the concurrent NDJSON query server (:mod:`repro.server`) over a
    generated database or a persisted snapshot (``--load``), with
    cross-client batch coalescing, chunked result streaming, and
    write frames (``insert``/``extend``/``delete``); see
    ``docs/SERVER.md``.
``mutate``
    Send write frames to a running ``serve`` instance: repeatable
    ``--insert X,Y`` and ``--delete ROW`` options (inserts apply first,
    then deletes), each acknowledged with its assigned row ids and the
    post-write database version.  ``--from-file OPS.ndjson`` bulk-applies
    newline-delimited JSON operations (``{"op": "insert", "x": ..., "y":
    ...}``, ``{"op": "extend", "points": [[x, y], ...]}``, ``{"op":
    "delete", "row": ...}``) in file order before any flag-driven writes
    — the shape a moving-objects trace serialises to.
``subscribe``
    Register standing queries against a running ``serve`` instance
    (repeatable ``--window X1,Y1,X2,Y2`` and ``--knn X,Y,K``), print
    each initial result, then stream the server's pushed ``notify``
    deltas until ``--count`` notifications arrived or ``--duration``
    seconds elapsed.
``snapshot``
    Persist a generated database to a ``.npz`` snapshot
    (:mod:`repro.io.persist`) for later ``serve --load``.
``experiments``
    Forwarders to :mod:`repro.workloads.experiments` (tables/figures of the
    paper); everything after ``experiments`` is passed through, e.g.
    ``python -m repro experiments table2 --paper-scale``.
``figures``
    Render the paper's Fig. 2 and Fig. 3 as SVG files.
``info``
    Version, package inventory, and the experiment index.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Optional, Sequence


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import AreaQuery, SpatialDatabase, random_query_polygon
    from repro.workloads.generators import uniform_points

    n = args.points
    print(f"Building a database of {n:,} uniform points...")
    db = SpatialDatabase.from_points(uniform_points(n, seed=args.seed)).prepare()
    area = random_query_polygon(
        args.query_size, rng=random.Random(args.seed + 1)
    )
    voronoi = db.query(AreaQuery(area, method="voronoi"))
    traditional = db.query(AreaQuery(area, method="traditional"))
    assert voronoi.ids() == traditional.ids()
    print(
        f"query size {args.query_size:.0%}: {len(voronoi)} results\n"
        f"  voronoi:     {voronoi.stats.candidates:>7,} candidates  "
        f"{voronoi.stats.time_ms:8.2f} ms\n"
        f"  traditional: {traditional.stats.candidates:>7,} candidates  "
        f"{traditional.stats.time_ms:8.2f} ms\n"
        f"  candidates saved: "
        f"{1 - voronoi.stats.candidates / traditional.stats.candidates:.0%}"
    )
    return 0


def _parse_address(text: str) -> tuple:
    """Split a ``HOST:PORT`` argument (IPv6 hosts may be bracketed)."""
    host, separator, port = text.rpartition(":")
    if not separator or not port.isdigit():
        raise SystemExit(
            f"--remote expects HOST:PORT, got {text!r}"
        )
    return host.strip("[]") or "127.0.0.1", int(port)


def _cmd_query_remote(args: argparse.Namespace, specs) -> int:
    """Answer the spec file against a running server (``--remote``)."""
    from repro.server import QueryClient

    host, port = _parse_address(args.remote)
    with QueryClient(host, port, timeout=args.timeout) as client:
        print(
            f"Connected to {host}:{port} "
            f"({client.hello['server']}, {client.hello['points']:,} points)"
        )
        if args.first is not None:
            header = f"{'#':>3}  {'spec':<52} first {args.first} rows"
            print(header)
            print("-" * len(header))
            for i, spec in enumerate(specs):
                with client.stream(
                    spec, chunk_size=max(1, args.first)
                ) as stream:
                    rows = []
                    for row in stream:
                        rows.append(row)
                        if len(rows) >= args.first:
                            break
                description = spec.describe()
                if len(description) > 52:
                    description = description[:49] + "..."
                print(f"{i:>3}  {description:<52} {rows}")
            return 0
        header = (
            f"{'#':>3}  {'spec':<52} {'method':>11} {'rows':>7} {'ms':>8}"
        )
        print(header)
        print("-" * len(header))
        for i, spec in enumerate(specs):
            result = client.query(spec, explain=args.explain)
            description = spec.describe()
            if len(description) > 52:
                description = description[:49] + "..."
            print(
                f"{i:>3}  {description:<52} "
                f"{result.stats.get('method', '?'):>11} "
                f"{len(result.ids):>7,} "
                f"{result.stats.get('time_ms', 0.0):>8.2f}"
            )
            if result.degraded:
                print(
                    f"     !! DEGRADED RESULT: shard(s) "
                    f"{result.shards_failed or '?'} unreachable — "
                    f"rows from those shards are missing"
                )
            if args.explain and result.explain:
                print(result.explain)
        stats = client.stats()
        coalescer = stats["coalescer"]
        print(
            f"\nserver answered {coalescer['requests']} requests in "
            f"{coalescer['batches']} coalesced batches "
            f"(engine cache hits: {stats['engine']['cache_hits']})"
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import pathlib

    from repro import SpatialDatabase, load_specs
    from repro.workloads.generators import uniform_points

    text = pathlib.Path(args.spec_file).read_text(encoding="utf-8")
    specs = load_specs(text)
    if not specs:
        print("spec file holds no specs", file=sys.stderr)
        return 1

    if args.remote is not None:
        return _cmd_query_remote(args, specs)

    print(f"Building a database of {args.points:,} uniform points...")
    db = SpatialDatabase.from_points(
        uniform_points(args.points, seed=args.seed)
    ).prepare()

    if args.first is not None:
        header = f"{'#':>3}  {'spec':<52} first {args.first} rows"
        print(header)
        print("-" * len(header))
        for i, spec in enumerate(specs):
            rows = db.query(spec).first(args.first)
            description = spec.describe()
            if len(description) > 52:
                description = description[:49] + "..."
            print(f"{i:>3}  {description:<52} {rows}")
        return 0

    batch = db.query_batch(specs)
    header = f"{'#':>3}  {'spec':<52} {'method':>11} {'rows':>7} {'ms':>8}"
    print(header)
    print("-" * len(header))
    for i, result in enumerate(batch):
        stats = result.stats
        description = result.spec.describe()
        if len(description) > 52:
            description = description[:49] + "..."
        print(
            f"{i:>3}  {description:<52} {stats.method:>11} "
            f"{stats.result_size:>7,} {stats.time_ms:>8.2f}"
        )
    stats = batch.stats
    print(
        f"\n{stats.total_queries} specs: {stats.executed} executed, "
        f"{stats.cache_hits} cache hits, {stats.duplicate_hits} batch "
        f"duplicates, {stats.time_ms:.1f} ms total"
    )
    if args.explain:
        for i, result in enumerate(batch):
            print(f"\nexplain #{i}: {result.spec.describe()}")
            print(result.explain().render())
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro import SpatialDatabase
    from repro.workloads.experiments import make_query_trace
    from repro.workloads.generators import uniform_points

    print(f"Building a database of {args.points:,} uniform points...")
    db = SpatialDatabase.from_points(
        uniform_points(args.points, seed=args.seed)
    ).prepare()

    probes = make_query_trace(args.query_size, 4, 1, seed=args.seed + 17)
    model = db.engine.planner.calibrate([spec.region for spec in probes])
    print(
        f"Calibrated cost model: validation {model.validation_cost:.4f} ms, "
        f"node access {model.node_access_cost:.4f} ms, "
        f"kNN expansion x{model.knn_expansion_factor:.1f} "
        "(area + window + kNN probes)"
    )

    sample = probes[0]
    print("\nPlanner decision for a sample spec (predicted vs measured):")
    print(db.explain(sample, execute=True).render())
    return 0


def _graph_summary(db) -> str:
    """``N rows, M edges`` of ``db``'s Voronoi graph, for the boot lines."""
    _, indices = db.backend.neighbor_csr()
    rows = len(db.backend.neighbor_table())
    return f"{rows:,} rows, {len(indices) // 2:,} edges"


def _build_or_load_database(args: argparse.Namespace):
    """The served database: a ``--load`` snapshot or generated points."""
    from repro import SpatialDatabase
    from repro.workloads.generators import uniform_points

    if getattr(args, "load", None):
        from repro.io.persist import load_database

        print(f"Loading database snapshot {args.load} ...")
        db = load_database(args.load)
        print(f"  {len(db):,} points restored (row ids preserved)")
        adopted = db._backend is not None
        db.prepare()  # builds the graph only if the file carried none
        how = (
            "restored from the snapshot"
            if adopted
            else "rebuilt (snapshot carries no graph)"
        )
        print(f"  Voronoi graph {how}: {_graph_summary(db)}")
        return db
    print(f"Building a database of {args.points:,} uniform points...")
    db = SpatialDatabase.from_points(uniform_points(args.points, seed=args.seed))
    if len(db):
        db.prepare()
    else:
        # ``--points 0`` starts an empty, write-first server (the shape
        # cluster workers boot in); the Voronoi backend builds lazily
        # once the first rows arrive.
        print("  starting empty; awaiting writes")
    return db


def _stop_on_sigterm() -> None:
    """Make SIGTERM (``kill``, most supervisors) stop a command as Ctrl-C does.

    The command's ``KeyboardInterrupt`` path then runs: ``serve`` closes
    its server, and ``cluster`` writes ``--save-on-exit`` and stops its
    workers; both exit 0.  Set here, not in :func:`main`, which tests
    call inside their own process.
    """
    import signal

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupt)


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    import time as time_module

    from repro.server import ServerThread

    _stop_on_sigterm()
    db = _build_or_load_database(args)
    server = ServerThread(
        db,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        chunk_size=args.chunk_size,
    )
    try:
        print(
            f"Serving {len(db):,} points on {server.host}:{server.port} "
            f"(max batch {args.max_batch}, "
            f"max queue {server.server.backend.coalescer.max_queue}, "
            f"chunk size {args.chunk_size})"
        )
        print("Press Ctrl-C to stop.")
        if args.lifeline:
            # EOF: the process holding stdin open (a router) has ended.
            while os.read(0, 4096):
                pass
        else:
            while True:
                time_module.sleep(3600)
    except KeyboardInterrupt:
        print("\nstopped")
    finally:
        server.close()
    return 0


def _load_mutation_file(path: str) -> list:
    """Parse a ``--from-file`` NDJSON operations file.

    Each non-blank line is one JSON object with an ``op`` key:
    ``{"op": "insert", "x": ..., "y": ...}``, ``{"op": "extend",
    "points": [[x, y], ...]}``, or ``{"op": "delete", "row": ...}``.
    Malformed lines abort with a line-numbered error before anything is
    sent — a bulk file applies entirely or not at all locally.
    """
    import json
    import pathlib

    operations = []
    text = pathlib.Path(path).read_text(encoding="utf-8")
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            op = record["op"]
            if op == "insert":
                operations.append(
                    ("insert", (float(record["x"]), float(record["y"])))
                )
            elif op == "extend":
                operations.append(
                    (
                        "extend",
                        [(float(x), float(y)) for x, y in record["points"]],
                    )
                )
            elif op == "delete":
                operations.append(("delete", int(record["row"])))
            else:
                raise ValueError(f"unknown op {op!r}")
        except (ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"{path}:{number}: bad operation line: {exc}")
    return operations


def _cmd_mutate(args: argparse.Namespace) -> int:
    from repro.server import QueryClient

    host, port = _parse_address(args.remote)
    operations = []
    if args.from_file:
        operations.extend(_load_mutation_file(args.from_file))
    for value in args.insert or []:
        try:
            x_text, y_text = value.split(",")
            operations.append(("insert", (float(x_text), float(y_text))))
        except ValueError:
            raise SystemExit(f"--insert expects X,Y, got {value!r}")
    for row in args.delete or []:
        operations.append(("delete", row))
    if not operations:
        print(
            "nothing to do: pass --insert X,Y, --delete ROW, "
            "and/or --from-file OPS.ndjson"
        )
        return 1
    with QueryClient(host, port, timeout=args.timeout) as client:
        print(
            f"Connected to {host}:{port} "
            f"({client.hello['server']}, {client.hello['points']:,} points)"
        )
        ack = None
        for op, payload in operations:
            if op == "insert":
                ack = client.insert(*payload)
                print(
                    f"  insert ({payload[0]:g}, {payload[1]:g}) -> "
                    f"row {ack.rows[0]} (version {ack.version})"
                )
            elif op == "extend":
                ack = client.extend(payload)
                print(
                    f"  extend {len(payload)} points -> rows "
                    f"{ack.rows[0]}..{ack.rows[-1]} (version {ack.version})"
                )
            else:
                ack = client.delete(payload)
                print(
                    f"  delete row {payload} (version {ack.version})"
                )
        print(f"{ack.points:,} live points after {len(operations)} writes")
    return 0


def _cmd_subscribe(args: argparse.Namespace) -> int:
    import time as time_module

    from repro.query.spec import KnnQuery, WindowQuery
    from repro.server import QueryClient

    host, port = _parse_address(args.remote)
    specs = []
    for value in args.window or []:
        try:
            bounds = tuple(float(part) for part in value.split(","))
            if len(bounds) != 4:
                raise ValueError("expected 4 coordinates")
            specs.append(WindowQuery(bounds))
        except ValueError:
            raise SystemExit(f"--window expects X1,Y1,X2,Y2, got {value!r}")
    for value in args.knn or []:
        try:
            x_text, y_text, k_text = value.split(",")
            specs.append(
                KnnQuery((float(x_text), float(y_text)), int(k_text))
            )
        except ValueError:
            raise SystemExit(f"--knn expects X,Y,K, got {value!r}")
    if not specs:
        print("nothing to do: pass --window X1,Y1,X2,Y2 and/or --knn X,Y,K")
        return 1
    with QueryClient(host, port) as client:
        print(
            f"Connected to {host}:{port} "
            f"({client.hello['server']}, {client.hello['points']:,} points)"
        )
        subscriptions = {}
        for spec in specs:
            subscription = client.subscribe(spec)
            subscriptions[subscription.id] = spec
            print(
                f"  #{subscription.id} {spec.describe()}: "
                f"{len(subscription.ids)} rows at version "
                f"{subscription.version}"
            )
        print(
            f"streaming notifications (count <= {args.count}, "
            f"duration <= {args.duration:g} s) ..."
        )
        received = 0
        deadline = time_module.monotonic() + args.duration
        while received < args.count:
            remaining = deadline - time_module.monotonic()
            if remaining <= 0:
                break
            batch = client.notifications(
                timeout=min(remaining, 0.25),
                max_count=args.count - received,
            )
            for note in batch:
                received += 1
                print(
                    f"  #{note.subscription_id} v{note.version}: "
                    f"+{note.added} -{note.removed}"
                )
        print(f"{received} notifications received")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import time as time_module

    from repro.cluster.launcher import start_cluster

    _stop_on_sigterm()
    snapshot_state = None
    points = None
    if args.load:
        from repro.cluster.persist import load_cluster_state

        print(f"Loading cluster snapshot {args.load} ...")
        snapshot_state = load_cluster_state(args.load)
        if int(snapshot_state["workers"]) != args.workers:
            raise SystemExit(
                f"snapshot was taken with {snapshot_state['workers']} "
                f"workers, --workers says {args.workers}"
            )
        print(
            f"  {len(snapshot_state['gids']):,} points across "
            f"{snapshot_state['workers']} shards (row ids preserved)"
        )
    else:
        from repro.workloads.generators import uniform_points

        print(f"Building {args.points:,} uniform points...")
        points = [
            (p.x, p.y) for p in uniform_points(args.points, seed=args.seed)
        ]
    print(
        f"Spawning {args.workers} worker(s)"
        + (
            f" + {args.workers} replica(s)"
            if args.replicas
            else ""
        )
        + " on ephemeral ports..."
    )
    cluster = start_cluster(
        args.workers,
        points=points,
        snapshot_state=snapshot_state,
        host=args.host,
        port=args.port,
        replicas=args.replicas,
        supervise=args.supervise,
        health_interval=args.health_interval,
    )
    try:
        coordinator = cluster.coordinator
        for shard_range in coordinator.shard_map.ranges:
            worker = cluster.workers[shard_range.worker]
            line = (
                f"  worker {shard_range.worker} on "
                f"{worker.host}:{worker.port} serves Hilbert keys "
                f"[{shard_range.lo}, {shard_range.hi})"
            )
            if shard_range.replica is not None and cluster.replica_workers:
                replica = cluster.replica_workers[shard_range.replica]
                line += (
                    f" (replica on {replica.host}:{replica.port})"
                )
            print(line)
        print(
            f"Cluster of {args.workers} workers serving "
            f"{coordinator.total_live:,} points on "
            f"{cluster.host}:{cluster.port} (protocol v1; point your "
            f"clients at the router)"
        )
        if args.replicas:
            print(
                "Writes mirror synchronously to replicas; reads fail "
                "over when a primary is down."
            )
        if args.supervise:
            print(
                "Supervision on: dead workers respawn and reload "
                "automatically."
            )
        print("Press Ctrl-C to stop.")
        while True:
            time_module.sleep(3600)
    except KeyboardInterrupt:
        print("\nstopped")
    finally:
        if args.save_on_exit:
            from repro.cluster.persist import save_cluster

            written = save_cluster(args.save_on_exit, cluster.coordinator)
            print(
                f"wrote cluster snapshot {written} (reload it with "
                f"`python -m repro cluster --workers {args.workers} "
                f"--load {written}`)"
            )
        cluster.close()
    return 0


def _render_histogram_rows(rows) -> None:
    """Print aligned ``name count mean p50 p95 p99 max`` latency rows."""
    header = ("", "count", "mean", "p50", "p95", "p99", "max")
    table = [header]
    for name, histogram in rows:
        table.append(
            (
                name,
                f"{histogram.get('count', 0):,}",
                *(
                    f"{float(histogram.get(field, 0.0)):.3f}"
                    for field in (
                        "mean_ms",
                        "p50_ms",
                        "p95_ms",
                        "p99_ms",
                        "max_ms",
                    )
                ),
            )
        )
    widths = [
        max(len(row[column]) for row in table)
        for column in range(len(header))
    ]
    for row in table:
        print(
            "    "
            + row[0].ljust(widths[0])
            + "".join(
                value.rjust(width + 2)
                for value, width in zip(row[1:], widths[1:])
            )
        )


def _render_stats_frame(frame: dict) -> None:
    """Human-readable rendering of a ``stats`` frame (any server)."""
    for section in ("server", "coalescer", "engine", "subscriptions"):
        counters = frame.get(section)
        if counters is None:
            continue
        print(f"{section}:")
        for key in sorted(counters):
            value = counters[key]
            if isinstance(value, dict):
                continue  # nested histograms render in the latency table
            print(f"    {key} = {value:,}" if isinstance(value, int)
                  else f"    {key} = {value}")
    latency = frame.get("latency")
    if latency:
        print("latency (ms):")
        rows = [("admission_wait", latency.get("admission_wait", {}))]
        rows += sorted(latency.get("kinds", {}).items())
        _render_histogram_rows(rows)
    cluster = frame.get("cluster")
    if cluster:
        print("cluster:")
        print(
            f"    {cluster['workers']} workers, "
            f"{cluster['points']:,} live points, "
            f"version {cluster['version']}, "
            f"{cluster['rebalances']} rebalance(s)"
        )
        live = cluster.get("live", [])
        health = cluster.get("health") or {}
        primary_health = health.get("primaries", [])
        replica_health = health.get("replicas", [])
        dirty = cluster.get("replica_dirty", [])
        for shard_range in cluster.get("ranges", []):
            worker = shard_range["worker"]
            count = live[worker] if worker < len(live) else "?"
            line = (
                f"    shard [{shard_range['lo']}, {shard_range['hi']}) "
                f"-> worker {worker} ({count:,} live"
            )
            if worker < len(primary_health):
                line += f", {primary_health[worker]}"
            line += ")"
            slot = shard_range.get("replica")
            if slot is not None and slot < len(replica_health):
                state = replica_health[slot]
                if slot < len(dirty) and dirty[slot]:
                    state += " DIRTY"
                line += f" replica {slot} ({state})"
            print(line)
        if cluster.get("replicas"):
            print(
                f"    fault tolerance: {cluster['replicas']} replica(s), "
                f"{cluster.get('failovers', 0)} failover read(s), "
                f"{cluster.get('degraded_results', 0)} degraded "
                f"result(s), {cluster.get('mirror_failures', 0)} mirror "
                f"failure(s), {cluster.get('recoveries', 0)} recover(ies)"
            )
        router = cluster.get("router")
        if router:
            print(
                "    router: "
                + "  ".join(
                    f"{key}={router[key]:,}" for key in sorted(router)
                )
            )


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.server import QueryClient

    host, port = _parse_address(args.remote)
    with QueryClient(host, port, timeout=args.timeout) as client:
        print(
            f"Connected to {host}:{port} "
            f"({client.hello['server']}, {client.hello['points']:,} points)"
        )
        frame = client.stats()
    _render_stats_frame(frame)
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    import os

    from repro import SpatialDatabase
    from repro.io.persist import save_database
    from repro.workloads.generators import uniform_points

    print(f"Building a database of {args.points:,} uniform points...")
    db = SpatialDatabase.from_points(uniform_points(args.points, seed=args.seed))
    written = save_database(args.out, db)
    print(
        f"wrote {written} ({len(db):,} points; serve it with "
        f"`python -m repro serve --load {written}`)"
    )
    if len(db):
        print(
            f"  Voronoi graph: {_graph_summary(db)}; "
            f"file size {os.path.getsize(written):,} bytes"
        )
    return 0


def _cmd_experiments(argv: Sequence[str]) -> int:
    from repro.workloads.experiments import main as experiments_main

    return experiments_main(list(argv))


def _cmd_figures(args: argparse.Namespace) -> int:
    import pathlib

    from repro import SpatialDatabase, random_query_polygon
    from repro.viz.figures import (
        render_candidate_comparison,
        render_voronoi_delaunay,
    )
    from repro.workloads.generators import uniform_points

    out_dir = pathlib.Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    db = SpatialDatabase.from_points(uniform_points(4000, seed=2)).prepare()
    area = random_query_polygon(0.12, rng=random.Random(5))
    (out_dir / "fig2.svg").write_text(
        render_candidate_comparison(db, area), encoding="utf-8"
    )
    (out_dir / "fig3.svg").write_text(
        render_voronoi_delaunay(uniform_points(60, seed=9)),
        encoding="utf-8",
    )
    print(f"wrote {out_dir / 'fig2.svg'} and {out_dir / 'fig3.svg'}")
    return 0


def _cmd_info() -> int:
    import repro

    print(f"repro {repro.__version__} — Voronoi-diagram-based area queries")
    print("reproduction of Li, 'Area Queries Based on Voronoi Diagrams', ICDE 2020")
    print()
    print("packages: repro.geometry  repro.index  repro.delaunay  repro.core")
    print("          repro.query     repro.engine  repro.workloads")
    print("          repro.io        repro.viz     repro.server")
    print()
    print("query API: db.query(AreaQuery | WindowQuery | KnnQuery | NearestQuery)")
    print("           db.query(UnionQuery | IntersectionQuery | DifferenceQuery)")
    print("           db.query(KnnQuery(p, k=None)).first(n)  (streaming)")
    print("           db.query_batch([...])  (see docs/QUERY_API.md)")
    print()
    print("experiment index (see DESIGN.md / EXPERIMENTS.md):")
    for artefact, command in [
        ("Table I ", "experiments table1"),
        ("Table II", "experiments table2"),
        ("Fig. 4  ", "experiments fig4"),
        ("Fig. 5  ", "experiments fig5"),
        ("Fig. 6  ", "experiments fig6"),
        ("Fig. 7  ", "experiments fig7"),
        ("Fig. 2/3", "figures"),
        ("Batch   ", "batch"),
        ("Specs   ", "query --spec-file specs.json"),
        ("Serve   ", "serve --points 20000"),
        ("Remote  ", "query --spec-file specs.json --remote 127.0.0.1:7711"),
        ("Live    ", "subscribe --remote 127.0.0.1:7711 --knn 0.5,0.5,8"),
    ]:
        print(f"  {artefact}  python -m repro {command}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv`` (default ``sys.argv``) and dispatch a subcommand."""
    argv = list(sys.argv[1:] if argv is None else argv)

    # `experiments` forwards its tail verbatim (it has its own parser).
    if argv and argv[0] == "experiments":
        return _cmd_experiments(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Voronoi-diagram-based area queries (ICDE 2020 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="one-shot method comparison")
    demo.add_argument("--points", type=int, default=50_000)
    demo.add_argument("--query-size", type=float, default=0.01)
    demo.add_argument("--seed", type=int, default=0)

    query = subparsers.add_parser(
        "query", help="run declarative specs from a JSON file"
    )
    query.add_argument(
        "--spec-file",
        required=True,
        help="JSON array of query specs (see repro.query.serialize)",
    )
    query.add_argument("--points", type=int, default=10_000)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the planner's explain table per spec",
    )
    query.add_argument(
        "--first",
        type=int,
        default=None,
        metavar="N",
        help="stream the first N rows of each spec lazily instead of "
        "executing the batch (composites and unbounded kNN never "
        "materialise their full result)",
    )
    query.add_argument(
        "--remote",
        default=None,
        metavar="HOST:PORT",
        help="send the specs to a running `python -m repro serve` "
        "instance instead of building a local database",
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="socket timeout for --remote connects and response reads",
    )

    serve = subparsers.add_parser(
        "serve",
        help="concurrent NDJSON query server (see docs/SERVER.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7711)
    serve.add_argument(
        "--points",
        type=int,
        default=10_000,
        help="generate this many uniform points (ignored with --load)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--load",
        default=None,
        metavar="PATH",
        help="serve a database snapshot written by `python -m repro "
        "snapshot` (repro.io.persist.save_database)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="most queued specs one drain executes",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="admission-queue bound before arrivals are shed with "
        "'overloaded' errors (default: 8x max batch)",
    )
    serve.add_argument(
        "--chunk-size",
        type=int,
        default=256,
        help="default rows per streamed chunk frame",
    )
    serve.add_argument(
        "--lifeline",
        action="store_true",
        # Set only by the cluster launcher: the router holds its
        # workers' stdin open, so a worker stops at EOF with its router
        # however the router ends.  Not a user-facing option.
        help=argparse.SUPPRESS,
    )

    mutate = subparsers.add_parser(
        "mutate",
        help="send insert/delete write frames to a running server",
    )
    mutate.add_argument(
        "--remote",
        required=True,
        metavar="HOST:PORT",
        help="address of a running `python -m repro serve` instance",
    )
    mutate.add_argument(
        "--insert",
        action="append",
        metavar="X,Y",
        help="insert one point (repeatable; inserts apply before deletes)",
    )
    mutate.add_argument(
        "--delete",
        action="append",
        type=int,
        metavar="ROW",
        help="tombstone one row id (repeatable)",
    )
    mutate.add_argument(
        "--from-file",
        default=None,
        metavar="OPS.ndjson",
        help="bulk-apply newline-delimited JSON operations "
        '({"op": "insert"|"extend"|"delete", ...}) in file order, '
        "before any --insert/--delete flags",
    )
    mutate.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="socket timeout for connects and response reads",
    )

    cluster = subparsers.add_parser(
        "cluster",
        help="Hilbert-sharded multi-worker cluster (see docs/CLUSTER.md)",
    )
    cluster.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker replicas to spawn (one `serve` process each)",
    )
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument(
        "--port",
        type=int,
        default=0,
        help="router listen port (0 picks an ephemeral port)",
    )
    cluster.add_argument(
        "--points",
        type=int,
        default=10_000,
        help="generate this many uniform points (ignored with --load)",
    )
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument(
        "--load",
        default=None,
        metavar="DIR",
        help="restore a cluster snapshot directory written by "
        "--save-on-exit (repro.cluster.persist)",
    )
    cluster.add_argument(
        "--save-on-exit",
        default=None,
        metavar="DIR",
        help="write a shard-aware snapshot directory on shutdown",
    )
    cluster.add_argument(
        "--replicas",
        type=int,
        default=0,
        choices=(0, 1),
        help="standby workers per primary (1 mirrors writes "
        "synchronously and serves failover reads; see docs/CLUSTER.md)",
    )
    cluster.add_argument(
        "--supervise",
        action="store_true",
        help="respawn dead workers and reload their shards from the "
        "coordinator catalog (and replica) automatically",
    )
    cluster.add_argument(
        "--health-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="background health-probe period (0 disables probing; "
        "failures on the hot path still mark shards down)",
    )

    stats = subparsers.add_parser(
        "stats",
        help="render a running server's stats frame (counters + latency)",
    )
    stats.add_argument(
        "--remote",
        required=True,
        metavar="HOST:PORT",
        help="address of a running serve instance or cluster router "
        "(a router answers the merged cluster-wide view)",
    )
    stats.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="socket timeout for connects and response reads",
    )

    subscribe = subparsers.add_parser(
        "subscribe",
        help="register standing queries and stream pushed deltas",
    )
    subscribe.add_argument(
        "--remote",
        required=True,
        metavar="HOST:PORT",
        help="address of a running `python -m repro serve` instance",
    )
    subscribe.add_argument(
        "--window",
        action="append",
        metavar="X1,Y1,X2,Y2",
        help="subscribe to a window query (repeatable)",
    )
    subscribe.add_argument(
        "--knn",
        action="append",
        metavar="X,Y,K",
        help="subscribe to a k-nearest-neighbours query (repeatable)",
    )
    subscribe.add_argument(
        "--count",
        type=int,
        default=10,
        help="stop after this many notifications (default 10)",
    )
    subscribe.add_argument(
        "--duration",
        type=float,
        default=30.0,
        help="stop after this many seconds (default 30)",
    )

    snapshot = subparsers.add_parser(
        "snapshot", help="persist a generated database for serve --load"
    )
    snapshot.add_argument("--points", type=int, default=10_000)
    snapshot.add_argument("--seed", type=int, default=0)
    snapshot.add_argument(
        "--out", default="snapshot.npz", help="output .npz path"
    )

    batch = subparsers.add_parser(
        "batch", help="batch engine: calibrated cost model + planner explain"
    )
    batch.add_argument("--points", type=int, default=10_000)
    batch.add_argument("--query-size", type=float, default=0.01)
    batch.add_argument("--seed", type=int, default=0)

    subparsers.add_parser(
        "experiments", help="regenerate the paper's tables/figures"
    )

    figures = subparsers.add_parser(
        "figures", help="render the paper's Figs. 2-3 as SVG"
    )
    figures.add_argument("--output", default=".")

    subparsers.add_parser("info", help="version and experiment index")

    args = parser.parse_args(argv)
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "mutate":
        return _cmd_mutate(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "subscribe":
        return _cmd_subscribe(args)
    if args.command == "snapshot":
        return _cmd_snapshot(args)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "info":
        return _cmd_info()
    parser.error(f"unhandled command {args.command!r}")
    return 2


if __name__ == "__main__":
    # No command speaks TLS (a proxy in front does, docs/SERVER.md), and
    # asyncio imports ssl only where it can: refusing the module keeps
    # OpenSSL (libssl, libcrypto and _ssl, about 4 MiB resident) out of
    # every process this entry starts, the cluster's workers included.
    # Here, not in main(), which tests call inside their own process.
    sys.modules.setdefault("ssl", None)
    raise SystemExit(main())
