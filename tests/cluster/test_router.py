"""Wire tests of what only the cluster front end does.

The cluster is served by the shared :class:`QueryServer` over a
:class:`ClusterBackend`; everything any backend must do on the wire is
in ``tests/server/test_wire_conformance.py``.  Here: write routing, the
merged ``stats`` frame, the ``subscribe`` refusal, and the ordering
guarantees of running blocking shard calls off the event loop.  The
shards are in-process :class:`LocalShard` backends (fast, no
subprocesses — the spawned-worker path is covered by
``test_launcher.py``).
"""

import json
import socket
import sys
import threading
import time

import pytest

from repro.cluster import (
    ClusterBackend,
    ClusterCoordinator,
    FaultSpec,
    FaultyBackend,
    LocalShard,
)
from repro.core.database import SpatialDatabase
from repro.geometry.point import Point
from repro.query.spec import NearestQuery, WindowQuery
from repro.server import QueryClient, RemoteError, ServerThread
from repro.workloads import uniform_points

N_POINTS = 500

EVERYTHING = WindowQuery((0.0, 0.0, 1.0, 1.0))


@pytest.fixture(scope="module")
def points():
    return [(p.x, p.y) for p in uniform_points(N_POINTS, seed=29)]


@pytest.fixture(scope="module")
def oracle(points):
    return SpatialDatabase.from_points([Point(x, y) for x, y in points])


@pytest.fixture(scope="module")
def router(points):
    coordinator = ClusterCoordinator(
        [LocalShard(SpatialDatabase()) for _ in range(3)]
    )
    coordinator.extend(points)
    with ServerThread(backend=ClusterBackend(coordinator)) as thread:
        yield thread


@pytest.fixture()
def client(router):
    with QueryClient(router.host, router.port) as client:
        yield client


@pytest.fixture()
def slow_cluster(points):
    """Two shards behind chaos proxies (no fault armed yet) + the front."""
    shards = [
        FaultyBackend(LocalShard(SpatialDatabase()), FaultSpec())
        for _ in range(2)
    ]
    coordinator = ClusterCoordinator(shards)
    coordinator.extend(points)
    with ServerThread(backend=ClusterBackend(coordinator)) as thread:
        yield thread, coordinator, shards


class TestWritesAndStats:
    def test_writes_route_to_owning_shards(self, router, oracle):
        with QueryClient(router.host, router.port) as client:
            ack = client.insert(0.91, 0.13)
            expected = oracle.insert(Point(0.91, 0.13))
            assert list(ack.rows) == [expected]
            batch = [(0.33 + 0.001 * i, 0.77 - 0.001 * i) for i in range(20)]
            ack = client.extend(batch)
            expected_rows = oracle.extend([Point(x, y) for x, y in batch])
            assert list(ack.rows) == expected_rows
            client.delete(expected_rows[3])
            oracle.delete(expected_rows[3])
            assert (
                client.query(EVERYTHING).ids == oracle.query(EVERYTHING).ids()
            )
            with pytest.raises(RemoteError) as excinfo:
                client.delete(expected_rows[3])
            assert excinfo.value.code == "bad-request"

    def test_stats_frame_merges_and_adds_cluster_section(self, client):
        result = client.query(NearestQuery(Point(0.2, 0.2)))
        assert result.stats["method"] == "cluster"
        frame = client.stats()
        for section in ("server", "coalescer", "engine", "cluster"):
            assert section in frame
        assert frame["cluster"]["workers"] == 3
        assert frame["cluster"]["points"] >= N_POINTS
        assert len(frame["cluster"]["ranges"]) >= 3
        router = frame["cluster"]["router"]
        assert router["requests_total"] >= 1
        assert router["connections_accepted"] >= 1
        for counter in (
            "writes_total",
            "streams_opened",
            "streams_completed",
            "streams_cancelled",
            "errors_sent",
            "degraded_results",
            "writes_unavailable",
        ):
            assert counter in router
        # in-process shards serve no stats: had the front end's reads
        # leaked into the shard-merged section, this would not be empty
        assert "requests_total" not in frame["server"]

    def test_subscribe_rejected_with_bad_request(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.subscribe(WindowQuery((0.0, 0.0, 0.5, 0.5)))
        assert excinfo.value.code == "bad-request"


class TestOrdering:
    """Shard calls run off the event loop; wire order must survive it."""

    def test_pipelined_frames_take_effect_in_arrival_order(
        self, slow_cluster, points
    ):
        front, coordinator, _ = slow_cluster
        read = coordinator.query

        def late_read(spec):
            # a pool thread that is slow off the mark: were one
            # connection's calls let loose on the pool together, the
            # insert would take the coordinator's lock first and this
            # read would see the row it was sent before
            time.sleep(0.05)
            return read(spec)

        coordinator.query = late_read
        everything = {"kind": "window", "rect": [0.0, 0.0, 1.0, 1.0]}
        frames = [
            {"type": "query", "id": 1, "spec": everything},
            {"type": "insert", "id": 2, "x": 0.5, "y": 0.5},
            {"type": "query", "id": 3, "spec": everything},
        ]
        with socket.create_connection(
            (front.host, front.port), timeout=10
        ) as sock:
            reader = sock.makefile("rb")
            assert json.loads(reader.readline())["type"] == "hello"
            sock.sendall(
                b"".join(json.dumps(f).encode() + b"\n" for f in frames)
            )
            before, ack, after = (
                json.loads(reader.readline()) for _ in frames
            )
        new_row = len(points)
        assert (before["type"], before["id"]) == ("result", 1)
        assert before["ids"] == list(range(new_row))
        assert (ack["type"], ack["rows"]) == ("write", [new_row])
        assert (after["type"], after["id"]) == ("result", 3)
        assert after["ids"] == list(range(new_row + 1))

    def test_slow_shard_call_does_not_delay_another_connection(
        self, slow_cluster
    ):
        front, coordinator, shards = slow_cluster
        corners = [
            (x, y, x + 0.05, y + 0.05) for x in (0.0, 0.95) for y in (0.0, 0.95)
        ]
        cover = coordinator.shard_map.workers_for_bounds
        fast_corner = next(c for c in corners if cover(c) == {1})
        shards[0].fault = FaultSpec(delay_s=1.0)
        with QueryClient(front.host, front.port) as slow_client, QueryClient(
            front.host, front.port
        ) as other:
            slow = threading.Thread(
                target=slow_client.query, args=(EVERYTHING,), daemon=True
            )
            calls_before = shards[0].calls
            slow.start()
            while shards[0].calls == calls_before and slow.is_alive():
                pass  # until the slow call is inside shard 0
            assert other.stats()["cluster"]["workers"] == 2
            assert other.query(WindowQuery(fast_corner)).ids is not None
            assert slow.is_alive(), "the other connection waited for it"
            slow.join(timeout=10)
            assert not slow.is_alive()

    def test_many_connections_lose_no_count_and_no_write(self, points):
        """More connections than cores, a short switch interval: every
        request is counted once (the old router bumped its counters from
        many threads with no lock) and every acked write is visible."""
        coordinator = ClusterCoordinator(
            [LocalShard(SpatialDatabase()) for _ in range(2)]
        )
        coordinator.extend(points)
        clients, rounds = 8, 25
        errors = []

        def hammer(front, lane):
            try:
                with QueryClient(front.host, front.port) as client:
                    for step in range(rounds):
                        client.query(NearestQuery(Point(0.1 * lane, 0.04 * step)))
                        client.insert(0.1 * lane + 0.05, 0.04 * step)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServerThread(backend=ClusterBackend(coordinator)) as front:
                threads = [
                    threading.Thread(target=hammer, args=(front, lane))
                    for lane in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                with QueryClient(front.host, front.port) as probe:
                    router = probe.stats()["cluster"]["router"]
                    everything = probe.query(EVERYTHING).ids
        finally:
            sys.setswitchinterval(interval)
        assert router["requests_total"] == clients * rounds
        assert router["writes_total"] == clients * rounds
        assert everything == list(range(len(points) + clients * rounds))
