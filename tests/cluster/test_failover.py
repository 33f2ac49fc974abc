"""Chaos suite: fault injection, replication, failover, recovery.

Two layers of proof:

* **Deterministic** — :class:`FaultyBackend` proxies over in-process
  :class:`LocalShard` backends, every fault decided by a seeded RNG
  (``REPRO_CHAOS_SEED`` overrides the seed; a failing run replays
  bit-identically).  Covers retry policy, health transitions, replica
  failover, degraded results, mirror-dirty semantics, and rebuilds.

* **Real processes** — ``start_cluster`` subprocess workers killed with
  ``SIGKILL`` mid-trace; the cluster must keep answering, post-failover
  reads must match a single-process oracle, and no acked write may be
  lost.  Run standalone via ``make test-chaos``.

Also home to the teardown-path tests: double-close and
close-while-streaming.  Snapshot corruption handling lives in
``test_snapshots.py``.
"""

import os
import signal
import socket
import threading
import time

import pytest

from repro.cluster import (
    ClusterBackend,
    ClusterCoordinator,
    ClusterDegradedError,
    FaultSpec,
    FaultyBackend,
    HealthTracker,
    LocalShard,
    RemoteShard,
    RetryPolicy,
    ShardUnavailableError,
)
from repro.cluster.launcher import start_cluster
from repro.core.database import SpatialDatabase
from repro.geometry.point import Point
from repro.query.spec import KnnQuery, NearestQuery, WindowQuery
from repro.server import ConnectionLost, QueryClient, RemoteError, ServerThread
from repro.server.protocol import PROTOCOL_VERSION, encode_frame
from repro.workloads import uniform_points

#: Every probabilistic decision in this suite derives from this seed,
#: so `REPRO_CHAOS_SEED=<n> make test-chaos` replays a failure exactly.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1307"))

N_POINTS = 240


def chaos_points(n=N_POINTS, seed_offset=0):
    return [
        (p.x, p.y) for p in uniform_points(n, seed=CHAOS_SEED + seed_offset)
    ]


def build_oracle(points):
    return SpatialDatabase.from_points([Point(x, y) for x, y in points])


def fresh_shards(count):
    return [LocalShard(SpatialDatabase()) for _ in range(count)]


PROBE_SPECS = [
    WindowQuery((0.05, 0.05, 0.95, 0.95)),
    WindowQuery((0.2, 0.6, 0.7, 0.9)),
    KnnQuery(Point(0.5, 0.5), 17),
    KnnQuery(Point(0.1, 0.85), 9),
    NearestQuery(Point(0.42, 0.13)),
]


# ---------------------------------------------------------------------------
# fault primitives: deterministic on their own
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_deterministic_under_a_seed(self):
        a = RetryPolicy(jitter_seed=CHAOS_SEED)
        b = RetryPolicy(jitter_seed=CHAOS_SEED)
        assert [a.backoff_s(i) for i in range(5)] == [
            b.backoff_s(i) for i in range(5)
        ]

    def test_backoff_grows_exponentially_within_jitter_bounds(self):
        policy = RetryPolicy(
            base_backoff_s=0.1, max_backoff_s=10.0, jitter_seed=CHAOS_SEED
        )
        for index in range(4):
            raw = 0.1 * 2**index
            backoff = policy.backoff_s(index)
            assert 0.5 * raw <= backoff <= raw

    def test_backoff_clamps_at_max(self):
        policy = RetryPolicy(
            base_backoff_s=1.0, max_backoff_s=1.5, jitter_seed=CHAOS_SEED
        )
        assert policy.backoff_s(10) <= 1.5

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)


class TestHealthTracker:
    def test_up_suspect_down_and_revival(self):
        tracker = HealthTracker(down_after=2)
        assert tracker.state == "up" and not tracker.is_down
        assert tracker.mark_failure() == "suspect"
        assert tracker.mark_failure() == "down"
        assert tracker.is_down
        tracker.mark_success()
        assert tracker.state == "up"

    def test_reset_clears_history(self):
        tracker = HealthTracker(down_after=1)
        tracker.mark_failure()
        assert tracker.is_down
        tracker.reset()
        assert tracker.state == "up"


class TestFaultyBackend:
    def test_crash_on_call_is_permanent_and_logged(self):
        backend = FaultyBackend(
            LocalShard(SpatialDatabase()),
            FaultSpec(seed=CHAOS_SEED, crash_on_call=2),
        )
        assert backend.extend([(0.1, 0.2)]) == [0]
        for _ in range(3):
            with pytest.raises(ConnectionRefusedError):
                backend.query_ids(WindowQuery((0, 0, 1, 1)))
        assert backend.injected == 3
        assert all(kind == "crash" for _, kind in backend.log)

    def test_drop_rate_replays_identically(self):
        def run():
            backend = FaultyBackend(
                LocalShard(SpatialDatabase()),
                FaultSpec(seed=CHAOS_SEED, drop_rate=0.5),
            )
            outcomes = []
            for index in range(40):
                try:
                    backend.extend([(index / 100.0, index / 100.0)])
                    outcomes.append("ok")
                except ConnectionError:
                    outcomes.append("drop")
            return outcomes

        first, second = run(), run()
        assert first == second
        assert "drop" in first and "ok" in first

    def test_reset_fires_after_the_apply(self):
        db = SpatialDatabase()
        backend = FaultyBackend(
            LocalShard(db), FaultSpec(seed=CHAOS_SEED, reset_rate=1.0)
        )
        with pytest.raises(ConnectionResetError):
            backend.extend([(0.3, 0.4)])
        # the ambiguous failure: the row landed even though the caller
        # saw a connection reset
        assert len(db) == 1

    def test_ping_reports_crash(self):
        backend = FaultyBackend(
            LocalShard(SpatialDatabase()),
            FaultSpec(seed=CHAOS_SEED, crash_on_call=1),
        )
        assert backend.ping() is False


# ---------------------------------------------------------------------------
# coordinator failover over injected faults (LocalShard, deterministic)
# ---------------------------------------------------------------------------

# One call per backend happens at bulk load (a single extend), so a
# crash_on_call of 2 means "healthy through load, dead forever after".
CRASH_AFTER_LOAD = FaultSpec(seed=CHAOS_SEED, crash_on_call=2)


def build_replicated(points, workers=3, crash_primary=None, crash_replica=None):
    """Coordinator over LocalShards with replicas; optionally one
    primary / replica wrapped to crash after the bulk load."""
    backends = []
    for worker in range(workers):
        shard = LocalShard(SpatialDatabase())
        if worker == crash_primary:
            shard = FaultyBackend(shard, CRASH_AFTER_LOAD)
        backends.append(shard)
    replicas = []
    for slot in range(workers):
        shard = LocalShard(SpatialDatabase())
        if slot == crash_replica:
            shard = FaultyBackend(shard, CRASH_AFTER_LOAD)
        replicas.append(shard)
    coordinator = ClusterCoordinator(backends, replicas=replicas)
    coordinator.extend(points)
    return coordinator


class TestReplicaFailover:
    def test_reads_fail_over_and_match_oracle(self):
        points = chaos_points()
        oracle = build_oracle(points)
        coordinator = build_replicated(points, crash_primary=1)
        try:
            for spec in PROBE_SPECS:
                assert coordinator.query(spec) == oracle.query(spec).ids()
            section = coordinator.cluster_section()
            assert section["failovers"] > 0
            assert section["degraded_results"] == 0
            assert coordinator.health_snapshot()["primaries"][1] != "up"
        finally:
            coordinator.close()

    def test_streams_fail_over_mid_iteration(self):
        points = chaos_points()
        oracle = build_oracle(points)
        coordinator = build_replicated(points, crash_primary=0)
        try:
            spec = KnnQuery(Point(0.5, 0.5), None, limit=60)
            stream = coordinator.stream(spec)
            got = list(stream)
            assert got == oracle.query(spec).ids()
            assert not stream.degraded
        finally:
            coordinator.close()

    def test_write_to_dead_primary_is_not_acked(self):
        points = chaos_points()
        coordinator = build_replicated(points, crash_primary=0)
        try:
            assert coordinator.shard_map.owner_of(0.001, 0.001) == 0
            live_before = coordinator.total_live
            with pytest.raises(OSError):
                coordinator.insert(0.001, 0.001)
            assert coordinator.total_live == live_before
            # the catalog did not grow: the next acked id (on a live
            # worker) is contiguous
            survivor = next(
                (x, y)
                for x, y in chaos_points(400, seed_offset=5)
                if coordinator.shard_map.owner_of(x, y) != 0
            )
            assert coordinator.insert(*survivor) == len(points)
        finally:
            coordinator.close()

    def test_mirror_failure_marks_dirty_then_rebuild_recovers(self):
        points = chaos_points()
        coordinator = build_replicated(points, crash_replica=2)
        try:
            # find a point owned by worker 2 so its mirror write fails
            target = next(
                (x, y)
                for x, y in chaos_points(400, seed_offset=7)
                if coordinator.shard_map.owner_of(x, y) == 2
            )
            gid = coordinator.insert(*target)  # acked: primary applied
            section = coordinator.cluster_section()
            assert section["mirror_failures"] >= 1
            assert section["replica_dirty"][2] is True
            assert gid in coordinator.query(
                WindowQuery((0.0, 0.0, 1.0, 1.0))
            )
            # a dirty replica must not serve failover reads; rebuilding
            # onto a fresh backend clears the dirty bit
            restored = coordinator.rebuild_replica(
                2, LocalShard(SpatialDatabase())
            )
            assert restored == coordinator.live_counts[2]
            section = coordinator.cluster_section()
            assert section["replica_dirty"][2] is False
            assert section["recoveries"] >= 1
            # the rebuilt replica alone answers for worker 2, the acked
            # write included
            oracle = build_oracle(points + [target])
            coordinator.rebuild_worker(
                2, FaultyBackend(LocalShard(SpatialDatabase()), CRASH_AFTER_LOAD)
            )
            for spec in PROBE_SPECS:
                assert coordinator.query(spec) == oracle.query(spec).ids()
        finally:
            coordinator.close()

    def test_rebalanced_rows_keep_their_standby(self):
        points = chaos_points()
        oracle = build_oracle(points)
        coordinator = build_replicated(points, crash_primary=None)
        try:
            coordinator.min_split = 16
            assert coordinator.rebalance_once(force=True)
            assert coordinator.cluster_section()["replica_dirty"] == [
                False,
                False,
                False,
            ]
            # every primary dies after the migration: the replicas alone
            # must hold every row, each under its new owner
            for worker in range(coordinator.workers):
                coordinator.rebuild_worker(
                    worker,
                    FaultyBackend(
                        LocalShard(SpatialDatabase()), CRASH_AFTER_LOAD
                    ),
                )
            for spec in PROBE_SPECS:
                assert coordinator.query(spec) == oracle.query(spec).ids()
            assert coordinator.cluster_section()["degraded_results"] == 0
        finally:
            coordinator.close()

    def test_rebuild_worker_restores_from_catalog(self):
        points = chaos_points()
        oracle = build_oracle(points)
        coordinator = build_replicated(points, crash_primary=1)
        try:
            spec = PROBE_SPECS[0]
            assert coordinator.query(spec) == oracle.query(spec).ids()
            rows = coordinator.rebuild_worker(
                1, LocalShard(SpatialDatabase())
            )
            assert rows == coordinator.live_counts[1] > 0
            assert coordinator.health_snapshot()["primaries"][1] == "up"
            for probe in PROBE_SPECS:
                assert coordinator.query(probe) == oracle.query(probe).ids()
        finally:
            coordinator.close()


class TestDegradedResults:
    def test_unreplicated_loss_raises_with_partial_ids(self):
        points = chaos_points()
        oracle = build_oracle(points)
        backends = fresh_shards(3)
        backends[1] = FaultyBackend(backends[1], CRASH_AFTER_LOAD)
        coordinator = ClusterCoordinator(backends)
        coordinator.extend(points)
        spec = WindowQuery((0.0, 0.0, 1.0, 1.0))
        with pytest.raises(ClusterDegradedError) as excinfo:
            coordinator.query(spec)
        error = excinfo.value
        assert error.shards_failed == [1]
        full = oracle.query(spec).ids()
        assert error.ids and set(error.ids) < set(full)

    def test_unreplicated_stream_flags_degraded(self):
        points = chaos_points()
        backends = fresh_shards(3)
        backends[2] = FaultyBackend(backends[2], CRASH_AFTER_LOAD)
        coordinator = ClusterCoordinator(backends)
        coordinator.extend(points)
        stream = coordinator.stream(KnnQuery(Point(0.5, 0.5), None))
        got = list(stream)
        assert stream.degraded and 2 in stream.shards_failed
        assert got  # the surviving shards still answered

    def test_scrambled_shard_order_never_leaks(self):
        points = chaos_points()
        oracle = build_oracle(points)
        backends = [
            FaultyBackend(
                LocalShard(SpatialDatabase()),
                FaultSpec(seed=CHAOS_SEED + worker, scramble_order=True),
            )
            for worker in range(3)
        ]
        coordinator = ClusterCoordinator(backends)
        coordinator.extend(points)
        scrambles = 0
        for spec in PROBE_SPECS:
            assert coordinator.query(spec) == oracle.query(spec).ids()
        scrambles = sum(
            1
            for backend in backends
            for _, kind in backend.log
            if kind == "scramble"
        )
        assert scrambles > 0  # the harness actually reordered results


# ---------------------------------------------------------------------------
# the wire path: degraded frames, unavailable writes, dead-peer detection
# ---------------------------------------------------------------------------


class TestDegradedWireFrames:
    @pytest.fixture()
    def degraded_router(self):
        points = chaos_points()
        backends = fresh_shards(2)
        backends[0] = FaultyBackend(backends[0], CRASH_AFTER_LOAD)
        coordinator = ClusterCoordinator(backends)
        coordinator.extend(points)
        with ServerThread(backend=ClusterBackend(coordinator)) as router:
            yield router, build_oracle(points)

    def test_query_result_carries_degraded_fields(self, degraded_router):
        router, oracle = degraded_router
        with QueryClient(router.host, router.port) as client:
            result = client.query(WindowQuery((0.0, 0.0, 1.0, 1.0)))
            assert result.degraded is True
            assert result.shards_failed == [0]
            full = oracle.query(WindowQuery((0.0, 0.0, 1.0, 1.0))).ids()
            assert set(result.ids) < set(full)

    def test_stream_done_chunk_carries_degraded_fields(
        self, degraded_router
    ):
        router, _ = degraded_router
        with QueryClient(router.host, router.port) as client:
            with client.stream(KnnQuery(Point(0.5, 0.5), None)) as stream:
                rows = list(stream)
            assert rows
            assert stream.degraded is True
            assert stream.shards_failed == [0]

    def test_write_to_lost_shard_returns_unavailable(self, degraded_router):
        router, _ = degraded_router
        with QueryClient(router.host, router.port) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.insert(0.001, 0.001)  # worker 0's corner
            assert excinfo.value.code == "unavailable"
            # the connection survives an unavailable write
            assert client.query(NearestQuery(Point(0.9, 0.9))).ids


class TestDeadPeerDetection:
    def test_router_shutdown_surfaces_connection_lost(self):
        coordinator = ClusterCoordinator(fresh_shards(2))
        coordinator.extend(chaos_points(40))
        router = ServerThread(backend=ClusterBackend(coordinator))
        client = QueryClient(router.host, router.port, timeout=5.0)
        assert client.query(NearestQuery(Point(0.5, 0.5))).ids
        router.close()
        # a read-only poll proves the peer is *gone*, not merely idle
        with pytest.raises(ConnectionLost):
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                client.notifications(timeout=0.05)
        client.close()

    def test_idle_poll_distinguishes_eof_from_timeout(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        hello = encode_frame(
            {
                "type": "hello",
                "protocol": PROTOCOL_VERSION,
                "server": "fake",
                "points": 0,
            }
        )
        holder = {}

        def serve_one():
            conn, _ = listener.accept()
            conn.sendall(hello)
            holder["conn"] = conn

        thread = threading.Thread(target=serve_one, daemon=True)
        thread.start()
        try:
            client = QueryClient("127.0.0.1", port, timeout=5.0)
            thread.join(timeout=5.0)
            # idle peer: a finite poll returns no notifications
            assert client.notifications(timeout=0.05) == []
            holder["conn"].close()
            # dead peer: the same poll now surfaces ConnectionLost, even
            # with a zero time budget (the EOF poll runs regardless)
            with pytest.raises(ConnectionLost):
                for _ in range(50):
                    client.notifications(timeout=0.0)
                    time.sleep(0.01)
            client.close()
        finally:
            listener.close()


# ---------------------------------------------------------------------------
# teardown paths (double-close, close-while-streaming, OSError-on-close)
# ---------------------------------------------------------------------------


class _ExplodingClient:
    """Stand-in for a pooled QueryClient whose socket already died."""

    def close(self):
        raise OSError("already gone")


class TestTeardownPaths:
    def test_remote_shard_close_is_idempotent_and_swallows_oserror(self):
        shard = RemoteShard("127.0.0.1", 1)  # never dialed: lazy connect
        shard._pool.append(_ExplodingClient())
        shard.close()
        shard.close()  # second close is a no-op
        with pytest.raises(RuntimeError, match="closed"):
            shard.query_ids(WindowQuery((0, 0, 1, 1)))

    def test_unreachable_worker_exhausts_retries_quickly(self):
        shard = RemoteShard(
            "127.0.0.1",
            1,  # nothing listens on port 1
            retry=RetryPolicy(
                attempts=3,
                base_backoff_s=0.001,
                deadline_s=2.0,
                jitter_seed=CHAOS_SEED,
            ),
        )
        with pytest.raises(ShardUnavailableError):
            shard.query_ids(WindowQuery((0, 0, 1, 1)))
        shard.close()

    def test_router_double_close(self):
        shards = fresh_shards(2)
        closed = []
        for shard in shards:
            shard.close = lambda shard=shard: closed.append(shard)
        coordinator = ClusterCoordinator(shards)
        coordinator.extend(chaos_points(40))
        router = ServerThread(backend=ClusterBackend(coordinator))
        router.close()
        assert closed == shards  # the front end owns the coordinator
        router.close()
        assert closed == shards  # ... and closes it exactly once

    def test_router_close_while_client_streams(self):
        coordinator = ClusterCoordinator(fresh_shards(2))
        coordinator.extend(chaos_points(80))
        router = ServerThread(backend=ClusterBackend(coordinator))
        client = QueryClient(router.host, router.port, timeout=5.0)
        stream = client.stream(
            KnnQuery(Point(0.5, 0.5), None), chunk_size=4
        )
        assert next(iter(stream)) is not None
        router.close()
        with pytest.raises((OSError, RemoteError, StopIteration)):
            for _ in range(1000):
                next(stream)
        client.close()

    def test_cluster_stream_close_is_idempotent(self):
        coordinator = ClusterCoordinator(fresh_shards(2))
        coordinator.extend(chaos_points(40))
        stream = coordinator.stream(KnnQuery(Point(0.5, 0.5), None))
        next(stream)
        stream.close()
        stream.close()
        with pytest.raises(StopIteration):
            next(stream)


# ---------------------------------------------------------------------------
# real processes: SIGKILL a primary mid-trace
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestKillNineChaos:
    def test_replicated_cluster_survives_primary_kill(self):
        points = chaos_points(120)
        oracle = build_oracle(points)
        with start_cluster(
            2, points=points, replicas=1, supervise=True
        ) as handle:
            with QueryClient(handle.host, handle.port, timeout=30.0) as client:
                # pre-kill trace: reads match, writes ack and mirror
                spec = WindowQuery((0.1, 0.1, 0.9, 0.9))
                assert client.query(spec).ids == oracle.query(spec).ids()
                acked = []
                for x, y in chaos_points(6, seed_offset=3):
                    ack = client.insert(x, y)
                    acked.append((ack.rows[0], x, y))
                    assert oracle.insert(Point(x, y)) == ack.rows[0]

                # kill -9 one primary mid-trace
                victim = handle.workers[0]
                os.kill(victim.pid, signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                while victim.alive and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert not victim.alive

                # the cluster keeps answering through the replica, and
                # post-failover reads are identical to the oracle —
                # including every acked write (nothing lost)
                for probe in PROBE_SPECS:
                    result = client.query(probe)
                    assert result.ids == oracle.query(probe).ids()
                    assert not result.degraded
                everything = client.query(WindowQuery((0.0, 0.0, 1.0, 1.0)))
                for gid, _, _ in acked:
                    assert gid in everything.ids

                # supervision respawns the dead worker and reloads its
                # rows from the catalog; serving returns to normal
                supervisor = handle.supervisor
                deadline = time.monotonic() + 60.0
                while (
                    supervisor.restarts < 1
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.2)
                assert supervisor.restarts >= 1, supervisor.events
                assert handle.workers[0].alive
                health = handle.coordinator.health_snapshot()
                assert health["primaries"][0] == "up"
                for probe in PROBE_SPECS:
                    assert client.query(probe).ids == oracle.query(
                        probe
                    ).ids()
                # writes to the rebuilt shard ack again
                ack = client.insert(0.001, 0.001)
                assert oracle.insert(Point(0.001, 0.001)) == ack.rows[0]
                assert client.query(
                    NearestQuery(Point(0.001, 0.001))
                ).ids == [ack.rows[0]]

    def test_unreplicated_cluster_degrades_loudly(self):
        points = chaos_points(120)
        oracle = build_oracle(points)
        with start_cluster(2, points=points) as handle:
            with QueryClient(handle.host, handle.port, timeout=30.0) as client:
                victim = handle.workers[1]
                os.kill(victim.pid, signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                while victim.alive and time.monotonic() < deadline:
                    time.sleep(0.05)

                spec = WindowQuery((0.0, 0.0, 1.0, 1.0))
                result = client.query(spec)
                assert result.degraded is True
                assert result.shards_failed == [1]
                full = oracle.query(spec).ids()
                assert set(result.ids) < set(full)

                # a write owned by the dead shard is refused un-acked
                target = next(
                    (x, y)
                    for x, y in chaos_points(400, seed_offset=9)
                    if handle.coordinator.shard_map.owner_of(x, y) == 1
                )
                with pytest.raises(RemoteError) as excinfo:
                    client.insert(*target)
                assert excinfo.value.code == "unavailable"
