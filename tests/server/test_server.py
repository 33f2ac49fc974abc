"""End-to-end tests of the NDJSON query server over the local backend.

What must hold for *any* backend (hello, every spec kind vs the oracle,
``done`` semantics, cancel, frame-level errors, the line cap) lives in
``test_wire_conformance.py``; here is what only one database behind the
coalescer can show.
"""

import time

import pytest

from repro.core.database import SpatialDatabase
from repro.geometry.polygon import Polygon
from repro.query.spec import AreaQuery, KnnQuery, WindowQuery
from repro.server import (
    ProtocolError,
    QueryClient,
    RemoteError,
    ServerThread,
)
from repro.workloads.generators import uniform_points

N_POINTS = 1200


@pytest.fixture(scope="module")
def db():
    """One prepared database serving the whole module."""
    return SpatialDatabase.from_points(
        uniform_points(N_POINTS, seed=91), backend_kind="scipy"
    ).prepare()


@pytest.fixture(scope="module")
def server(db):
    """One ServerThread shared by the module's tests."""
    with ServerThread(db) as thread:
        yield thread


@pytest.fixture()
def client(server):
    """A fresh blocking client per test."""
    with QueryClient(server.host, server.port) as c:
        yield c


def wait_until(predicate, timeout=5.0):
    """Poll ``predicate`` until true (or fail after ``timeout`` seconds)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached within timeout")


class TestQueries:
    def test_stats_frame_shape(self, client):
        client.query(WindowQuery((0.4, 0.4, 0.5, 0.5)))
        stats = client.stats()
        assert stats["server"]["requests_total"] >= 1
        assert stats["coalescer"]["batches"] >= 1
        assert stats["engine"]["batches"] >= 1
        assert stats["engine"]["total_queries"] >= 1


class TestStreaming:
    def test_stream_of_bounded_spec_matches_eager(self, db, client):
        spec = WindowQuery((0.2, 0.2, 0.8, 0.8), limit=33)
        assert list(client.stream(spec, chunk_size=8)) == db.query(spec).ids()

    def test_abandoned_stream_is_cancelled_by_the_finalizer(
        self, db, server, client
    ):
        """``break`` + garbage collection must free the server-side
        stream and the request id, not leak them until disconnect."""
        import gc

        for row in client.stream(KnnQuery((0.5, 0.5), None), chunk_size=4):
            break  # the documented abandon-by-break pattern
        gc.collect()
        wait_until(lambda: server.server.active_streams == 0)
        # the connection is still perfectly usable: the lazy cancel's
        # ack is reconciled in passing by the next response read
        spec = WindowQuery((0.35, 0.35, 0.65, 0.65))
        assert client.query(spec).ids == db.query(spec).ids()
        assert client._unacked_cancels == set()

    def test_disconnect_mid_stream_cancels_server_side(self, db, server):
        """Vanishing clients must not leak half-consumed iterators."""
        metrics = server.server.metrics
        cancelled_before = metrics["streams_cancelled"]
        client = QueryClient(server.host, server.port)
        stream = client.stream(KnnQuery((0.52, 0.48), None), chunk_size=8)
        assert stream.examined == 8
        assert server.server.active_streams == 1
        # drop the connection without cancel — like a crashed client
        client.close()
        wait_until(lambda: server.server.active_streams == 0)
        wait_until(
            lambda: metrics["streams_cancelled"] == cancelled_before + 1
        )
        # the underlying lazy iterator was torn down: the server is idle
        # and later queries are unaffected
        with QueryClient(server.host, server.port) as probe:
            assert probe.query(WindowQuery((0.4, 0.4, 0.6, 0.6))).ids == (
                db.query(WindowQuery((0.4, 0.4, 0.6, 0.6))).ids()
            )


class TestErrors:
    def test_unknown_stream_id_rejected(self, client):
        client._send_frame({"type": "next", "id": 4242})
        with pytest.raises(RemoteError) as excinfo:
            client._read_response(4242)
        assert excinfo.value.code == "bad-request"

    def test_inflight_limit_enforced(self, db):
        with ServerThread(db, max_inflight=2) as small:
            with QueryClient(small.host, small.port) as c:
                streams = [
                    c.stream(KnnQuery((0.5, 0.5), None), chunk_size=2)
                    for _ in range(2)
                ]
                with pytest.raises(RemoteError) as excinfo:
                    c.query(WindowQuery((0.1, 0.1, 0.2, 0.2)))
                assert excinfo.value.code == "too-many-requests"
                for stream in streams:
                    stream.close()
                # capacity is released by cancellation
                spec = WindowQuery((0.1, 0.1, 0.2, 0.2))
                assert c.query(spec).ids == db.query(spec).ids()

    def test_client_rejects_protocol_mismatch(self, db, monkeypatch):
        import repro.server.app as app_module

        monkeypatch.setattr(app_module, "PROTOCOL_VERSION", 2)
        with ServerThread(db) as future_server:
            with pytest.raises(ProtocolError, match="protocol"):
                QueryClient(future_server.host, future_server.port)


class TestSnapshotServing:
    def test_round_trip_snapshot_serves_identical_results(
        self, db, tmp_path
    ):
        """`save_database` -> `load_database` -> serve: the satellite
        round trip, including the extensionless-path fix."""
        from repro.io.persist import load_database, save_database

        written = save_database(tmp_path / "served_snapshot", db)
        assert written.endswith(".npz")
        restored = load_database(tmp_path / "served_snapshot", prepare=True)
        assert len(restored) == len(db)
        specs = [
            WindowQuery((0.15, 0.2, 0.55, 0.6)),
            KnnQuery((0.42, 0.58), 9),
            AreaQuery(Polygon([(0.3, 0.3), (0.8, 0.35), (0.5, 0.9)])),
        ]
        with ServerThread(restored) as snap_server:
            with QueryClient(snap_server.host, snap_server.port) as c:
                for spec in specs:
                    assert c.query(spec).ids == db.query(spec).ids()
