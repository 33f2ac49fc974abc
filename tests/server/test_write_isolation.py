"""Socket-level MVCC: write frames vs open streams and later reads.

The contract under test (docs/SERVER.md, "Write frames"): a chunked
stream answers from the database version at its *admission* — the moment
the server read its ``query`` frame — for every chunk, no matter how
many writes land between ``next`` continuations; while any query
admitted after a ``write`` acknowledgement observes the mutation.  All
over real sockets, with the writes arriving from a second connection.
"""

import json
import math
import socket

import pytest

from repro.core.database import SpatialDatabase
from repro.query.spec import KnnQuery, WindowQuery
from repro.server import QueryClient, RemoteError, ServerThread
from repro.workloads.generators import uniform_points

N_POINTS = 400
CENTER = (0.5, 0.5)


@pytest.fixture()
def db():
    """A fresh database per test — these tests mutate it."""
    return SpatialDatabase.from_points(
        uniform_points(N_POINTS, seed=61), backend_kind="pure"
    ).prepare()


@pytest.fixture()
def server(db):
    with ServerThread(db) as thread:
        yield thread


def _ranked(db, q=CENTER):
    """Live row ids by distance from ``q`` (the model ranking)."""
    deleted = db.store.deleted_rows
    qx, qy = q
    return sorted(
        (r for r in range(len(db.store)) if r not in deleted),
        key=lambda r: (
            (db.point(r).x - qx) ** 2 + (db.point(r).y - qy) ** 2,
            r,
        ),
    )


class TestSnapshotStreams:
    def test_stream_pins_admission_version_across_writes(self, db, server):
        """The acceptance scenario: open stream, write from a second
        connection, every chunk stays admission-time, post-write queries
        see the mutation."""
        reader = QueryClient(server.host, server.port)
        writer = QueryClient(server.host, server.port)
        try:
            stream = reader.stream(KnnQuery(CENTER, None), chunk_size=20)
            emitted = [next(stream) for _ in range(10)]

            # A row the stream has NOT reached yet (rank ~30) dies, and
            # a brand-new point lands touching the query center (it
            # would rank first if the stream could see it).
            victim = _ranked(db)[30]
            assert victim not in emitted
            ack = writer.delete(victim)
            assert ack.rows == [victim]
            new_row = writer.insert(
                CENTER[0] + 1e-7, CENTER[1] + 1e-7
            ).rows[0]
            assert new_row == N_POINTS

            rest = list(stream)  # drain to exhaustion
            rows = emitted + rest
            # Admission-time results exactly: all N_POINTS original rows
            # (the tombstoned victim included), the new row absent.
            assert victim in rest
            assert new_row not in rows
            assert sorted(rows) == list(range(N_POINTS))

            # Post-write admission from either connection sees the
            # mutation: the new row is the 1-NN, the victim is gone.
            for c in (reader, writer):
                got = c.query(KnnQuery(CENTER, 5)).ids
                assert got[0] == new_row
                assert victim not in got
        finally:
            reader.close()
            writer.close()

    def test_chunk_results_match_pre_write_ranking(self, db, server):
        """Every chunk equals the admission-time ranking, element for
        element — not just set-wise."""
        before = _ranked(db)
        with QueryClient(server.host, server.port) as reader, QueryClient(
            server.host, server.port
        ) as writer:
            stream = reader.stream(KnnQuery(CENTER, None), chunk_size=16)
            got = [next(stream) for _ in range(8)]
            for i in range(3):
                writer.insert(0.5 + (i + 1) * 1e-6, 0.5)
                got.extend(next(stream) for _ in range(16))
            assert got == before[: len(got)]

    def test_two_streams_pin_two_different_versions(self, db, server):
        """Streams admitted on either side of a write disagree exactly
        by the write — concurrent snapshots at distinct versions."""
        with QueryClient(server.host, server.port) as a, QueryClient(
            server.host, server.port
        ) as b:
            old = a.stream(KnnQuery(CENTER, None), chunk_size=10)
            next(old)  # materialised at admission
            new_row = b.insert(*CENTER).rows[0]
            young = b.stream(KnnQuery(CENTER, None), chunk_size=10)
            young_rows = [next(young) for _ in range(10)]
            assert young_rows[0] == new_row
            old_rows = [next(old) for _ in range(20)]
            assert new_row not in old_rows
            old.abandon()
            young.abandon()

    def test_read_your_writes_same_connection(self, db, server):
        with QueryClient(server.host, server.port) as client:
            rect = (0.9991, 0.9991, 0.9999, 0.9999)
            assert client.query(WindowQuery(rect)).ids == []
            row = client.insert(0.9995, 0.9995).rows[0]
            assert client.query(WindowQuery(rect)).ids == [row]
            client.delete(row)
            assert client.query(WindowQuery(rect)).ids == []

    def test_ack_carries_version_and_live_count(self, db, server):
        with QueryClient(server.host, server.port) as client:
            v0 = db.version
            ack = client.extend([(0.31, 0.77), (0.77, 0.31)])
            assert ack.op == "extend"
            assert ack.rows == [N_POINTS, N_POINTS + 1]
            assert ack.version == db.version > v0
            assert ack.points == N_POINTS + 2
            ack = client.delete(N_POINTS)
            assert ack.op == "delete" and ack.points == N_POINTS + 1
            assert client.stats()["server"]["writes_total"] == 2


class TestWriteFaults:
    """Fault injection on the write path: stable codes, no state damage."""

    def _raw(self, server):
        sock = socket.create_connection(
            (server.host, server.port), timeout=5.0
        )
        reader = sock.makefile("rb")
        reader.readline()  # hello
        return sock, reader

    def _roundtrip(self, sock, reader, frame) -> dict:
        sock.sendall(json.dumps(frame).encode() + b"\n")
        return json.loads(reader.readline())

    def test_nan_insert_rejected_without_mutation(self, db, server):
        sock, reader = self._raw(server)
        v0, size0 = db.version, len(db.store)
        response = self._roundtrip(
            sock,
            reader,
            {"type": "insert", "id": 1, "x": float("nan"), "y": 0.5},
        )
        assert response["type"] == "error"
        assert response["code"] == "bad-frame"
        assert (db.version, len(db.store)) == (v0, size0)
        sock.close()

    def test_infinite_extend_rejected_without_mutation(self, db, server):
        sock, reader = self._raw(server)
        v0 = db.version
        response = self._roundtrip(
            sock,
            reader,
            {
                "type": "extend",
                "id": 2,
                "points": [[0.5, 0.5], [math.inf, 0.5]],
            },
        )
        assert response["code"] == "bad-frame"
        assert db.version == v0
        sock.close()

    def test_oversized_extend_rejected(self, db, server):
        from repro.server.protocol import MAX_WRITE_POINTS

        sock, reader = self._raw(server)
        v0 = db.version
        response = self._roundtrip(
            sock,
            reader,
            {
                "type": "extend",
                "id": 3,
                "points": [[0.5, 0.5]] * (MAX_WRITE_POINTS + 1),
            },
        )
        assert response["code"] == "bad-request"
        assert db.version == v0
        sock.close()

    def test_unknown_and_double_delete_are_bad_requests(self, db, server):
        with QueryClient(server.host, server.port) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.delete(10_000_000)
            assert excinfo.value.code == "bad-request"
            client.delete(3)
            with pytest.raises(RemoteError) as excinfo:
                client.delete(3)
            assert excinfo.value.code == "bad-request"
            assert db.store.is_deleted(3)
            assert db.store.deleted_count == 1

    def test_disconnect_mid_write_leaves_store_untouched(self, db, server):
        """A partial (unterminated) write frame followed by a vanishing
        client must not mutate anything."""
        sock = socket.create_connection(
            (server.host, server.port), timeout=5.0
        )
        reader = sock.makefile("rb")
        reader.readline()  # hello
        v0, size0 = db.version, len(db.store)
        partial = b'{"type": "insert", "id": 9, "x": 0.4, "y": 0.'
        sock.sendall(partial)  # no newline: the frame never completes
        sock.close()
        with QueryClient(server.host, server.port) as client:
            assert client.query(KnnQuery(CENTER, 1)).ids  # server alive
        assert (db.version, len(db.store)) == (v0, size0)

    def test_malformed_write_payloads(self, db, server):
        cases = [
            {"type": "insert", "id": 1, "x": "0.5", "y": 0.5},
            {"type": "insert", "id": 2, "y": 0.5},
            {"type": "extend", "id": 3, "points": []},
            {"type": "extend", "id": 4, "points": [[0.5]]},
            {"type": "delete", "id": 5, "row": -1},
            {"type": "delete", "id": 6, "row": "7"},
        ]
        sock, reader = self._raw(server)
        v0 = db.version
        for frame in cases:
            response = self._roundtrip(sock, reader, frame)
            assert response["type"] == "error", frame
            assert response["code"] == "bad-frame", frame
        assert db.version == v0
        sock.close()
