"""One wire-conformance suite for the one v1 front end, per backend.

Everything here is connection handling — hello, result/chunk framing,
``done`` semantics, cancel, in-flight ids, frame-level errors, the line
cap — so it must hold whatever executes the frames.  Each test runs
against :class:`QueryServer` over the local backend (one database) and
over the cluster backend (three in-process shards), through the
unmodified :class:`QueryClient` plus raw sockets for the edges the
client never produces.  Backend-specific behaviour (coalescing,
subscriptions, degraded results, the ``cluster`` stats section) stays
in ``test_server.py`` / ``tests/cluster/``.
"""

import json
import socket
from collections import namedtuple

import pytest

from repro.cluster import ClusterBackend, ClusterCoordinator, LocalShard
from repro.core.database import SpatialDatabase
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.query.spec import (
    AreaQuery,
    DifferenceQuery,
    KnnQuery,
    NearestQuery,
    UnionQuery,
    WindowQuery,
)
from repro.server import QueryClient, RemoteError, ServerThread
from repro.server.protocol import MAX_LINE_BYTES
from repro.workloads import make_query_areas, uniform_points

N_POINTS = 600

#: what differs per backend, as data: the hello product name and a word
#: the rendered ``explain`` must contain
Front = namedtuple("Front", "thread product explain_word")


@pytest.fixture(scope="module")
def points():
    return uniform_points(N_POINTS, seed=29)


@pytest.fixture(scope="module")
def oracle(points):
    """A single-process database nobody serves: the expected answers."""
    return SpatialDatabase.from_points(points)


def start_front(kind, points):
    """A started front end of one backend kind over ``points``."""
    if kind == "local":
        database = SpatialDatabase.from_points(points).prepare()
        return Front(ServerThread(database), "repro/", "method")
    coordinator = ClusterCoordinator(
        [LocalShard(SpatialDatabase()) for _ in range(3)]
    )
    coordinator.extend([(p.x, p.y) for p in points])
    thread = ServerThread(backend=ClusterBackend(coordinator))
    return Front(thread, "repro-cluster/", "shard")


@pytest.fixture(scope="module", params=["local", "cluster"])
def front(request, points):
    front = start_front(request.param, points)
    with front.thread:
        yield front


@pytest.fixture()
def client(front):
    with QueryClient(front.thread.host, front.thread.port) as client:
        yield client


class Raw:
    """A raw socket speaking NDJSON by hand (hello already consumed)."""

    def __init__(self, front):
        self.sock = socket.create_connection(
            (front.thread.host, front.thread.port), timeout=10
        )
        self.reader = self.sock.makefile("rb")
        assert self.read()["type"] == "hello"

    def send(self, frame):
        data = frame if isinstance(frame, bytes) else json.dumps(frame).encode()
        self.sock.sendall(data + b"\n")

    def read(self):
        """The next frame, or ``None`` at EOF."""
        line = self.reader.readline()
        return json.loads(line) if line else None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.reader.close()
        self.sock.close()


class TestResults:
    def test_hello_reports_protocol_product_and_totals(self, front, client):
        assert client.hello["protocol"] == 1
        assert client.hello["points"] == N_POINTS
        assert client.hello["server"].startswith(front.product)

    def test_every_spec_kind_matches_the_oracle(self, client, oracle):
        specs = [
            AreaQuery(make_query_areas(0.03, 1, seed=61)[0]),
            AreaQuery(Polygon([(0.2, 0.2), (0.7, 0.3), (0.45, 0.8)])),
            WindowQuery((0.2, 0.2, 0.7, 0.7)),
            KnnQuery(Point(0.4, 0.6), 9),
            NearestQuery(Point(0.1, 0.8)),
            UnionQuery(
                (
                    WindowQuery((0.1, 0.1, 0.5, 0.5)),
                    AreaQuery(Circle(Point(0.5, 0.5), 0.25)),
                ),
                limit=40,
            ),
            DifferenceQuery(
                (
                    WindowQuery((0.0, 0.0, 0.5, 0.5)),
                    WindowQuery((0.2, 0.2, 0.4, 0.4)),
                )
            ),
        ]
        for spec in specs:
            result = client.query(spec)
            assert result.ids == oracle.query(spec).ids(), spec.describe()
            assert result.stats["result_size"] == len(result.ids)

    def test_explain_only_on_request(self, front, client):
        spec = WindowQuery((0.2, 0.2, 0.5, 0.5))
        explained = client.query(spec, explain=True).explain
        assert explained and front.explain_word in explained.lower()
        assert client.query(spec).explain is None

    def test_bad_spec_is_per_request(self, client, oracle):
        degenerate = AreaQuery(
            Polygon([(0, 0), (1, 1), (0.5, 0.5), (0.2, 0.2)])
        )
        with pytest.raises(RemoteError) as excinfo:
            client.query(degenerate)
        assert excinfo.value.code == "bad-spec"
        # the connection survives and still answers
        spec = WindowQuery((0.1, 0.1, 0.2, 0.2))
        assert client.query(spec).ids == oracle.query(spec).ids()


class TestStreams:
    def test_full_drain_ends_with_done(self, client, oracle):
        spec = UnionQuery(
            (
                WindowQuery((0.1, 0.1, 0.5, 0.5)),
                AreaQuery(Circle(Point(0.5, 0.5), 0.25)),
            )
        )
        with client.stream(spec, chunk_size=7) as stream:
            assert list(stream) == oracle.query(spec).ids()
            assert stream.done and not stream.cancelled

    def test_exact_multiple_ends_with_an_empty_done_chunk(
        self, client, oracle
    ):
        # k=24 over chunk_size=8: three full chunks, then an empty done
        # one — done is never guessed from a short chunk
        spec = KnnQuery(Point(0.5, 0.5), 24)
        stream = client.stream(spec, chunk_size=8)
        assert list(stream) == oracle.query(spec).ids()
        assert stream.done
        assert stream.chunks_received == 4

    def test_unbounded_knn_continues_on_demand_then_cancels(
        self, client, oracle
    ):
        spec = KnnQuery(Point(0.4, 0.6), None)
        stream = client.stream(spec, chunk_size=10)
        rows = []
        for row in stream:
            rows.append(row)
            if len(rows) == 35:
                break
        assert rows == oracle.query(KnnQuery(Point(0.4, 0.6), 35)).ids()
        assert stream.chunks_received == 4  # 10+10+10, then 5 of the 4th
        assert stream.examined == 40  # never ranked the other 560 rows
        stream.close()
        assert stream.cancelled
        # the connection survives the cancel
        assert client.query(NearestQuery(Point(0.4, 0.6))).ids

    def test_cancel_frees_the_request_id(self, front, client):
        stream = client.stream(KnnQuery(Point(0.5, 0.5), None), chunk_size=5)
        stream.close()
        assert front.thread.server.active_streams == 0
        # the connection can immediately open another stream
        again = client.stream(KnnQuery(Point(0.5, 0.5), 3))
        assert len(list(again)) == 3

    def test_projections_cross_the_wire(self, client, oracle):
        points_spec = WindowQuery((0.3, 0.3, 0.6, 0.6), select="points")
        assert list(client.stream(points_spec, chunk_size=16)) == [
            [p.x, p.y] for p in oracle.query(points_spec).points()
        ]
        distance_spec = KnnQuery(Point(0.5, 0.5), 5, select="distances")
        assert (
            list(client.stream(distance_spec, chunk_size=4))
            == oracle.query(distance_spec).distances()
        )


class TestFrameEdges:
    def test_duplicate_inflight_id_is_bad_request(self, front):
        with Raw(front) as raw:
            open_stream = {
                "type": "query",
                "id": 7,
                "spec": {"kind": "knn", "point": [0.5, 0.5], "k": None},
                "stream": True,
                "chunk_size": 4,
            }
            raw.send(open_stream)
            first = raw.read()
            assert first["type"] == "chunk" and not first["done"]
            raw.send(
                {
                    "type": "query",
                    "id": 7,
                    "spec": {"kind": "nearest", "point": [0.1, 0.1]},
                }
            )
            error = raw.read()
            assert error["type"] == "error"
            assert error["code"] == "bad-request"

    def test_malformed_json_is_bad_frame_and_survivable(self, front):
        with Raw(front) as raw:
            raw.send(b"{not json")
            error = raw.read()
            assert error["type"] == "error"
            assert error["code"] == "bad-frame"
            raw.send({"type": "stats"})
            assert raw.read()["type"] == "stats"

    def test_blank_line_between_frames_is_ignored(self, front):
        with Raw(front) as raw:
            raw.send(b"")  # a keep-alive: just the newline
            raw.send(b"   ")
            raw.send({"type": "stats"})
            assert raw.read()["type"] == "stats"

    def test_oversized_line_gets_one_bad_frame_then_eof(self, front):
        with Raw(front) as raw:
            raw.send(b"x" * (MAX_LINE_BYTES + 4096))
            error = raw.read()
            assert error["type"] == "error"
            assert error["code"] == "bad-frame"
            assert "line limit" in error["message"]
            assert raw.read() is None  # closed: the tail cannot be re-framed


@pytest.mark.parametrize("kind", ["local", "cluster"])
def test_concurrent_fronts_bind_distinct_ephemeral_ports(kind, points):
    first, second = (start_front(kind, points[:50]) for _ in range(2))
    with first.thread, second.thread:
        assert first.thread.port != 0 and second.thread.port != 0
        assert first.thread.port != second.thread.port
        with QueryClient(first.thread.host, first.thread.port) as probe:
            assert probe.hello["points"] == 50
