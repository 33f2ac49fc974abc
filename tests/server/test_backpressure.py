"""Backpressure and load shedding: bounded admission, overload errors.

Three layers under test: the coalescer's bounded queue and drain
scheduling (unit), the server's ``overloaded`` wire behaviour with a
retry-after hint plus the shed-oldest-stream policy (end-to-end over
real sockets), and the protocol additions that carry it all
(``overloaded`` code, ``retry_after_ms``, the ``latency`` stats
section).
"""

import asyncio
import json
import socket

import pytest

from repro.core.database import SpatialDatabase
from repro.query.spec import KnnQuery, WindowQuery
from repro.server import (
    QueryClient,
    RemoteError,
    ServerThread,
)
from repro.server.coalescer import BatchCoalescer, CoalescerOverloaded
from repro.server.protocol import (
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
)
from repro.workloads.generators import uniform_points


@pytest.fixture(scope="module")
def db():
    """A small prepared database shared by the module's tests."""
    return SpatialDatabase.from_points(
        uniform_points(500, seed=87), backend_kind="scipy"
    ).prepare()


def window(i: int) -> WindowQuery:
    """A distinct small window per index."""
    offset = (i % 9) * 0.01
    return WindowQuery((0.1 + offset, 0.2, 0.4 + offset, 0.5))


class TestCoalescerBounds:
    def test_constructor_rejects_queue_smaller_than_batch(self, db):
        with pytest.raises(ValueError):
            BatchCoalescer(db, max_batch=8, max_queue=4)

    def test_default_queue_is_eight_batches(self, db):
        coalescer = BatchCoalescer(db, max_batch=16)
        assert coalescer.max_queue == 128

    def test_full_queue_sheds_with_a_retry_hint(self, db):
        coalescer = BatchCoalescer(db, max_batch=2, max_queue=4)

        async def run():
            # Enqueue synchronously in one event-loop turn: nothing can
            # drain in between, so the queue genuinely fills.
            futures = []
            shed = []
            for i in range(6):
                try:
                    futures.append(
                        coalescer.enqueue(window(i), client="c")
                    )
                except CoalescerOverloaded as exc:
                    shed.append(exc)
            records = await asyncio.gather(*futures)
            return records, shed

        records, shed = asyncio.run(run())
        # Admissions 0..3 fill the queue to max_queue; 4 and 5 shed.
        assert len(records) == 4
        assert len(shed) == 2
        for exc in shed:
            assert exc.retry_after_ms >= 1
            assert exc.pending == 4
        stats = coalescer.stats
        assert stats.shed_requests == 2
        assert stats.queue_peak == 4
        # The backlog drained in max_batch-sized FIFO prefixes.
        assert stats.batch_sizes == {2: 2}
        assert [r.ids for r in records] == [
            db.query(window(i)).ids() for i in range(4)
        ]

    def test_admission_wait_is_recorded_per_admitted_request(self, db):
        coalescer = BatchCoalescer(db, max_batch=8)

        async def run():
            return await asyncio.gather(
                *(coalescer.submit(window(i)) for i in range(3))
            )

        asyncio.run(run())
        wait = coalescer.admission_wait
        assert wait.count == 3
        assert wait.max_ms < 10_000.0  # sanity: a real measurement

    def test_write_flushes_an_oversized_backlog_in_chunks(self, db):
        coalescer = BatchCoalescer(db, max_batch=2, max_queue=16)
        marker = []

        async def run():
            futures = [
                coalescer.enqueue(window(i), client="c")
                for i in range(5)
            ]
            coalescer.apply_write(lambda: marker.append("wrote"))
            return await asyncio.gather(*futures)

        records = asyncio.run(run())
        assert marker == ["wrote"]
        assert len(records) == 5
        # All five pre-write reads flushed before the mutation ran, in
        # max_batch-sized batches (2 + 2 + 1), not one oversized batch.
        assert coalescer.stats.write_flushes == 1
        assert coalescer.stats.max_batch_size <= 2
        assert sum(coalescer.stats.batch_sizes.values()) == 3


def _raw_connection(server):
    """A raw NDJSON socket past the hello frame: ``(sock, reader)``."""
    sock = socket.create_connection(
        (server.host, server.port), timeout=30
    )
    reader = sock.makefile("rb")
    hello = json.loads(reader.readline())
    assert hello["type"] == "hello"
    return sock, reader


def _send(sock, frame) -> None:
    sock.sendall((json.dumps(frame) + "\n").encode())


class TestWireOverload:
    def test_pipelined_burst_sheds_with_retry_hint(self, db):
        requests = 200
        with ServerThread(db, max_batch=2, max_queue=4) as server:
            sock, reader = _raw_connection(server)
            try:
                burst = b"".join(
                    encode_frame(
                        {
                            "type": "query",
                            "id": i,
                            "spec": {
                                "kind": "window",
                                "rect": [0.1, 0.2, 0.4, 0.5],
                            },
                        }
                    )
                    for i in range(requests)
                )
                sock.sendall(burst)
                results, errors = [], []
                while len(results) + len(errors) < requests:
                    frame = json.loads(reader.readline())
                    if frame["type"] == "result":
                        results.append(frame)
                    elif frame["type"] == "error":
                        errors.append(frame)
                # Conservation: every request was answered exactly once,
                # and the bounded queue genuinely shed under the burst.
                assert len(results) + len(errors) == requests
                assert errors, "the burst never overflowed max_queue"
                assert results, "no request was admitted at all"
                for error in errors:
                    assert error["code"] == "overloaded"
                    assert error["retry_after_ms"] >= 1
                _send(sock, {"type": "stats"})
                stats = json.loads(reader.readline())
            finally:
                sock.close()
        assert stats["type"] == "stats"
        assert stats["coalescer"]["shed_requests"] == len(errors)
        assert stats["server"]["queries_shed"] == len(errors)
        assert stats["coalescer"]["queue_peak"] >= 4
        # The latency section reflects the admitted requests only.
        latency = stats["latency"]
        assert latency["admission_wait"]["count"] == len(results)
        assert latency["kinds"]["window"]["count"] == len(results)
        assert (
            latency["kinds"]["window"]["p99_ms"]
            >= latency["kinds"]["window"]["p50_ms"]
        )

    def test_overload_sheds_the_oldest_open_stream(self, db):
        with ServerThread(db, max_batch=2, max_queue=4) as server:
            victim = QueryClient(server.host, server.port)
            try:
                stream = victim.stream(
                    KnnQuery((0.5, 0.5), None), chunk_size=8
                )
                first_row = next(stream)
                assert first_row is not None

                # A second connection bursts past the admission bound,
                # which triggers the shed policy against the stream.
                sock, reader = _raw_connection(server)
                try:
                    sock.sendall(
                        b"".join(
                            encode_frame(
                                {
                                    "type": "query",
                                    "id": i,
                                    "spec": {
                                        "kind": "knn",
                                        "point": [0.5, 0.5],
                                        "k": 3,
                                    },
                                }
                            )
                            for i in range(100)
                        )
                    )
                    answered = 0
                    shed_errors = 0
                    while answered < 100:
                        frame = json.loads(reader.readline())
                        if frame["type"] in ("result", "error"):
                            answered += 1
                            if frame["type"] == "error":
                                shed_errors += 1
                    assert shed_errors >= 1
                    _send(sock, {"type": "stats"})
                    stats = json.loads(reader.readline())
                finally:
                    sock.close()
                assert stats["server"]["streams_shed"] == 1
                assert stats["server"]["streams_open"] == 0

                # The victim's next fetch surfaces the shed as an
                # 'overloaded' RemoteError carrying the backoff hint.
                with pytest.raises(RemoteError) as excinfo:
                    for _ in range(64):
                        next(stream)
                assert excinfo.value.code == "overloaded"
                assert excinfo.value.retry_after_ms >= 1
            finally:
                victim.close()


class TestProtocolAdditions:
    def test_error_frame_round_trips_retry_after(self):
        frame = error_frame(
            7, "overloaded", "queue full", retry_after_ms=25
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded["retry_after_ms"] == 25
        assert decoded["code"] == "overloaded"

    def test_plain_error_frames_omit_the_hint(self):
        frame = error_frame(7, "bad-request", "nope")
        assert "retry_after_ms" not in frame
        decode_frame(encode_frame(frame))  # still valid

    def test_negative_retry_after_is_rejected(self):
        frame = error_frame(
            7, "overloaded", "queue full", retry_after_ms=-1
        )
        with pytest.raises(ProtocolError):
            encode_frame(frame)

    def test_latency_section_rides_a_full_stats_response(self):
        frame = {
            "type": "stats",
            "server": {},
            "coalescer": {},
            "engine": {},
            "latency": {"admission_wait": {}, "kinds": {}},
        }
        decode_frame(encode_frame(frame))
        with pytest.raises(ProtocolError):
            decode_frame(
                json.dumps({"type": "stats", "latency": {}})
            )
