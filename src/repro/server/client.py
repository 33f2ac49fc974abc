"""A small blocking client for the NDJSON query server.

:class:`QueryClient` speaks the protocol of
:mod:`repro.server.protocol` over a plain TCP socket: one request at a
time, responses read synchronously — exactly the shape tests,
benchmarks, and the ``python -m repro query --remote`` CLI need.  (The
*server* supports pipelining; a client wanting it can hold several
:class:`QueryClient` connections, which is also how the benchmark
simulates concurrent tenants.)

Specs are the library's own immutable :class:`~repro.query.spec.Query`
objects; the client serialises them with
:func:`repro.query.serialize.spec_to_dict`, so anything expressible
locally (minus predicates, which have no wire form) works remotely::

    from repro.server import QueryClient
    from repro.query.spec import KnnQuery, WindowQuery

    with QueryClient(host, port) as client:
        result = client.query(WindowQuery((0.4, 0.4, 0.6, 0.6)))
        print(result.ids, result.stats["method"])
        for row_id in client.stream(KnnQuery((0.5, 0.5), None)):
            ...  # unbounded kNN, chunked server-side; break to cancel
        ack = client.insert(0.25, 0.75)   # mutations: insert/extend/delete
        client.delete(ack.rows[0])
        sub = client.subscribe(WindowQuery((0.0, 0.0, 0.5, 0.5)))
        ...                               # another client writes...
        for note in client.notifications(timeout=1.0):
            print(note.subscription_id, note.added, note.removed)
        sub.unsubscribe()

Live queries ride the same socket: :meth:`QueryClient.subscribe`
registers a standing query, the server pushes ``notify`` frames as
writes change its result, and :meth:`QueryClient.notifications` drains
them (they are also buffered transparently whenever one arrives while a
normal response is being awaited — a pushed frame never corrupts a
request/response exchange).
"""

from __future__ import annotations

import select
import socket
import time
import weakref
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional

from repro.geometry.point import xy_array
from repro.query.serialize import spec_to_dict
from repro.query.spec import Query
from repro.server.protocol import (
    DEFAULT_CHUNK_SIZE,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    delta_ids,
    encode_frame,
    result_ids,
)


class ConnectionLost(ConnectionError):
    """The server closed (or dropped) the connection under this client.

    Raised instead of a bare :class:`ConnectionError` wherever the
    client can *prove* the peer is gone — an empty ``recv`` on a socket
    ``select`` reported readable — so callers can tell a dead server
    from an idle poll timeout (:meth:`QueryClient.notifications` and
    the ``--timeout`` CLI flag return/exit differently for the two).
    Subclasses :class:`ConnectionError`, so existing transport-level
    handlers keep working.
    """


class RemoteError(RuntimeError):
    """An ``error`` frame received from the server.

    Carries the frame's stable ``code`` (see
    :data:`repro.server.protocol.ERROR_CODES`) alongside the message,
    and — for ``overloaded`` load-shedding errors — the server's
    ``retry_after_ms`` backoff hint (``None`` otherwise).
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        retry_after_ms: Optional[int] = None,
    ) -> None:
        super().__init__(f"[{code}] {message}")
        #: the error frame's machine-readable code
        self.code = code
        #: load-shedding backoff hint in milliseconds (or ``None``)
        self.retry_after_ms = retry_after_ms


def _remote_error(frame: Dict) -> RemoteError:
    """Build a :class:`RemoteError` from one decoded ``error`` frame."""
    return RemoteError(
        frame["code"],
        frame["message"],
        retry_after_ms=frame.get("retry_after_ms"),
    )


class RemoteResult:
    """One ``result`` frame: ids, execution stats, optional explain.

    ``degraded``/``shards_failed`` mirror the cluster-degradation
    fields of the frame (see :mod:`repro.server.protocol`): a degraded
    result is *explicitly partial* — the named shards contributed
    nothing.  Single-process servers and healthy clusters always
    deliver ``degraded=False``.
    """

    __slots__ = ("ids", "stats", "explain", "degraded", "shards_failed")

    def __init__(
        self,
        ids: List[int],
        stats: Dict,
        explain: Optional[str],
        *,
        degraded: bool = False,
        shards_failed: Optional[List[int]] = None,
    ) -> None:
        #: result row ids (ascending for region kinds, kNN order for points)
        self.ids = ids
        #: the execution record's :class:`~repro.core.stats.QueryStats` dict
        self.stats = stats
        #: the planner's rendered explain table (``explain=True`` only)
        self.explain = explain
        #: whether this result is explicitly partial (shards lost)
        self.degraded = bool(degraded)
        #: worker indices that could not contribute (empty when healthy)
        self.shards_failed = list(shards_failed or [])

    def __len__(self) -> int:
        """Number of result rows."""
        return len(self.ids)

    def __iter__(self):
        """Iterate the result row ids."""
        return iter(self.ids)

    def __repr__(self) -> str:
        return (
            f"RemoteResult({len(self.ids)} rows, "
            f"method={self.stats.get('method')!r})"
        )


class WriteAck:
    """One ``write`` frame: the server's acknowledgement of a mutation."""

    __slots__ = ("op", "rows", "version", "points")

    def __init__(self, frame: Dict) -> None:
        #: the acknowledged operation (``insert``/``extend``/``delete``)
        self.op = frame["op"]
        #: affected row ids (assigned ids for inserts, deleted id for delete)
        self.rows = list(frame["rows"])
        #: the database version after the mutation
        self.version = int(frame["version"])
        #: live points after the mutation (excludes tombstones)
        self.points = int(frame["points"])

    def __repr__(self) -> str:
        return (
            f"WriteAck(op={self.op!r}, rows={self.rows}, "
            f"version={self.version}, points={self.points})"
        )


class Notification:
    """One server-pushed ``notify`` frame: a subscription's delta."""

    __slots__ = ("subscription_id", "version", "added", "removed")

    def __init__(self, frame: Dict) -> None:
        #: the client-chosen id of the subscription this delta belongs to
        self.subscription_id = frame["id"]
        #: the post-write data version that produced the delta
        self.version = int(frame["version"])
        #: row ids that entered the result
        self.added = delta_ids(frame, "added")
        #: row ids that left the result
        self.removed = delta_ids(frame, "removed")

    def __repr__(self) -> str:
        return (
            f"Notification(subscription={self.subscription_id}, "
            f"version={self.version}, +{len(self.added)}/"
            f"-{len(self.removed)})"
        )


class RemoteSubscription:
    """One registered standing query: its id, initial result, version.

    Produced by :meth:`QueryClient.subscribe`.  ``ids`` is the full
    result at registration time (``version``); apply the deltas of
    every :class:`Notification` with this ``id`` — in arrival order —
    to keep an exact live mirror.
    """

    __slots__ = ("_client", "id", "ids", "version")

    def __init__(
        self, client: "QueryClient", subscription_id: int, frame: Dict
    ) -> None:
        self._client = client
        #: the client-chosen subscription id (notifications carry it)
        self.id = subscription_id
        #: the initial result row ids
        self.ids = delta_ids(frame, "ids")
        #: the data version the initial result reflects
        self.version = int(frame["version"])

    def unsubscribe(self) -> int:
        """Tear the subscription down; returns its lifetime notify count."""
        return self._client.unsubscribe(self.id)

    def __repr__(self) -> str:
        return (
            f"RemoteSubscription(id={self.id}, {len(self.ids)} rows, "
            f"version={self.version})"
        )


class QueryClient:
    """Blocking NDJSON client: connect, query, stream, stats, close.

    Parameters
    ----------
    host, port:
        The server's listen address (see
        :attr:`repro.server.app.QueryServer.address`).
    timeout:
        Socket timeout in seconds for connect and each response read.
    """

    def __init__(
        self, host: str, port: int, *, timeout: float = 30.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        # Client-side line buffer (instead of socket.makefile): keeping
        # the read-ahead bytes in our own buffer is what lets
        # notifications() poll with select() without ever losing a
        # frame the kernel already handed us.
        self._rbuf = bytearray()
        self._next_id = 0
        # cancels sent without waiting for their ack (abandoned streams);
        # _read_response consumes the acks in passing
        self._unacked_cancels: set = set()
        # server-pushed notify frames read while waiting for another
        # response; drained by notifications()
        self._notifications: Deque[Notification] = deque()
        # open RemoteStream instances by request id (weak: an abandoned
        # stream must still reach its finalizer).  Lets an unsolicited
        # 'overloaded' error — the server shedding a stream — land on
        # the right stream instead of poisoning an unrelated response.
        self._streams: "weakref.WeakValueDictionary[int, RemoteStream]" = (
            weakref.WeakValueDictionary()
        )
        #: the server's ``hello`` frame (protocol checked on connect)
        self.hello = self._read_frame()
        if self.hello.get("type") != "hello":
            raise ProtocolError(
                "bad-frame",
                f"expected a hello frame, got {self.hello.get('type')!r}",
            )
        if self.hello["protocol"] != PROTOCOL_VERSION:
            self.close()
            raise ProtocolError(
                "bad-frame",
                f"server speaks protocol {self.hello['protocol']}, "
                f"this client speaks {PROTOCOL_VERSION}",
            )

    # -- plumbing ----------------------------------------------------------

    def _send_frame(self, frame: Dict) -> None:
        self._sock.sendall(encode_frame(frame))

    def _readline(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """One NDJSON line from the buffer/socket; None on poll timeout.

        ``timeout=None`` blocks (bounded by the socket timeout, exactly
        like the old ``makefile`` reader); a finite ``timeout`` polls
        with ``select`` and returns ``None`` when no complete line
        arrived in time — with any partial line left intact in the
        buffer for the next read.

        A ``None`` return always means *idle peer*, never *dead peer*:
        even with the poll budget already spent, the socket is polled
        once more at zero timeout — a peer that closed the connection
        is readable (EOF), so it raises :class:`ConnectionLost` instead
        of masquerading as "no data yet".
        """
        deadline = (
            None if timeout is None else time.monotonic() + max(0.0, timeout)
        )
        while True:
            index = self._rbuf.find(b"\n")
            if index >= 0:
                line = bytes(self._rbuf[: index + 1])
                del self._rbuf[: index + 1]
                return line
            if len(self._rbuf) > MAX_LINE_BYTES:
                raise ProtocolError(
                    "bad-frame",
                    f"line exceeds the {MAX_LINE_BYTES}-byte limit",
                )
            if deadline is not None:
                remaining = deadline - time.monotonic()
                readable, _, _ = select.select(
                    [self._sock], [], [], max(0.0, remaining)
                )
                if not readable:
                    return None
            chunk = self._sock.recv(65_536)
            if not chunk:
                raise ConnectionLost("server closed the connection")
            self._rbuf += chunk

    def _read_frame(self) -> Dict:
        return decode_frame(self._readline())

    def _read_response(self, request_id: Optional[int]) -> Dict:
        """Read one frame, surfacing ``error`` frames as exceptions.

        Acks for lazily-cancelled streams (:meth:`RemoteStream.abandon`)
        are consumed and skipped here — the server answers frames in
        order, so such an ack can only sit *between* real responses.
        Server-pushed ``notify`` frames can arrive at any point; they
        are buffered for :meth:`notifications` and never consume a
        response slot.
        """
        while True:
            frame = self._read_frame()
            frame_id = frame.get("id")
            if frame["type"] == "notify":
                self._notifications.append(Notification(frame))
                continue
            if (
                frame_id in self._unacked_cancels
                and frame["type"] == "chunk"
                and frame.get("cancelled")
            ):
                self._unacked_cancels.discard(frame_id)
                continue
            if frame["type"] == "error":
                if frame_id != request_id and self._absorb_stream_shed(
                    frame
                ):
                    continue
                raise _remote_error(frame)
            if request_id is not None and frame_id != request_id:
                raise ProtocolError(
                    "bad-frame",
                    f"response correlates to id {frame_id!r}, "
                    f"expected {request_id}",
                )
            return frame

    def _absorb_stream_shed(self, frame: Dict) -> bool:
        """Route an unsolicited ``error`` frame to the stream it sheds.

        Under overload the server may tear down an open stream and push
        an ``overloaded`` error carrying that stream's id.  When the
        frame names one of this client's open streams, the stream is
        marked shed (its iterator raises the error on the next row) and
        the frame is consumed; returns ``False`` for every other error
        frame so the caller raises it normally.
        """
        frame_id = frame.get("id")
        stream = (
            self._streams.pop(frame_id, None)
            if frame_id is not None
            else None
        )
        if stream is None:
            return False
        stream._mark_shed(_remote_error(frame))
        return True

    def _lazy_cancel(self, request_id: int) -> None:
        """Best-effort ``cancel`` without reading the ack (finalizers).

        Used when a stream is abandoned rather than closed: the cancel
        frame goes out (so the server tears the stream down and frees
        the request id) and the ack is consumed by a later
        :meth:`_read_response`.  Failures are swallowed — a finalizer
        must never raise, and a dead connection cancels server-side
        anyway.
        """
        try:
            self._send_frame({"type": "cancel", "id": request_id})
            self._unacked_cancels.add(request_id)
        except Exception:  # noqa: BLE001 - connection already gone
            pass

    def _allocate_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- the client surface ------------------------------------------------

    def query(self, spec: Query, *, explain: bool = False) -> RemoteResult:
        """Answer ``spec`` through the server's coalesced batch path.

        Returns the de-multiplexed :class:`RemoteResult`; with
        ``explain=True`` the planner's rendered decision table rides
        along.  Raises :class:`RemoteError` on a per-request ``error``
        frame (bad spec, admission limits, execution failure).
        """
        request_id = self._allocate_id()
        frame: Dict = {
            "type": "query",
            "id": request_id,
            "spec": spec_to_dict(spec),
            # Ask for the columnar id transport: one base64 int64 array
            # beats one JSON number per row on both ends of the wire.
            "packed": True,
        }
        if explain:
            frame["explain"] = True
        self._send_frame(frame)
        response = self._read_response(request_id)
        if response["type"] != "result":
            raise ProtocolError(
                "bad-frame",
                f"expected a result frame, got {response['type']!r}",
            )
        return RemoteResult(
            result_ids(response),
            response["stats"],
            response.get("explain"),
            degraded=response.get("degraded", False),
            shards_failed=response.get("shards_failed"),
        )

    def stream(
        self, spec: Query, *, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> "RemoteStream":
        """Open a chunked stream over ``spec``; iterate rows lazily.

        The returned :class:`RemoteStream` yields individual rows,
        requesting a new ``chunk_size``-row chunk from the server only
        when the previous one is exhausted — an unbounded
        ``KnnQuery(k=None)`` therefore costs the server ~``chunk_size``
        examined candidates per chunk, never a full ranking.  Abandoning
        the iterator (``close()``, ``break`` + garbage collection, or
        leaving its ``with`` block) sends ``cancel`` so the server tears
        the underlying iterator down.
        """
        request_id = self._allocate_id()
        self._send_frame(
            {
                "type": "query",
                "id": request_id,
                "spec": spec_to_dict(spec),
                "stream": True,
                "chunk_size": chunk_size,
            }
        )
        first = self._read_response(request_id)
        if first["type"] != "chunk":
            raise ProtocolError(
                "bad-frame",
                f"expected a chunk frame, got {first['type']!r}",
            )
        stream = RemoteStream(self, request_id, first)
        if not stream.done:
            self._streams[request_id] = stream
        return stream

    def _write(self, frame: Dict) -> WriteAck:
        """Send one mutation frame and read its ``write`` ack."""
        self._send_frame(frame)
        response = self._read_response(frame["id"])
        if response["type"] != "write":
            raise ProtocolError(
                "bad-frame",
                f"expected a write frame, got {response['type']!r}",
            )
        return WriteAck(response)

    def insert(self, x: float, y: float) -> WriteAck:
        """Insert one point; the ack's ``rows`` holds its new row id.

        The mutation is durable (server-side) once this returns: any
        query sent afterwards — by this client or any other — observes
        it.  Raises :class:`RemoteError` (``bad-frame``/``bad-request``)
        on non-finite coordinates or duplicate points.
        """
        return self._write(
            {
                "type": "insert",
                "id": self._allocate_id(),
                "x": float(x),
                "y": float(y),
            }
        )

    def extend(self, points) -> WriteAck:
        """Insert a batch of ``(x, y)`` pairs; ``rows`` holds their ids.

        The batch is atomic: either every point is inserted (one index
        bulk-load, incremental Delaunay maintenance) or — on any invalid
        coordinate — none are and the server's version is unchanged.
        """
        return self._write(
            {
                "type": "extend",
                "id": self._allocate_id(),
                "points": xy_array(points).tolist(),
            }
        )

    def delete(self, row_id: int) -> WriteAck:
        """Tombstone one row by id.

        Deleted rows vanish from every query admitted after the ack but
        keep streaming from chunked streams opened before the delete
        (snapshot isolation).  Unknown or already-deleted rows raise
        :class:`RemoteError` with code ``bad-request``.
        """
        return self._write(
            {
                "type": "delete",
                "id": self._allocate_id(),
                "row": int(row_id),
            }
        )

    def stats(self) -> Dict:
        """The server's ``stats`` frame (server/coalescer/engine sections)."""
        self._send_frame({"type": "stats"})
        frame = self._read_response(None)
        if frame["type"] != "stats":
            raise ProtocolError(
                "bad-frame",
                f"expected a stats frame, got {frame['type']!r}",
            )
        return frame

    def subscribe(self, spec: Query) -> RemoteSubscription:
        """Register ``spec`` as a standing query; returns its handle.

        The returned :class:`RemoteSubscription` carries the full result
        at registration time and the data version it reflects.  Every
        later write that changes the result produces a
        :class:`Notification` (drain them with :meth:`notifications`)
        whose ``added``/``removed`` deltas, applied in arrival order,
        keep an exact mirror.  Subscribable specs are the leaf region
        kinds and bounded kNN — composites, predicates, and limits raise
        :class:`RemoteError` with code ``bad-spec``.
        """
        request_id = self._allocate_id()
        self._send_frame(
            {
                "type": "subscribe",
                "id": request_id,
                "spec": spec_to_dict(spec),
                "packed": True,
            }
        )
        response = self._read_response(request_id)
        if response["type"] != "subscribed":
            raise ProtocolError(
                "bad-frame",
                f"expected a subscribed frame, got {response['type']!r}",
            )
        return RemoteSubscription(self, request_id, response)

    def unsubscribe(self, subscription) -> int:
        """Tear down a subscription (handle or id); returns its notify count.

        Notifications already pushed for it may still be buffered (or in
        flight until the ``unsubscribed`` ack, which the server orders
        *after* them) — they simply describe versions from before the
        teardown.
        """
        subscription_id = getattr(subscription, "id", subscription)
        self._send_frame(
            {"type": "unsubscribe", "id": int(subscription_id)}
        )
        response = self._read_response(subscription_id)
        if response["type"] != "unsubscribed":
            raise ProtocolError(
                "bad-frame",
                f"expected an unsubscribed frame, got {response['type']!r}",
            )
        return int(response["notifications"])

    def notifications(
        self, *, timeout: float = 0.0, max_count: Optional[int] = None
    ) -> List[Notification]:
        """Drain pushed :class:`Notification` frames (oldest first).

        Returns everything already buffered, then polls the socket for
        up to ``timeout`` seconds for more (``0.0`` returns immediately
        — pure drain).  ``max_count`` caps the returned list; surplus
        stays buffered for the next call.  Only ``notify`` frames are
        expected between requests, so anything else read here raises.
        """
        drained: List[Notification] = []
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            while self._notifications:
                drained.append(self._notifications.popleft())
                if max_count is not None and len(drained) >= max_count:
                    return drained
            remaining = deadline - time.monotonic()
            if remaining <= 0 and drained:
                return drained
            line = self._readline(timeout=max(0.0, remaining))
            if line is None:
                return drained
            frame = decode_frame(line)
            if frame["type"] == "notify":
                self._notifications.append(Notification(frame))
            elif frame["type"] == "error":
                if not self._absorb_stream_shed(frame):
                    raise _remote_error(frame)
            else:
                raise ProtocolError(
                    "bad-frame",
                    "unexpected frame between requests: "
                    f"{frame['type']!r}",
                )

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass

    def __enter__(self) -> "QueryClient":
        """Context-manager entry (connection already established)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the connection."""
        self.close()


class RemoteStream:
    """Client-side iterator over one server stream (rows, not chunks).

    Produced by :meth:`QueryClient.stream`.  Attributes expose the
    protocol-level accounting the benchmarks assert on:
    ``chunks_received`` counts ``chunk`` frames consumed, ``examined``
    mirrors the server's candidates-examined counter from the most
    recent chunk, and ``done``/``cancelled`` reflect the stream's final
    state.
    """

    def __init__(
        self, client: QueryClient, request_id: int, first_chunk: Dict
    ) -> None:
        self._client = client
        self._request_id = request_id
        self._buffer: List = list(first_chunk["rows"])
        self._position = 0
        #: ``chunk`` frames received so far
        self.chunks_received = 1
        #: the server's examined-candidates counter (latest chunk)
        self.examined = int(first_chunk.get("examined", 0))
        #: has the server reported the stream exhausted?
        self.done = bool(first_chunk["done"])
        #: did this side cancel before exhaustion?
        self.cancelled = False
        #: the ``overloaded`` error that shed this stream server-side
        #: (``None`` while healthy); raised on the next row fetch
        self.shed: Optional[RemoteError] = None
        #: whether the stream lost shards (stamped on the final chunk)
        self.degraded = bool(first_chunk.get("degraded", False))
        #: worker indices that could not contribute (final chunk)
        self.shards_failed: List[int] = list(
            first_chunk.get("shards_failed", [])
        )

    def _mark_shed(self, error: RemoteError) -> None:
        """Record a server-side shed: the stream is gone, rows raise."""
        self.shed = error
        self.cancelled = True

    def __iter__(self) -> Iterator:
        """Iterate the remaining rows, fetching chunks on demand."""
        return self

    def __next__(self):
        """The next row; sends ``next`` when the buffer runs dry."""
        while self._position >= len(self._buffer):
            if self.shed is not None:
                raise self.shed
            if self.done or self.cancelled:
                raise StopIteration
            self._fetch()
        row = self._buffer[self._position]
        self._position += 1
        return row

    def _fetch(self) -> None:
        """Request and ingest one more chunk."""
        self._client._send_frame(
            {"type": "next", "id": self._request_id}
        )
        chunk = self._client._read_response(self._request_id)
        if chunk["type"] != "chunk":
            raise ProtocolError(
                "bad-frame",
                f"expected a chunk frame, got {chunk['type']!r}",
            )
        self.chunks_received += 1
        self.examined = int(chunk.get("examined", self.examined))
        self.done = bool(chunk["done"])
        if chunk.get("degraded"):
            self.degraded = True
            self.shards_failed = list(chunk.get("shards_failed", []))
        if self.done:
            self._client._streams.pop(self._request_id, None)
        self._buffer = list(chunk["rows"])
        self._position = 0

    def close(self) -> None:
        """Cancel the stream server-side and wait for the ack
        (no-op once done/cancelled)."""
        if self.done or self.cancelled:
            return
        self.cancelled = True
        self._client._send_frame(
            {"type": "cancel", "id": self._request_id}
        )
        ack = self._client._read_response(self._request_id)
        if ack["type"] != "chunk" or not ack.get("cancelled"):
            raise ProtocolError(
                "bad-frame", "expected a cancellation-ack chunk frame"
            )

    def abandon(self) -> None:
        """Cancel without waiting for the ack (safe in finalizers).

        The dropped-on-the-floor path: ``break``-ing out of the
        iteration and letting the stream be garbage collected lands
        here via ``__del__``, so an abandoned stream still frees its
        server-side iterator and request id.  The ack is reconciled by
        the client on its next read.  Prefer ``close()`` (or the
        ``with`` block) when you need the cancellation to be complete
        before the next call.
        """
        if self.done or self.cancelled:
            return
        self.cancelled = True
        self._client._lazy_cancel(self._request_id)

    def __del__(self) -> None:
        """Finalizer: abandon the stream if it was never closed."""
        try:
            self.abandon()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def __enter__(self) -> "RemoteStream":
        """Context-manager entry."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: cancel if still open."""
        self.close()
