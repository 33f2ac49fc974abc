"""The asyncio NDJSON query server: the one v1 wire front end.

:class:`QueryServer` listens on TCP (``asyncio.start_server``), speaks
the frame protocol of :mod:`repro.server.protocol`, and owns everything
about a connection.  What the frames execute against is a *backend*
(:mod:`repro.server.backend`): one shared
:class:`~repro.core.database.SpatialDatabase` behind the cross-client
coalescer by default, a shard cluster behind ``python -m repro cluster``.

* **Batch queries** (the default) are admitted in wire order and each
  answered with a ``result`` frame (``explain`` attached on request).
* **Streaming queries** (``"stream": true`` — unbounded
  ``KnnQuery(k=None)``, composites, or any spec the client prefers
  chunked) are served as bounded ``chunk`` frames with *client-driven
  continuation*: the first chunk is pushed immediately, each further
  chunk only on a ``next`` frame, and ``cancel`` (or the client
  disconnecting) closes the backend stream so abandoned streams never
  finish ranking the database.
* **Writes** (``insert``/``extend``/``delete`` frames) are applied
  before the next frame is read; every query admitted after the
  ``write`` acknowledgement sees the mutation.
* **Live queries** (``subscribe``/``unsubscribe`` frames) register
  standing queries with the backend; each write's ``added``/``removed``
  deltas go out as ``notify`` frames through a per-connection queue
  drained by its own task — one slow subscriber backlogs only its own
  queue, never the write path or other subscribers.  A subscription's
  ``subscribed`` ack, every ``notify`` and the ``unsubscribed`` ack
  ride that one queue, so they arrive in version order; disconnect
  tears every subscription of the connection down.
* **Introspection**: ``stats`` answers the backend's counter sections
  around the front end's own counters and latency histograms.

Per-connection limits keep one client from starving the rest: at most
``max_inflight`` outstanding requests (pending batch queries plus open
streams) and frames over the protocol line limit close the connection.

The event loop is single-threaded.  The local engine runs *on* it (it
is not thread-safe): a flush blocks the loop for one batch execution
while arriving requests queue into the next turn's batch.  A
backend whose calls block runs them off the loop, so the front end
keeps reading every other connection meanwhile.  :class:`ServerThread`
hosts the loop in a background thread.
"""

from __future__ import annotations

import asyncio
import threading
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Optional, Set

import numpy as np

from repro.core.exceptions import ReproError
from repro.live.registry import Subscription
from repro.server.backend import (
    LocalBackend,
    PartialAnswer,
    Unavailable,
    Unsupported,
)
from repro.server.coalescer import CoalescerOverloaded
from repro.server.metrics import LatencyPanel
from repro.server.protocol import (
    DEFAULT_CHUNK_SIZE,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    pack_ids,
    parse_query_spec,
    rows_to_wire,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.database import SpatialDatabase


class _Stream:
    """Server-side state of one open chunked stream."""

    __slots__ = ("request_id", "source", "seq", "opened")

    def __init__(self, request_id: int, source, opened: int) -> None:
        self.request_id = request_id
        #: the backend's stream (see :mod:`repro.server.backend`)
        self.source = source
        self.seq = 0
        #: server-wide open-order stamp (oldest-first shed victim pick)
        self.opened = opened


class _Connection:
    """Per-connection bookkeeping: writer, in-flight ids, open streams."""

    __slots__ = (
        "writer",
        "lock",
        "inflight",
        "streams",
        "tasks",
        "subscriptions",
        "queue",
        "notifier",
    )

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        #: serialises concurrent frame writes from handler tasks
        self.lock = asyncio.Lock()
        #: request ids with an outstanding response (batch or stream)
        self.inflight: Set[int] = set()
        #: open streams by request id
        self.streams: Dict[int, _Stream] = {}
        #: in-flight batch-query tasks (strong refs; they self-discard)
        self.tasks: Set[asyncio.Task] = set()
        #: standing subscriptions by their client-chosen request id
        self.subscriptions: Dict[int, Subscription] = {}
        #: delivery queue for subscribed/notify/unsubscribed frames
        #: (created lazily on the first subscribe)
        self.queue: Optional[asyncio.Queue] = None
        #: the task draining :attr:`queue` into the socket
        self.notifier: Optional[asyncio.Task] = None


class QueryServer:
    """Concurrent NDJSON query server: one v1 front end over a backend.

    Parameters
    ----------
    database:
        The served database.  Built (and optionally
        :meth:`~repro.core.database.SpatialDatabase.prepare`-d) by the
        caller; the server mutates it only on behalf of client write
        frames.  Wrapped in a :class:`~repro.server.backend.LocalBackend`.
    backend:
        What executes the frames, instead of a ``database`` — see
        :mod:`repro.server.backend` for the seam (the cluster serves a
        :class:`~repro.cluster.serving.ClusterBackend` here).  The
        server owns it: :meth:`stop` closes it.
    host, port:
        Listen address.  ``port=0`` picks a free port — read the bound
        address from :attr:`address` after :meth:`start`.
    max_batch:
        Most queued specs one drain of the local backend's
        :class:`~repro.server.coalescer.BatchCoalescer` executes.
    chunk_size:
        Default rows per ``chunk`` frame (clients may override per
        query, capped by the protocol maximum).
    max_inflight:
        Per-connection cap on outstanding requests; beyond it the
        server answers ``too-many-requests`` errors.
    max_queue:
        Server-wide bound on the coalescer's admission queue (``None``
        keeps its default).  An arrival finding the queue full is shed
        with an ``overloaded`` error carrying a ``retry_after_ms``
        backoff hint; under sustained overload the server additionally
        sheds the oldest open chunked stream to release its snapshot.
    max_subscriptions:
        Per-connection cap on standing subscriptions (a separate budget
        from ``max_inflight`` — subscriptions are long-lived by design,
        and a dashboard holding thousands must not starve its own
        reads).
    """

    def __init__(
        self,
        database: Optional["SpatialDatabase"] = None,
        *,
        backend=None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 64,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_inflight: int = 32,
        max_queue: Optional[int] = None,
        max_subscriptions: int = 10_000,
    ) -> None:
        if (database is None) == (backend is None):
            raise ValueError("pass either a database or a backend")
        if backend is None:
            backend = LocalBackend(
                database, max_batch=max_batch, max_queue=max_queue
            )
        #: what executes the frames (see :mod:`repro.server.backend`)
        self.backend = backend
        self._host = host
        self._port = port
        self.chunk_size = int(chunk_size)
        self.max_inflight = int(max_inflight)
        self.max_subscriptions = int(max_subscriptions)
        #: routes one backend subscription back to its wire identity:
        #: sid -> (connection, client request id, packed transport?)
        self._routes: Dict[int, tuple] = {}
        #: per-query-kind service-latency histograms (stats ``latency``)
        self.latency = LatencyPanel()
        #: monotonic stamp source for stream open order (shed policy)
        self._stream_clock = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        #: lifetime server counters (the ``server`` stats section)
        self.metrics: Dict[str, int] = {
            "connections_total": 0,
            "requests_total": 0,
            "streams_opened": 0,
            "streams_completed": 0,
            "streams_cancelled": 0,
            "errors_sent": 0,
            "writes_total": 0,
            "subscriptions_opened": 0,
            "subscriptions_closed": 0,
            "notifications_sent": 0,
            "queries_shed": 0,
            "streams_shed": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def active_connections(self) -> int:
        """Connections currently open."""
        return len(self._connections)

    @property
    def active_streams(self) -> int:
        """Streams currently open across all connections."""
        return sum(len(c.streams) for c in self._connections)

    @property
    def active_subscriptions(self) -> int:
        """Standing subscriptions currently registered."""
        return len(self._routes)

    async def start(self) -> tuple:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=MAX_LINE_BYTES,
        )
        return self.address

    async def stop(self) -> None:
        """Stop accepting, close every connection, close the backend.

        Each open stream first gets an ``unavailable`` error frame, so
        its client reads why the stream ended instead of a dropped
        connection.
        """
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        connections = list(self._connections)
        for connection in connections:
            for request_id in list(connection.streams):
                try:
                    await self._send_error(
                        connection, request_id, "unavailable",
                        "server shutting down",
                    )
                except ConnectionError:
                    break  # the client is gone; teardown still runs
            await self._teardown(connection)
            connection.writer.close()
        # Let every handler read its EOF and finish: left mid-read, the
        # loop's shutdown would cancel it and log the cancellation.
        closing = [connection.writer.wait_closed() for connection in connections]
        await asyncio.gather(*closing, return_exceptions=True)
        await self.backend.close()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client session: hello, then a frame loop until EOF."""
        connection = _Connection(writer)
        self._connections.add(connection)
        self.metrics["connections_total"] += 1
        try:
            await self._send(
                connection,
                {
                    "type": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "server": f"{self.backend.name}/{_server_version()}",
                    "points": self.backend.points,
                },
            )
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                ):  # line exceeded the stream limit
                    await self._send_error(
                        connection,
                        None,
                        "bad-frame",
                        f"frame exceeds the {MAX_LINE_BYTES}-byte line limit",
                    )
                    break
                if not line:
                    break  # EOF: client closed (or vanished)
                if not line.strip():
                    continue  # blank keep-alive lines are tolerated
                try:
                    frame = decode_frame(line)
                except ProtocolError as exc:
                    await self._send_error(
                        connection, None, exc.code, exc.message
                    )
                    continue
                await self._dispatch(connection, frame)
        except ConnectionError:
            pass  # client vanished mid-write; teardown below
        finally:
            self._connections.discard(connection)
            writer.close()
            await self._teardown(connection)

    async def _teardown(self, connection: _Connection) -> None:
        """Release everything a finished connection still holds.

        The disconnect-cancellation path: closing a backend stream
        abandons its remaining work, so a client that vanishes
        mid-stream leaks no half-consumed iterator.  Standing
        subscriptions die with their connection — unregistered, their
        wire routes dropped, the delivery queue and its drain task
        released.  Bookkeeping goes first and the streams are closed
        last: a backend's close may suspend, and nothing may find a
        half-torn-down connection meanwhile.
        """
        streams = list(connection.streams.values())
        connection.streams.clear()
        connection.inflight.clear()
        for subscription in connection.subscriptions.values():
            self.backend.unsubscribe(subscription)
            self._routes.pop(subscription.sid, None)
            self.metrics["subscriptions_closed"] += 1
        connection.subscriptions.clear()
        if connection.notifier is not None:
            connection.notifier.cancel()
            connection.notifier = None
        connection.queue = None
        self.metrics["streams_cancelled"] += len(streams)
        for stream in streams:
            await stream.source.close()

    async def _send(self, connection: _Connection, frame: Dict) -> None:
        """Encode and write one frame (serialised per connection)."""
        data = encode_frame(frame)
        async with connection.lock:
            connection.writer.write(data)
            await connection.writer.drain()

    async def _send_error(
        self,
        connection: _Connection,
        request_id: Optional[int],
        code: str,
        message: str,
        *,
        retry_after_ms: Optional[int] = None,
    ) -> None:
        """Write an ``error`` frame and count it."""
        self.metrics["errors_sent"] += 1
        await self._send(
            connection,
            error_frame(
                request_id, code, message, retry_after_ms=retry_after_ms
            ),
        )

    async def _id_in_flight(
        self, connection: _Connection, request_id: int
    ) -> bool:
        """Refuse (``bad-request``) a request id that is still in use."""
        taken = (
            request_id in connection.inflight
            or request_id in connection.subscriptions
        )
        if taken:
            await self._send_error(
                connection,
                request_id,
                "bad-request",
                f"request id {request_id} is already in flight",
            )
        return taken

    # -- frame dispatch ----------------------------------------------------

    async def _dispatch(self, connection: _Connection, frame: Dict) -> None:
        """Route one validated frame to its handler.

        Every frame is *admitted* inline, in arrival order: a batch
        query joins the backend's queue before the read loop touches the
        next frame, and a write frame is applied before any later read
        is admitted — so the version a request observes is a pure
        function of wire order.  Only the *delivery* of a batch result
        runs in a task (awaiting its future), so one connection can
        still pipeline requests (and the ``max_inflight`` cap stays
        reachable).  Stream frames are handled inline end-to-end: their
        ordering (open, then ``next``/``cancel``) is arrival order.
        """
        frame_type = frame["type"]
        if frame_type == "query":
            await self._on_query(connection, frame)
        elif frame_type in ("insert", "extend", "delete"):
            await self._on_write(connection, frame)
        elif frame_type == "next":
            await self._on_next(connection, frame)
        elif frame_type == "cancel":
            await self._on_cancel(connection, frame)
        elif frame_type == "subscribe":
            await self._on_subscribe(connection, frame)
        elif frame_type == "unsubscribe":
            await self._on_unsubscribe(connection, frame)
        else:  # "stats" — the only remaining client frame type
            await self._on_stats(connection)

    async def _on_query(self, connection: _Connection, frame: Dict) -> None:
        """Admit one query: coalesced batch result or chunked stream."""
        request_id = frame["id"]
        if await self._id_in_flight(connection, request_id):
            return
        if len(connection.inflight) >= self.max_inflight:
            await self._send_error(
                connection,
                request_id,
                "too-many-requests",
                f"connection exceeds {self.max_inflight} in-flight requests",
            )
            return
        try:
            spec = parse_query_spec(frame)
        except ProtocolError as exc:
            await self._send_error(
                connection, request_id, exc.code, exc.message
            )
            return
        self.metrics["requests_total"] += 1
        connection.inflight.add(request_id)
        if frame.get("stream"):
            await self._open_stream(connection, request_id, spec, frame)
            return
        admitted_at = perf_counter()
        try:
            future = self.backend.run(spec, client=connection)
        except CoalescerOverloaded as exc:
            # Load shed: the bounded admission queue is full.  The
            # arrival is refused with a backoff hint, and sustained
            # overload also evicts the oldest open stream — the one
            # resource class that pins memory (a snapshot) while
            # contributing nothing to draining the queue.
            connection.inflight.discard(request_id)
            self.metrics["queries_shed"] += 1
            await self._shed_oldest_stream(exc.retry_after_ms)
            await self._send_error(
                connection,
                request_id,
                "overloaded",
                str(exc),
                retry_after_ms=exc.retry_after_ms,
            )
            return
        except Exception as exc:
            connection.inflight.discard(request_id)
            await self._send_error(
                connection, request_id, _error_code(exc, "bad-spec"), str(exc)
            )
            return
        task = asyncio.ensure_future(
            self._deliver_result(
                connection, request_id, spec, frame, future, admitted_at
            )
        )
        connection.tasks.add(task)
        task.add_done_callback(connection.tasks.discard)

    async def _shed_oldest_stream(self, retry_after_ms: int) -> None:
        """Overload shed policy: evict the oldest open chunked stream.

        Open streams pin MVCC snapshots for as long as the client cares
        to paginate — under overload that is memory held against the
        very capacity the queue is waiting for.  The oldest stream (the
        one whose snapshot horizon is furthest behind, pinning the most
        superseded state) is torn down and its owner notified with an
        ``overloaded`` error so it can re-issue the query after the
        backoff.  No-op when no stream is open.
        """
        victim_connection: Optional[_Connection] = None
        victim: Optional[_Stream] = None
        for candidate in self._connections:
            for stream in candidate.streams.values():
                if victim is None or stream.opened < victim.opened:
                    victim_connection = candidate
                    victim = stream
        if victim is None or victim_connection is None:
            return
        await self._end_stream(victim_connection, victim)
        self.metrics["streams_shed"] += 1
        try:
            await self._send_error(
                victim_connection,
                victim.request_id,
                "overloaded",
                "stream shed under overload; re-issue after backoff",
                retry_after_ms=retry_after_ms,
            )
        except ConnectionError:  # pragma: no cover - victim vanished
            pass

    async def _deliver_result(
        self,
        connection: _Connection,
        request_id: int,
        spec,
        frame: Dict,
        future: "asyncio.Future",
        admitted_at: float,
    ) -> None:
        """Await an admitted batch query's record and write its result.

        On success the admission-to-response wall time lands in the
        per-kind latency histogram: queue wait, execution and response
        serialisation, the server-side share of what the client feels.
        A :class:`~repro.server.backend.PartialAnswer` is a success
        whose extra fields (``degraded``, ...) ride on the frame.
        """
        try:
            partial: Dict = {}
            try:
                record = await future
            except PartialAnswer as exc:
                record, partial = exc.record, exc.fields
            except Exception as exc:
                connection.inflight.discard(request_id)
                await self._send_error(
                    connection,
                    request_id,
                    _error_code(exc, "bad-spec"),
                    str(exc),
                )
                return
            connection.inflight.discard(request_id)
            response: Dict = {
                "type": "result",
                "id": request_id,
                "stats": _stats_to_wire(record.stats),
                **partial,
            }
            _put_ids(response, "ids", record.id_array, frame.get("packed"))
            if frame.get("explain"):
                response["explain"] = self.backend.explain(spec)
            await self._send(connection, response)
            self.latency.record_ms(
                spec.kind, (perf_counter() - admitted_at) * 1000.0
            )
        except ConnectionError:
            pass  # client vanished before its result could be written

    async def _on_write(self, connection: _Connection, frame: Dict) -> None:
        """Apply one mutation frame and acknowledge with a ``write`` frame.

        Rejections (out-of-range rows, double deletes, non-finite
        coordinates that slipped past frame validation) are
        ``bad-request`` errors and leave the data bit-identical; a
        backend that could not reach the data answers ``unavailable``
        and applied nothing.
        """
        received_at = perf_counter()
        request_id = frame["id"]
        if await self._id_in_flight(connection, request_id):
            return
        if frame["type"] == "extend":
            # One float64 array from here to the stores: the decoded
            # lists (about 144 bytes a pair) are freed before any work.
            frame["points"] = np.array(
                frame["points"], dtype=np.float64
            ).reshape(-1, 2)
        try:
            rows, version, points, events = await self.backend.write(
                frame, client=connection
            )
        except Exception as exc:
            await self._send_error(
                connection,
                request_id,
                _error_code(
                    exc, "bad-request", (IndexError, ValueError, ReproError)
                ),
                str(exc),
            )
            return
        self.metrics["writes_total"] += 1
        self._fan_out(version, events)
        await self._send(
            connection,
            {
                "type": "write",
                "id": request_id,
                "op": frame["type"],
                "rows": rows,
                "version": version,
                "points": points,
            },
        )
        self.latency.record_ms(
            "write", (perf_counter() - received_at) * 1000.0
        )

    def _fan_out(self, version: int, events) -> None:
        """Push one applied write's deltas into the delivery queues.

        Runs synchronously right after the mutation (still inside the
        write frame's dispatch, so admission order equals version
        order), but only *enqueues*: actual socket writes happen in each
        connection's drain task, so a subscriber that stopped reading
        backlogs its own queue and nothing else.
        """
        for subscription, delta in events:
            route = self._routes.get(subscription.sid)
            if route is None:  # pragma: no cover - unregistered race
                continue
            owner, request_id, packed = route
            notify: Dict = {
                "type": "notify",
                "id": request_id,
                "version": version,
            }
            _put_ids(notify, "added", delta.added, packed)
            _put_ids(notify, "removed", delta.removed, packed)
            self._enqueue_frame(owner, notify)

    def _enqueue_frame(self, connection: _Connection, frame: Dict) -> None:
        """Queue one subscription frame for asynchronous delivery.

        The queue (and its drain task) is created on first use and
        lives until teardown; ``put_nowait`` on the unbounded queue
        keeps the write path non-blocking by construction.
        """
        if connection.queue is None:
            connection.queue = asyncio.Queue()
            connection.notifier = asyncio.ensure_future(
                self._drain_queue(connection)
            )
        connection.queue.put_nowait(frame)

    async def _drain_queue(self, connection: _Connection) -> None:
        """Deliver queued subscription frames in order, until torn down."""
        try:
            while True:
                frame = await connection.queue.get()
                await self._send(connection, frame)
                if frame["type"] == "notify":
                    self.metrics["notifications_sent"] += 1
        except ConnectionError:  # subscriber vanished; teardown follows
            pass

    async def _on_subscribe(
        self, connection: _Connection, frame: Dict
    ) -> None:
        """Register one standing query and ack with its initial result.

        Registration plus the initial evaluation run synchronously on
        the event loop, so the ``subscribed`` frame's ids and version
        are atomic with respect to writes: every later write is either
        fully reflected in the initial ids or delivered as a ``notify``
        — never both, never neither.  A backend without standing
        queries refuses with ``bad-request``.
        """
        request_id = frame["id"]
        if await self._id_in_flight(connection, request_id):
            return
        if len(connection.subscriptions) >= self.max_subscriptions:
            await self._send_error(
                connection,
                request_id,
                "too-many-requests",
                f"connection exceeds {self.max_subscriptions} "
                "standing subscriptions",
            )
            return
        try:
            spec = parse_query_spec(frame)
        except ProtocolError as exc:
            await self._send_error(
                connection, request_id, exc.code, exc.message
            )
            return
        self.metrics["requests_total"] += 1
        try:
            subscription, ids, version = self.backend.subscribe(spec)
        except Exception as exc:
            await self._send_error(
                connection, request_id, _error_code(exc, "bad-spec"), str(exc)
            )
            return
        packed = bool(frame.get("packed"))
        connection.subscriptions[request_id] = subscription
        self._routes[subscription.sid] = (connection, request_id, packed)
        self.metrics["subscriptions_opened"] += 1
        ack: Dict = {
            "type": "subscribed",
            "id": request_id,
            "version": version,
        }
        _put_ids(ack, "ids", ids, packed)
        # Through the delivery queue, not a direct send: the ack must
        # precede every notify for this id, and the queue is the one
        # total order the subscription's frames share.
        self._enqueue_frame(connection, ack)

    async def _on_unsubscribe(
        self, connection: _Connection, frame: Dict
    ) -> None:
        """Tear one subscription down; ack *after* its queued notifies."""
        request_id = frame["id"]
        subscription = connection.subscriptions.pop(request_id, None)
        if subscription is None:
            await self._send_error(
                connection,
                request_id,
                "bad-request",
                f"no subscription with id {request_id}",
            )
            return
        self.backend.unsubscribe(subscription)
        self._routes.pop(subscription.sid, None)
        self.metrics["subscriptions_closed"] += 1
        self._enqueue_frame(
            connection,
            {
                "type": "unsubscribed",
                "id": request_id,
                "notifications": subscription.notifications,
            },
        )

    async def _open_stream(
        self,
        connection: _Connection,
        request_id: int,
        spec,
        frame: Dict,
    ) -> None:
        """Start a chunked stream and push its first chunk.

        Time-to-first-chunk lands in the latency panel under the
        ``stream`` kind — the tail metric a paginating client feels.
        """
        opened_at = perf_counter()
        size = frame.get("chunk_size", self.chunk_size)
        try:
            source = await self.backend.open_stream(
                spec, size, client=connection
            )
        except Exception as exc:
            connection.inflight.discard(request_id)
            await self._send_error(
                connection, request_id, _error_code(exc, "bad-spec"), str(exc)
            )
            return
        self._stream_clock += 1
        stream = _Stream(request_id, source, self._stream_clock)
        connection.streams[request_id] = stream
        self.metrics["streams_opened"] += 1
        await self._push_chunk(connection, stream)
        self.latency.record_ms(
            "stream", (perf_counter() - opened_at) * 1000.0
        )

    async def _push_chunk(
        self, connection: _Connection, stream: _Stream
    ) -> None:
        """Produce and send one chunk; finish the stream on exhaustion.

        ``done`` reports *stream exhausted* (the backend returned no
        block), never a guess from a short chunk — so a final chunk of
        exactly ``chunk_size`` rows is followed by one empty ``done``
        chunk on the next ``next``, and the client logic stays a plain
        "read until done".  The ``done`` chunk also carries the
        backend stream's trailer fields (``degraded``, ...).
        """
        try:
            rows = await stream.source.next_chunk()
        except Exception as exc:
            await self._end_stream(connection, stream)
            await self._send_error(
                connection, stream.request_id, "server-error", str(exc)
            )
            return
        frame = {
            "type": "chunk",
            "id": stream.request_id,
            "seq": stream.seq,
            "rows": rows_to_wire(rows or []),
            "done": rows is None,
            "examined": stream.source.examined,
        }
        stream.seq += 1
        if rows is None:
            await self._end_stream(connection, stream)
            self.metrics["streams_completed"] += 1
            frame.update(stream.source.trailer())
        await self._send(connection, frame)

    async def _end_stream(
        self, connection: _Connection, stream: _Stream
    ) -> None:
        """Forget one stream, free its request id, close its source."""
        connection.streams.pop(stream.request_id, None)
        connection.inflight.discard(stream.request_id)
        await stream.source.close()

    async def _on_next(self, connection: _Connection, frame: Dict) -> None:
        """Client-driven continuation: produce the next chunk."""
        stream = connection.streams.get(frame["id"])
        if stream is None:
            await self._send_error(
                connection,
                frame["id"],
                "bad-request",
                f"no open stream with id {frame['id']}",
            )
            return
        await self._push_chunk(connection, stream)

    async def _on_cancel(self, connection: _Connection, frame: Dict) -> None:
        """Tear down an open stream; acknowledge with a final chunk."""
        request_id = frame["id"]
        stream = connection.streams.get(request_id)
        if stream is None:
            await self._send_error(
                connection,
                request_id,
                "bad-request",
                f"no open stream with id {request_id}",
            )
            return
        await self._end_stream(connection, stream)
        self.metrics["streams_cancelled"] += 1
        await self._send(
            connection,
            {
                "type": "chunk",
                "id": request_id,
                "seq": stream.seq,
                "rows": [],
                "done": True,
                "cancelled": True,
                "examined": stream.source.examined,
            },
        )

    async def _on_stats(self, connection: _Connection) -> None:
        """Answer ``stats``: the backend's frame around our own counters."""
        server = dict(self.metrics)
        server["connections"] = self.active_connections
        server["streams_open"] = self.active_streams
        try:
            frame = await self.backend.stats_frame(
                server, self.latency.as_dict(), client=connection
            )
        except Exception as exc:
            await self._send_error(connection, None, "server-error", str(exc))
            return
        await self._send(connection, frame)


def _error_code(
    exc: Exception, fault_code: str, faults=(ValueError, ReproError)
) -> str:
    """The stable wire error code of one backend exception.

    ``faults`` are the types that blame the request (degenerate regions,
    empty database, value errors) and ``fault_code`` what such a fault
    means on the calling path; anything else is a failure on our side.
    """
    if isinstance(exc, Unavailable):
        return "unavailable"
    if isinstance(exc, Unsupported):
        return "bad-request"
    return fault_code if isinstance(exc, faults) else "server-error"


def _put_ids(frame: Dict, key: str, ids, packed) -> None:
    """Attach an id list to ``frame`` in the transport the client chose.

    ``packed`` is the columnar wire edge: one base64 int64 array under
    ``<key>_packed`` instead of one JSON number per row (see
    :func:`~repro.server.protocol.pack_ids`) — the id payload's encode
    cost scales far below per-row JSON, and a record's read-only int32
    ``id_array`` packs with one widening cast and no per-id work.  The
    plain transport turns an array into Python ints, so JSON never sees
    a numpy integer.
    """
    if packed:
        frame[key + "_packed"] = pack_ids(ids)
    elif isinstance(ids, np.ndarray):
        frame[key] = ids.tolist()
    else:
        frame[key] = list(ids)


def _stats_to_wire(stats) -> Dict:
    """JSON-ready form of one record's :class:`~repro.core.stats.QueryStats`."""
    data = dict(vars(stats))  # flat scalar counters: no deep copy needed
    data["time_ms"] = round(float(data["time_ms"]), 4)
    return data


def _server_version() -> str:
    """The library version string (import deferred to avoid cycles)."""
    import repro

    return repro.__version__


class ServerThread:
    """A :class:`QueryServer` hosted on a background event loop.

    The blocking harness used by tests, benchmarks, the experiment
    workload, and the cluster launcher: construction starts the loop
    thread, binds the server, and blocks until it accepts connections;
    :meth:`close` (or leaving the ``with`` block) stops it — and with it
    the server's backend.  ``host``/``port`` attributes hold the bound
    address.
    """

    def __init__(self, database=None, **server_kwargs) -> None:
        self.server = QueryServer(database, **server_kwargs)
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._failure: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-query-server", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._failure is not None:
            raise RuntimeError(
                "query server failed to start"
            ) from self._failure
        #: the bound listen address
        self.host, self.port = self.server.address

    def _run(self) -> None:
        """Thread target: run the server until :meth:`close`."""
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        """Start the server, signal readiness, park until stopped."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()

    def close(self) -> None:
        """Stop the server and join the loop thread (idempotent)."""
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)
        self._loop = None

    def __enter__(self) -> "ServerThread":
        """Context-manager entry: the server is already accepting."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: stop the server."""
        self.close()
