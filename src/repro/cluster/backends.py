"""Shard backends: the coordinator's uniform view of one worker.

The :class:`~repro.cluster.coordinator.ClusterCoordinator` routes and
merges; a *backend* answers shard-local operations in shard-local row
ids.  Two implementations share the interface:

:class:`LocalShard`
    A :class:`~repro.core.database.SpatialDatabase` in this process —
    the oracle-equivalence test harness and the zero-deployment mode.
    Specs pass through unserialised, so predicates work.

:class:`RemoteShard`
    A worker process reached over the v1 NDJSON protocol.  Connections
    are pooled per shard: concurrent router calls each borrow a
    dedicated :class:`~repro.server.client.QueryClient` (the wire
    client is not thread-safe on one socket), and streams keep their
    connection checked out until closed.  Specs must be serialisable —
    the coordinator strips predicates/limits before fan-out and applies
    them at the merge layer, so this never constrains cluster clients.

**RPC hardening.**  Every remote call runs under a per-call socket
deadline (``rpc_timeout``); *read* RPCs additionally retry under a
:class:`~repro.cluster.faults.RetryPolicy` — bounded attempts, jittered
exponential backoff, connection discarded and re-dialed between
attempts (a dry pool dials fresh, so a worker restarted on the same
address reconnects transparently).  *Write* RPCs get exactly one
attempt: a retried write could double-apply on a worker that committed
the first attempt before the connection died.  A call that exhausts its
budget raises :class:`~repro.cluster.faults.ShardUnavailableError`, the
signal the coordinator's failover logic keys on.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.point import xy_array
from repro.query.spec import Query

__all__ = ["ShardBackend", "LocalShard", "RemoteShard"]

#: Transport-level failures worth retrying (server-side ``RemoteError``
#: frames are *not* here: a worker that answered is reachable, and its
#: verdict would not change on a retry).
_RETRYABLE = (ConnectionError, TimeoutError, OSError, EOFError)


class ShardBackend:
    """Interface one shard exposes to the coordinator (local ids)."""

    def query_ids(self, spec: Query) -> List[int]:
        """Answer ``spec`` eagerly; returns shard-local row ids."""
        raise NotImplementedError

    def stream_ids(
        self, spec: Query, *, chunk_size: int = 256
    ) -> Iterator[int]:
        """Lazily yield ``spec``'s shard-local row ids in result order."""
        raise NotImplementedError

    def extend(self, points: Sequence[Tuple[float, float]]) -> List[int]:
        """Insert a batch; returns the shard-local row ids in order.

        The coordinator passes an ``(n, 2)`` float64 array.
        """
        raise NotImplementedError

    def delete(self, local_id: int) -> None:
        """Tombstone one shard-local row."""
        raise NotImplementedError

    def stats_frame(self) -> Optional[dict]:
        """The shard's ``stats`` wire frame (``None`` if not serving)."""
        return None

    def ping(self) -> bool:
        """Health probe: can this backend answer right now?

        Never raises — probe failures return ``False``.  The default is
        ``True`` (an in-process shard is alive iff this process is).
        """
        return True

    def close(self) -> None:
        """Release any held resources (connections)."""


class LocalShard(ShardBackend):
    """An in-process :class:`SpatialDatabase` acting as one shard."""

    def __init__(self, database) -> None:
        #: the shard's database (local row ids)
        self.database = database

    def query_ids(self, spec: Query) -> List[int]:
        """Execute ``spec`` on the shard database (eager ids)."""
        return self.database.query(spec).ids()

    def stream_ids(
        self, spec: Query, *, chunk_size: int = 256
    ) -> Iterator[int]:
        """Stream ``spec`` lazily through the database's stream path."""
        result = self.database.query(spec)
        return result.stream()

    def extend(self, points: Sequence[Tuple[float, float]]) -> List[int]:
        """Bulk-insert into the shard database (an array as it is)."""
        return self.database.extend(points)

    def delete(self, local_id: int) -> None:
        """Tombstone one row in the shard database."""
        self.database.delete(local_id)


class _PooledClient:
    """A borrowed wire client that returns to its pool on release."""

    __slots__ = ("client", "_shard", "_returned")

    def __init__(self, client, shard: "RemoteShard") -> None:
        #: the underlying :class:`~repro.server.client.QueryClient`
        self.client = client
        self._shard = shard
        self._returned = False

    def release(self) -> None:
        """Return the connection to the shard's pool (idempotent)."""
        if not self._returned:
            self._returned = True
            self._shard._release(self.client)

    def discard(self) -> None:
        """Close the connection instead of pooling it (error paths)."""
        if not self._returned:
            self._returned = True
            try:
                self.client.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass


class RemoteShard(ShardBackend):
    """One worker process addressed over the NDJSON wire protocol.

    ``connect`` defaults to dialing a
    :class:`~repro.server.client.QueryClient`; tests may inject a
    factory.  The pool grows on demand (one connection per concurrently
    borrowing thread) and shrinks only at :meth:`close`.

    ``retry`` governs read RPCs (see the module docstring); ``None``
    installs the default :class:`~repro.cluster.faults.RetryPolicy`.
    ``rpc_timeout`` is the per-attempt socket deadline in seconds.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect: Optional[Callable[[], object]] = None,
        retry: Optional["RetryPolicy"] = None,
        rpc_timeout: float = 10.0,
    ) -> None:
        from repro.cluster.faults import RetryPolicy

        #: worker address
        self.host, self.port = host, port
        #: the read-RPC retry policy
        self.retry = retry if retry is not None else RetryPolicy()
        #: per-attempt socket deadline, seconds
        self.rpc_timeout = float(rpc_timeout)
        self._connect = connect or self._dial
        self._pool: List[object] = []
        self._lock = threading.Lock()
        self._closed = False

    def _dial(self):
        """Open one wire client to the worker (per-call socket deadline)."""
        from repro.server.client import QueryClient

        return QueryClient(self.host, self.port, timeout=self.rpc_timeout)

    def _call(
        self,
        op: Callable[[object], object],
        *,
        retryable: bool,
        keep: bool = False,
    ):
        """Run ``op(client)`` on a borrowed connection, retrying reads.

        Transport failures discard the connection (the next borrow
        re-dials when the pool is dry) and — for ``retryable`` calls —
        back off and try again under the policy's attempt and deadline
        budgets.  A call that exhausts its budget raises
        :class:`~repro.cluster.faults.ShardUnavailableError` chained to
        the last transport error; non-transport errors (a worker's
        ``RemoteError`` verdict, spec bugs) propagate unchanged.  With
        ``keep`` the connection stays borrowed and is returned next to
        the result (a stream holds its connection until it is closed).
        """
        from repro.cluster.faults import ShardUnavailableError

        policy = self.retry
        attempts = policy.attempts if retryable else 1
        deadline = time.monotonic() + policy.deadline_s
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt:
                backoff = policy.backoff_s(attempt - 1)
                if time.monotonic() + backoff > deadline:
                    break
                time.sleep(backoff)
            try:
                borrowed = self._borrow()
            except RuntimeError:
                raise  # closed backend: not a transport failure
            except _RETRYABLE as exc:
                last_error = exc
                continue
            try:
                result = op(borrowed.client)
            except _RETRYABLE as exc:
                borrowed.discard()
                last_error = exc
                continue
            except Exception:
                borrowed.discard()
                raise
            if keep:
                return result, borrowed
            borrowed.release()
            return result
        raise ShardUnavailableError(
            f"worker {self.host}:{self.port} unavailable after "
            f"{attempts} attempt(s): {last_error}"
        ) from last_error

    def _borrow(self) -> _PooledClient:
        """Check a pooled connection out (dialing when the pool is dry)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("shard backend is closed")
            if self._pool:
                return _PooledClient(self._pool.pop(), self)
        return _PooledClient(self._connect(), self)

    def _release(self, client) -> None:
        """Return one connection to the pool (closing when shut down)."""
        with self._lock:
            if not self._closed:
                self._pool.append(client)
                return
        client.close()

    def query_ids(self, spec: Query) -> List[int]:
        """Answer ``spec`` over the wire (packed ids; retried reads)."""
        return self._call(
            lambda client: client.query(spec).ids, retryable=True
        )

    def stream_ids(
        self, spec: Query, *, chunk_size: int = 256
    ) -> Iterator[int]:
        """Open a chunked wire stream; the connection stays borrowed.

        The returned generator supports ``close()`` — closing cancels
        the server-side stream and returns the connection to the pool,
        so abandoning a merge mid-way releases worker resources
        deterministically.  Opening retries like any read RPC;
        mid-stream transport failures propagate to the consumer (the
        coordinator fails the pull over to the replica).
        """
        stream, borrowed = self._call(
            lambda client: client.stream(spec, chunk_size=chunk_size),
            retryable=True,
            keep=True,
        )

        def rows() -> Iterator[int]:
            try:
                for row in stream:
                    yield row
            finally:
                try:
                    stream.close()
                except Exception:
                    borrowed.discard()
                else:
                    borrowed.release()

        return rows()

    def extend(self, points: Sequence[Tuple[float, float]]) -> List[int]:
        """Bulk-insert on the worker, chunked under the wire cap.

        Single attempt: a retried write could double-apply on a worker
        that committed before the connection died.
        """
        from repro.server.protocol import MAX_WRITE_POINTS

        points = xy_array(points)

        def run(client) -> List[int]:
            rows: List[int] = []
            for start in range(0, len(points), MAX_WRITE_POINTS):
                ack = client.extend(points[start : start + MAX_WRITE_POINTS])
                rows.extend(ack.rows)
            return rows

        return self._call(run, retryable=False)

    def delete(self, local_id: int) -> None:
        """Tombstone one worker row (single attempt, like all writes)."""
        self._call(
            lambda client: client.delete(local_id), retryable=False
        )

    def stats_frame(self) -> Optional[dict]:
        """Fetch the worker's ``stats`` frame (retried like a read)."""
        return self._call(lambda client: client.stats(), retryable=True)

    def ping(self) -> bool:
        """One-attempt liveness probe (no retries — probes must be cheap)."""
        try:
            self._call(lambda client: client.stats(), retryable=False)
        except Exception:
            return False
        return True

    def close(self) -> None:
        """Close every pooled connection and refuse new borrows."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for client in pool:
            try:
                client.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
