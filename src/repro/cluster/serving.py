"""The cluster behind the v1 wire front end.

:class:`ClusterBackend` lets the one protocol server
(:class:`~repro.server.app.QueryServer`) serve a
:class:`~repro.cluster.coordinator.ClusterCoordinator` through the seam
of :mod:`repro.server.backend`, so every existing client talks to a
cluster without change.  What differs from a single server is
wire-legal (docs/CLUSTER.md has the table) and reaches the front end as
data or typed exceptions: the ``repro-cluster`` hello, the shard-merged
``stats`` frame with its ``cluster`` section, the routing ``explain``,
the ``subscribe`` refusal, and *loud* partial failure — ``degraded`` +
``shards_failed`` on a result (or a stream's ``done`` chunk) that lost
a shard from both copies, ``unavailable`` for a write whose owning
shard is unreachable (it did not apply).

Concurrency: coordinator calls block on shard RPCs, so they run on a
thread pool, off the event loop.  One connection's calls run one at a
time in arrival order (the single-server admission semantics);
different connections run concurrently, and the coordinator's
readers-writer lock lets their reads fan out to workers in parallel.
"""

from __future__ import annotations

import asyncio
import math
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from time import perf_counter
from typing import Dict, Iterator, List, Optional

from repro.cluster.coordinator import (
    ClusterCoordinator,
    ClusterDegradedError,
    ClusterStream,
)
from repro.core.stats import QueryRecord
from repro.core.stats import QueryStats
from repro.server.backend import PartialAnswer, Unavailable, Unsupported

__all__ = ["ClusterBackend"]

#: Most coordinator calls in progress at once — one per busy connection.
_MAX_CONCURRENT_CALLS = 64


def _degraded_fields(shards_failed) -> Dict:
    """The additive wire fields of a result that lost ``shards_failed``."""
    return {"degraded": True, "shards_failed": sorted(set(shards_failed))}


def _blocks(rows: Iterator, size: int) -> Iterator[List]:
    """Cut a row stream into blocks of ``size`` (the last may be short)."""
    while block := list(islice(rows, size)):
        yield block


class _ClusterStream:
    """One chunked stream over a merged :class:`ClusterStream`."""

    def __init__(
        self, backend: "ClusterBackend", client, source: ClusterStream, blocks
    ) -> None:
        self._backend = backend
        self._client = client
        self._source = source
        self._blocks = blocks
        #: rows produced so far (the chunk frames' ``examined`` field)
        self.examined = 0

    def _pull(self) -> Optional[List]:
        rows = next(self._blocks, None)
        self.examined += len(rows or ())
        return rows

    async def next_chunk(self) -> Optional[List]:
        """The next projected row block; ``None`` once exhausted."""
        return await self._backend._call(self._client, self._pull)

    def trailer(self) -> Dict:
        """Degradation the merge accumulated: shards lost mid-flight."""
        if not self._source.shards_failed:
            return {}
        self._backend.degraded_results += 1
        return _degraded_fields(self._source.shards_failed)

    async def close(self) -> None:
        """Tear down the underlying shard streams."""
        await self._backend._call(self._client, self._source.close)


class ClusterBackend:
    """Serve a :class:`ClusterCoordinator` through the shared front end.

    The backend owns the coordinator: :meth:`close` closes it, shard
    backends included.
    """

    name = "repro-cluster"

    def __init__(self, coordinator: ClusterCoordinator) -> None:
        #: the routing/merge engine (remote workers or in-process shards)
        self.coordinator = coordinator
        #: result frames and ``done`` chunks sent degraded, and writes
        #: refused for an unreachable shard (stats: ``cluster.router``)
        self.degraded_results = 0
        self.writes_unavailable = 0
        self._pool = ThreadPoolExecutor(
            max_workers=_MAX_CONCURRENT_CALLS,
            thread_name_prefix="repro-cluster-call",
        )
        #: each client's most recent call: the next one runs after it
        self._last_call: Dict[object, asyncio.Future] = {}

    @property
    def points(self) -> int:
        """Live rows across all shards."""
        return self.coordinator.total_live

    def _call(self, client, function, *args) -> "asyncio.Future":
        """Run blocking ``function`` off the loop, in ``client`` order.

        It is queued behind the client's previous call the moment this
        returns: admission order is wire order, whenever the result is
        awaited.  Counters are bumped here, on the loop: no lock needed.
        """
        loop = asyncio.get_running_loop()
        previous = self._last_call.get(client)

        async def in_order():
            if previous is not None:
                await asyncio.wait([previous])
            try:
                return await loop.run_in_executor(self._pool, function, *args)
            except PartialAnswer:
                self.degraded_results += 1
                raise
            except Unavailable:
                self.writes_unavailable += 1
                raise
            finally:
                if self._last_call.get(client) is task:
                    del self._last_call[client]

        task = self._last_call[client] = loop.create_task(in_order())
        return task

    def run(self, spec, *, client) -> "asyncio.Future":
        """Scatter-gather ``spec``; the awaitable of its record."""
        return self._call(client, self._query, spec)

    def _query(self, spec) -> QueryRecord:
        started = perf_counter()
        shards_failed = None
        try:
            ids = self.coordinator.query(spec)
        except ClusterDegradedError as exc:
            # A shard was lost from both copies: answer with the
            # explicitly-partial result, never a silent one.
            ids, shards_failed = exc.ids, exc.shards_failed
        stats = QueryStats(
            method="cluster",
            result_size=len(ids),
            time_ms=(perf_counter() - started) * 1000.0,
        )
        record = QueryRecord(ids, stats)
        if shards_failed is not None:
            raise PartialAnswer(record, _degraded_fields(shards_failed))
        return record

    def explain(self, spec) -> str:
        """Render the routing decision for an ``explain`` query."""
        shard_map = self.coordinator.shard_map
        point = getattr(spec, "point", None)
        if point is not None:
            owner = shard_map.owner_of(point.x, point.y)
            route = f"owning shard {owner}, ball expansion on demand"
        else:
            route = "fan out to range-intersecting shards, merge sorted ids"
        return (
            f"cluster scatter-gather over {self.coordinator.workers} "
            f"workers ({len(shard_map.ranges)} Hilbert ranges, "
            f"order={shard_map.order})\n"
            f"spec: {spec.describe()}\nroute: {route}"
        )

    async def open_stream(self, spec, size: int, *, client) -> _ClusterStream:
        """Open the merged gid stream, cut into projected row blocks."""
        source = await self._call(client, self.coordinator.stream, spec)
        rows: Iterator = source
        point_of = self.coordinator.point
        if spec.select == "points":
            rows = map(point_of, source)
        elif spec.select == "distances":
            focal = spec.point
            rows = (
                math.hypot(other.x - focal.x, other.y - focal.y)
                for other in map(point_of, source)
            )
        return _ClusterStream(self, client, source, _blocks(rows, size))

    async def write(self, frame: Dict, *, client) -> tuple:
        """Route one mutation to its owning shard."""
        return await self._call(client, self._write, frame)

    def _write(self, frame: Dict) -> tuple:
        coordinator = self.coordinator
        op = frame["type"]
        try:
            if op == "insert":
                rows = coordinator.extend([(frame["x"], frame["y"])])
            elif op == "extend":
                rows = coordinator.extend(frame["points"])
            else:  # "delete"
                rows = [int(frame["row"])]
                coordinator.delete(rows[0])
        except (OSError, EOFError) as exc:
            # The coordinator never acks a write its primary did not
            # commit, so the client may retry after recovery.
            raise Unavailable(
                f"owning shard unreachable, write not applied: {exc}"
            ) from exc
        return rows, coordinator.version, coordinator.total_live, ()

    def subscribe(self, spec):
        """Standing queries are not served through the cluster."""
        # They need cross-shard delta ordering the scatter-gather layer
        # does not provide; explicit rejection beats absent notifies.
        raise Unsupported(
            "subscriptions are not supported through the cluster "
            "router; subscribe to a worker directly or poll"
        )

    async def stats_frame(self, server: Dict, kinds: Dict, *, client) -> Dict:
        """The shard-merged frame; the front end under ``cluster.router``."""
        frame = await self._call(client, self.coordinator.stats_frame)
        frame["cluster"]["router"] = dict(
            server,
            connections_accepted=server["connections_total"],
            degraded_results=self.degraded_results,
            writes_unavailable=self.writes_unavailable,
        )
        return frame

    async def close(self) -> None:
        """Let running calls finish, then close the coordinator (and shards)."""
        self._pool.shutdown(wait=True, cancel_futures=True)
        self.coordinator.close()
