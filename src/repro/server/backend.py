"""The execution seam behind the v1 wire front end.

:class:`~repro.server.app.QueryServer` owns the *connection*; what a
frame executes against is a **backend** — any object with the methods
of :class:`LocalBackend`, the reference implementation:

``name`` / ``points``
    The hello frame's product name and live row count.
``run(spec, client=)``
    Admit one eager query *synchronously* (admission order is wire
    order); returns an awaitable of its record (``ids`` + ``stats``),
    which may raise :class:`PartialAnswer` instead.
``explain(spec)``
    The text attached to a result whose request asked to explain.
``open_stream(spec, size, client=)``
    Await a stream: ``await next_chunk()`` is the next row block
    (``None`` once exhausted), ``examined`` its progress counter,
    ``trailer()`` the extra fields of the final ``done`` chunk,
    ``await close()`` abandons the remaining work.
``write(frame, client=)``
    Await one applied mutation: ``(rows, version, points, events)`` —
    the affected row ids, the data version and live row count after
    it, and the ``(subscription, delta)`` pairs it produced.
``subscribe(spec)`` / ``unsubscribe(subscription)``
    Register / drop a standing query, synchronously.
``stats_frame(server, kinds, client=)``
    Await the whole ``stats`` frame, given the front end's counters and
    per-kind latency histograms.
``close()``
    Await the release of whatever the backend holds.

``client`` is the opaque per-connection identity: a backend whose calls
block (:mod:`repro.cluster.serving`) keeps one connection's operations
in arrival order by it while different connections run concurrently.
Everything backend-specific reaches the front end as return values or
as the typed exceptions defined here — never as a branch on the backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.geometry.point import xy_array
from repro.live.registry import SubscriptionRegistry
from repro.query.executor import validate_spec
from repro.server.coalescer import BatchCoalescer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.database import SpatialDatabase

__all__ = [
    "LocalBackend",
    "PartialAnswer",
    "Unavailable",
    "Unsupported",
]


class Unavailable(Exception):
    """The backend cannot reach the data; nothing was applied (``unavailable``)."""


class Unsupported(Exception):
    """The backend does not serve this frame type (``bad-request``)."""


class PartialAnswer(Exception):
    """An eager query answered partially, and *loudly*.

    Raised from the awaitable of ``run``: ``record`` is what could be
    gathered, ``fields`` the additive wire fields that say so.  The
    front end sends a ``result`` frame carrying both.
    """

    def __init__(self, record, fields: Dict) -> None:
        super().__init__(f"partial answer: {fields}")
        self.record = record
        self.fields = fields


class _LocalStream:
    """One chunked stream over the local database's lazy executor."""

    #: the lazy chunk iterator (``QueryResult.chunks``)
    chunks = None
    #: candidates examined so far (counting-predicate observable)
    examined = 0

    async def next_chunk(self) -> Optional[List]:
        """The next row block; ``None`` once the stream is exhausted."""
        return next(self.chunks, None)

    def trailer(self) -> Dict:
        """A local stream has nothing to add to its ``done`` chunk."""
        return {}

    async def close(self) -> None:
        """Tear down the underlying iterator (idempotent)."""
        self.chunks.close()


class LocalBackend:
    """One in-process database behind the wire front end.

    Reads go through the cross-client
    :class:`~repro.server.coalescer.BatchCoalescer` (the keyword
    options are its own), standing queries live in a
    :class:`~repro.live.registry.SubscriptionRegistry`.  The engine is
    not thread-safe, so everything runs *on* the event loop: of the
    awaitables returned here only the coalescer's batch future suspends.
    """

    name = "repro"

    def __init__(self, database: "SpatialDatabase", **coalescer_options) -> None:
        self._db = database
        #: the live-query registry: standing specs as array rows
        self.registry = SubscriptionRegistry(database)
        #: the cross-client admission queue, drained every loop turn
        self.coalescer = BatchCoalescer(database, **coalescer_options)

    @property
    def points(self) -> int:
        """Live rows in the served database."""
        return len(self._db)

    def run(self, spec, *, client):
        """Admit ``spec`` into the admission queue; returns its future.

        The spec is queued before the read loop sees the next
        frame, so a write arriving later on *any* connection cannot
        reorder ahead.  A full queue raises
        :class:`~repro.server.coalescer.CoalescerOverloaded`.
        """
        return self.coalescer.enqueue(spec, client=client)

    def explain(self, spec) -> str:
        """The planner's rendered decision table for ``spec``."""
        return self._db.explain(spec).render()

    async def open_stream(self, spec, size: int, *, client) -> _LocalStream:
        """Validate ``spec`` and open its lazy chunk iterator."""
        stream = _LocalStream()

        def count(_point) -> bool:
            # The examined counter rides the spec's predicate slot (free:
            # wire specs cannot carry a closure).  The lazy executors call
            # a predicate once per examined candidate, so this measures
            # real work — an unbounded kNN's first chunk reports examined
            # == chunk_size, the wire-visible proof that streaming never
            # ranks the rest of the database.
            stream.examined += 1
            return True

        validate_spec(self._db, spec)
        stream.chunks = self._db.query(spec.where(count)).chunks(size)
        return stream

    async def write(self, frame: Dict, *, client) -> tuple:
        """Apply one mutation frame; also evaluates the standing queries.

        The mutation goes through
        :meth:`~repro.server.coalescer.BatchCoalescer.apply_write`, which
        flushes pending reads first (they observe the pre-write version)
        and then mutates synchronously on the event loop.  Open chunked
        streams are untouched: they hold a
        :class:`~repro.core.store.StoreSnapshot` pinned at their own
        admission.  A rejected write leaves the database bit-identical.
        """
        op = frame["type"]
        db = self._db
        # O(1) pre-write snapshot: the delta evaluators' guard horizon
        # (only needed when someone is actually subscribed).
        pre = db.store.snapshot() if self.registry.active else None
        if op == "insert":
            x, y = float(frame["x"]), float(frame["y"])
            points = [(x, y)]
            rows = [self.coalescer.apply_write(lambda: db.insert((x, y)))]
        elif op == "extend":
            points = xy_array(frame["points"])
            rows = self.coalescer.apply_write(lambda: db.extend(points))
        else:  # "delete"
            row = int(frame["row"])
            self.coalescer.apply_write(lambda: db.delete(row))
            rows = [row]
            points = [db.store.coords(row)]
        events = ()
        if pre is not None:
            events = self.registry.apply_write(op, rows, points, pre=pre)
            # The write path is the one place that knows both sides, so
            # the coalescer's subscription counters are refreshed here.
            stats = self.coalescer.stats
            registry_stats = self.registry.stats
            stats.subscriptions = self.registry.active
            stats.notifications = registry_stats.notifications
            stats.subscription_fanout = registry_stats.fanout
        return rows, db.version, len(db), events

    def subscribe(self, spec):
        """Register a standing query: ``(subscription, ids, version)``."""
        subscription, ids = self.registry.register(spec)
        return subscription, ids, self._db.version

    def unsubscribe(self, subscription) -> None:
        """Drop one standing query (frees its registry row)."""
        self.registry.unregister(subscription)

    async def stats_frame(self, server: Dict, kinds: Dict, *, client) -> Dict:
        """The single-server ``stats`` frame: every counter section."""
        subscriptions = self.registry.stats.as_dict()
        subscriptions["active"] = self.registry.active
        return {
            "type": "stats",
            "server": server,
            "coalescer": self.coalescer.stats.as_dict(),
            "engine": self._db.engine.totals.as_dict(),
            "subscriptions": subscriptions,
            "latency": {
                "admission_wait": self.coalescer.admission_wait.as_dict(),
                "kinds": kinds,
            },
        }

    async def close(self) -> None:
        """Flush whatever reads are still queued (their futures settle)."""
        self.coalescer.flush_now()
