"""Cross-client batch coalescing: the server's admission queue.

Every read any connection admits joins one FIFO queue, and the queue is
drained on the **next event-loop turn**: everything admitted within one
turn — a pipelined burst, or coincident arrivals from several clients —
executes as **one**
:meth:`~repro.engine.batch.BatchQueryEngine.run_specs` job pool.  The
pool shares batch dedup (a spec two clients both ask for in that turn
executes once) and the LRU result cache, which also serves repeats from
earlier turns.  Per-request results are de-multiplexed back to each
submitter's future in submission order.  Nothing ever waits on a timer:
a lone request is answered on the turn after it arrives.

The coalescer is single-loop asyncio: submissions come from connection
handler tasks, the flush runs synchronously on the event loop (the
engine is not thread-safe, and a blocking flush simply lets the next
turn's arrivals queue up behind it — they form the next batch).

**Writes** serialize against the same admission queue:
:meth:`BatchCoalescer.apply_write` first flushes whatever reads are
pending — they execute against the pre-write version, so a mutation can
never poison a coalesced read batch or split it across versions — and
then applies the mutation synchronously on the loop.  Reads admitted
after the write land in a fresh batch and see the new version
(read-your-writes for every connection, since admission order is
arrival order).

**Backpressure.**  Each drain takes at most ``max_batch`` requests off
the front of the queue and re-arms itself while a backlog remains.
Between drains the loop keeps reading sockets, so under sustained
overload the admission queue genuinely grows — and is bounded: once
``max_queue`` specs are waiting, :meth:`BatchCoalescer.enqueue` sheds
the arrival with :class:`CoalescerOverloaded`, which carries a
retry-after hint derived from the current backlog and a moving estimate
of per-request service time.  Shedding at admission (instead of
queueing without bound) is what keeps the latency of *admitted*
requests bounded: a request that gets a future will wait at most
``max_queue / max_batch`` drains, no matter how hard clients push.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.stats import QueryRecord
from repro.query.executor import validate_spec
from repro.query.spec import Query
from repro.server.metrics import LatencyHistogram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.database import SpatialDatabase


class CoalescerOverloaded(RuntimeError):
    """Admission refused: the bounded queue is full.

    Raised synchronously by :meth:`BatchCoalescer.enqueue` when
    ``max_queue`` specs are already waiting.  ``retry_after_ms`` is the
    server's estimate of when the backlog will have drained — the hint
    the wire layer forwards to clients in the ``overloaded`` error
    frame.
    """

    def __init__(self, pending: int, retry_after_ms: int) -> None:
        super().__init__(
            f"admission queue full ({pending} pending); "
            f"retry in ~{retry_after_ms} ms"
        )
        #: queue depth observed at the moment of rejection
        self.pending = pending
        #: estimated milliseconds until the backlog drains
        self.retry_after_ms = retry_after_ms


@dataclass
class CoalescerStats:
    """Admission accounting across the coalescer's lifetime."""

    #: specs accepted by :meth:`BatchCoalescer.submit`
    requests: int = 0
    #: flushes executed (each one engine ``run_specs`` call)
    batches: int = 0
    #: batches that coalesced two or more requests
    coalesced_batches: int = 0
    #: batches whose requests came from two or more distinct clients
    multi_client_batches: int = 0
    #: largest batch flushed so far
    max_batch_size: int = 0
    #: histogram of flushed batch sizes (size -> count)
    batch_sizes: Dict[int, int] = field(default_factory=dict)
    #: drains that found ``max_batch`` or more specs queued
    full_flushes: int = 0
    #: mutations applied through :meth:`BatchCoalescer.apply_write`
    writes: int = 0
    #: flushes forced by a write arriving while reads were pending
    write_flushes: int = 0
    #: arrivals rejected at admission because the queue was full
    shed_requests: int = 0
    #: deepest the admission queue has ever been
    queue_peak: int = 0
    #: standing subscriptions active after the most recent write
    #: fan-out (mirrored from the live-query registry by the server)
    subscriptions: int = 0
    #: notify deltas produced across all writes (delivered frames)
    notifications: int = 0
    #: dirty-tile fanout: subscriptions evaluated, summed over writes
    #: (``subscription_fanout / writes`` is the per-write mean — the
    #: observable proof the inverted index prunes)
    subscription_fanout: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average flushed batch size (0.0 before the first flush)."""
        if not self.batches:
            return 0.0
        return self.requests_flushed / self.batches

    @property
    def requests_flushed(self) -> int:
        """Total requests across all flushed batches."""
        return sum(
            size * count for size, count in self.batch_sizes.items()
        )

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready mapping for the ``stats`` frame."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "coalesced_batches": self.coalesced_batches,
            "multi_client_batches": self.multi_client_batches,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "batch_sizes": {
                str(size): count
                for size, count in sorted(self.batch_sizes.items())
            },
            "full_flushes": self.full_flushes,
            # The admission window and its group commit are gone; the v1
            # stats frame still documents both trigger counters, and
            # clients divide by them, so they stay on the wire as 0.
            "complete_flushes": 0,
            "window_flushes": 0,
            "writes": self.writes,
            "write_flushes": self.write_flushes,
            "shed_requests": self.shed_requests,
            "queue_peak": self.queue_peak,
            "subscriptions": self.subscriptions,
            "notifications": self.notifications,
            "subscription_fanout": self.subscription_fanout,
        }


class BatchCoalescer:
    """Collects concurrent query specs and executes them as one batch.

    Parameters
    ----------
    database:
        The served :class:`~repro.core.database.SpatialDatabase`; its
        engine (and thus its planner and LRU result cache) answers every
        flushed batch.
    max_batch:
        Largest batch one drain will execute: every drain takes at most
        this many off the queue — bounding both the per-batch memory and
        how long one flush can hold the event loop.
    max_queue:
        Bound on the admission queue.  An arrival finding this many
        specs already pending is shed with :class:`CoalescerOverloaded`
        instead of queued.  Defaults to ``8 * max_batch`` — deep enough
        that normal bursts never touch it, shallow enough that the
        queueing delay of admitted requests stays within a few batch
        lifetimes.
    """

    def __init__(
        self,
        database: "SpatialDatabase",
        *,
        max_batch: int = 64,
        max_queue: Optional[int] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")
        if max_queue is None:
            max_queue = 8 * int(max_batch)
        if max_queue < max_batch:
            raise ValueError(
                f"max_queue must be >= max_batch, got {max_queue!r}"
            )
        self._db = database
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        #: admission accounting over this coalescer's lifetime
        self.stats = CoalescerStats()
        #: admission-queue wait (enqueue -> flush start) per request
        self.admission_wait = LatencyHistogram()
        self._pending: List[
            Tuple[Query, asyncio.Future, object, float]
        ] = []
        self._drain_scheduled = False
        #: EWMA of per-request execution time, feeds the retry hint
        self._service_ewma_ms: Optional[float] = None

    @property
    def pending(self) -> int:
        """Specs currently queued for the next flush."""
        return len(self._pending)

    def enqueue(
        self, spec: Query, *, client: object = None
    ) -> "asyncio.Future[QueryRecord]":
        """Admit ``spec`` *synchronously*; returns the future of its record.

        This is the admission point: the spec joins the queue drained on
        the next loop turn the moment this returns, so a caller that
        enqueues inline (the server's connection read loop does) gets
        strict arrival-order serialization against :meth:`apply_write`
        — a read admitted before a write executes on the pre-write
        version, one admitted after sees the mutation.  Invalid specs raise
        immediately (:func:`~repro.query.executor.validate_spec`)
        without poisoning the shared batch; execution errors inside a
        flush land on every future of that batch.

        Raises :class:`CoalescerOverloaded` (before creating a future)
        when ``max_queue`` specs are already pending — the load-shedding
        admission bound.
        """
        validate_spec(self._db, spec)
        if len(self._pending) >= self.max_queue:
            self.stats.shed_requests += 1
            raise CoalescerOverloaded(
                len(self._pending), self.retry_after_ms()
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((spec, future, client, perf_counter()))
        self.stats.requests += 1
        if len(self._pending) > self.stats.queue_peak:
            self.stats.queue_peak = len(self._pending)
        self._schedule_drain()
        return future

    def retry_after_ms(self) -> int:
        """Estimated milliseconds until the current backlog drains.

        The backlog divided by the service rate: queue depth times the
        EWMA of observed per-request execution time.  Before the first
        flush (no EWMA yet) the estimate assumes 1 ms per request —
        pessimistic enough to spread the first retry wave.
        """
        per_request_ms = self._service_ewma_ms or 1.0
        backlog_ms = len(self._pending) * per_request_ms
        return max(1, int(backlog_ms))

    async def submit(
        self, spec: Query, *, client: object = None
    ) -> QueryRecord:
        """Queue ``spec`` and wait for its batch to flush; returns its record.

        ``client`` is an opaque identity tag (the server passes the
        connection object) used only for the ``multi_client_batches``
        counter — the observable proof that coalescing crossed
        connection boundaries.  The awaiting convenience wrapper over
        :meth:`enqueue`.
        """
        return await self.enqueue(spec, client=client)

    def apply_write(self, mutate: Callable[[], object]) -> object:
        """Serialize a mutation against the admission queue and apply it.

        Flushes any pending reads first — they were admitted before the
        write, so they execute against the pre-write version as one
        clean batch — then runs ``mutate()`` synchronously on the event
        loop and returns its result.  Reads admitted afterwards start a
        fresh batch over the new version.  A ``mutate`` that raises
        leaves the queue state consistent (the flush has already
        happened) and propagates to the caller.
        """
        if self._pending:
            self.stats.write_flushes += 1
            self.flush_now()
        result = mutate()
        self.stats.writes += 1
        return result

    def flush_now(self) -> None:
        """Flush the whole queue now, in ``max_batch``-sized batches."""
        while self._pending:
            self._flush()

    def _schedule_drain(self) -> None:
        """Arm one drain callback for the next event-loop turn.

        Deferring by one turn (instead of flushing inline) lets every
        arrival the loop reads in this turn join the batch, and makes
        backpressure observable: sustained overload accumulates in the
        bounded queue instead of hiding inside ever-larger inline
        flushes.
        """
        if not self._drain_scheduled:
            self._drain_scheduled = True
            asyncio.get_running_loop().call_soon(self._drain)

    def _drain(self) -> None:
        """Drain callback: flush one batch, re-arm while a backlog remains.

        Takes at most ``max_batch`` off the front of the queue; any
        leftover waits one more turn, so socket reads interleave with a
        long backlog rather than the loop being monopolized by it.
        """
        self._drain_scheduled = False
        if not self._pending:  # a write flushed the queue first
            return
        if len(self._pending) >= self.max_batch:
            self.stats.full_flushes += 1
        self._flush()
        if self._pending:
            self._schedule_drain()

    def _flush(self) -> None:
        """Execute one queued batch as one engine job pool; settle futures.

        Takes the oldest ``max_batch`` entries — FIFO, so admission
        order is execution order and the admission wait recorded per
        request is the true queueing delay.
        """
        batch = self._pending[: self.max_batch]
        del self._pending[: self.max_batch]
        now = perf_counter()
        for _, _, _, admitted_at in batch:
            self.admission_wait.record_ms((now - admitted_at) * 1000.0)
        stats = self.stats
        stats.batches += 1
        size = len(batch)
        stats.max_batch_size = max(stats.max_batch_size, size)
        stats.batch_sizes[size] = stats.batch_sizes.get(size, 0) + 1
        if size >= 2:
            stats.coalesced_batches += 1
        clients = {
            client for _, _, client, _ in batch if client is not None
        }
        if len(clients) >= 2:
            stats.multi_client_batches += 1
        specs = [spec for spec, _, _, _ in batch]
        try:
            records = self._db.engine.run_specs(specs).results
        except Exception as exc:  # engine failure poisons this batch only
            for _, future, _, _ in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        exec_ms = (perf_counter() - now) * 1000.0
        per_request_ms = exec_ms / size
        if self._service_ewma_ms is None:
            self._service_ewma_ms = per_request_ms
        else:
            self._service_ewma_ms = (
                0.8 * self._service_ewma_ms + 0.2 * per_request_ms
            )
        for (_, future, _, _), record in zip(batch, records):
            if not future.done():  # submitter may have disconnected
                future.set_result(record)
