"""The lazy query-result handle.

:meth:`SpatialDatabase.query <repro.core.database.SpatialDatabase.query>`
returns a :class:`QueryResult` immediately, without touching the index:
execution is deferred until the result is first *consumed* (iterated,
materialised, or asked for its stats), then memoised.  This makes specs
cheap to build, pass around, and inspect — ``result.explain()`` shows
the planner's decision without ever running the query — while keeping
one execution per handle.

Projections: iteration follows the spec's ``select`` option (row ids by
default); :meth:`QueryResult.ids`, :meth:`QueryResult.points`, and
:meth:`QueryResult.distances` materialise each projection explicitly.

Streaming: for an unbounded ``KnnQuery(k=None)`` (see
:meth:`repro.query.spec.Query.streams`), iteration and
:meth:`QueryResult.first` consume a **lazy row stream**
(:func:`repro.query.executor.stream_spec`) instead of executing an eager
record: ``result.first(10)`` examines only ~10 candidates, and nothing
is memoised; ``.ids()`` / ``.stats`` / ``len()`` still perform (and
memoise) one full eager execution; :meth:`QueryResult.stream` and
``chunks`` stream any ``KnnQuery`` this way.  Every other spec,
composites included, executes once per handle on first consumption,
streams and chunks included, and iterates its record.

Distinguish this class from :class:`repro.core.stats.QueryRecord`, the
eager *record* (ids + stats) produced by one algorithm execution: the
lazy handle wraps exactly one such record once executed
(:attr:`QueryResult.record`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence

from repro.core.stats import QueryRecord
from repro.geometry.point import Point
from repro.query.spec import KnnQuery, Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.database import SpatialDatabase
    from repro.engine.batch import BatchStats
    from repro.engine.planner import PlanExplanation


class QueryResult:
    """Lazy handle for one spec's execution on one database.

    Parameters
    ----------
    database:
        The target database.
    spec:
        The immutable query spec this handle answers.
    record:
        Pre-computed execution record — the batch engine passes the
        records it produced so batch members are born executed.
    """

    __slots__ = ("_db", "_spec", "_record")

    def __init__(
        self,
        database: "SpatialDatabase",
        spec: Query,
        *,
        record: Optional[QueryRecord] = None,
    ) -> None:
        if not isinstance(spec, Query):
            raise TypeError(f"not a query spec: {spec!r}")
        self._db = database
        self._spec = spec
        self._record = record

    # -- identity ----------------------------------------------------------

    @property
    def spec(self) -> Query:
        """The spec this handle answers."""
        return self._spec

    @property
    def executed(self) -> bool:
        """Has the query run yet?  Consuming the result executes it once."""
        return self._record is not None

    @property
    def record(self) -> QueryRecord:
        """The eager execution record (ids + stats); executes on first use."""
        if self._record is None:
            from repro.query.executor import execute_spec

            self._record = execute_spec(self._db, self._spec)
        return self._record

    # -- materialisation ---------------------------------------------------

    def ids(self) -> List[int]:
        """The result row ids (a fresh list; executes if needed).

        Ascending for region kinds (area/window), nearest-first for point
        kinds (knn/nearest) — the same orders the legacy methods used.
        """
        return self.record.ids

    def points(self) -> List[Point]:
        """The stored points of the result rows, in result order."""
        point = self._db.point
        return [point(i) for i in self.record]

    def distances(self) -> List[float]:
        """Distance from the query position to each result row, in order.

        Only defined for point kinds (``KnnQuery`` / ``NearestQuery``);
        region kinds have no query position and raise :class:`ValueError`.
        """
        anchor = getattr(self._spec, "point", None)
        if anchor is None:
            raise ValueError(
                f"{self._spec.kind} queries have no query position; "
                "distances are undefined"
            )
        point = self._db.point
        return [anchor.distance_to(point(i)) for i in self.record]

    @property
    def stats(self):
        """Per-query :class:`~repro.core.stats.QueryStats` (executes).

        Returned by reference and to be treated as **read-only**: the
        engine shares finalized records between duplicate batch
        submissions and the result cache, so mutating these counters
        in place would corrupt sibling handles and cached entries.
        Copy first (:meth:`~repro.core.stats.QueryStats.copy`) if you
        need a mutable block.
        """
        return self.record.stats

    # -- streaming consumption --------------------------------------------

    def stream(self) -> Iterator:
        """Lazily yield the projected rows.

        For a :class:`~repro.query.spec.KnnQuery` not yet executed this
        is a true incremental stream — rows are produced on demand,
        abandoning the iterator abandons the remaining work, and nothing
        is memoised.  Every other spec, composites included, executes
        once per handle (memoised, like :attr:`record`) and iterates the
        eager record.  Each call produces a fresh stream.
        """
        if self._record is None and isinstance(self._spec, KnnQuery):
            from repro.query.executor import stream_spec

            ids: Iterator[int] = stream_spec(self._db, self._spec)
        else:
            ids = iter(self.record)
        select = self._spec.select
        if select == "points":
            point = self._db.point
            return (point(i) for i in ids)
        if select == "distances":
            anchor = getattr(self._spec, "point", None)
            if anchor is None:
                raise ValueError(
                    f"{self._spec.kind} queries have no query position; "
                    "distances are undefined"
                )
            point = self._db.point
            return (anchor.distance_to(point(i)) for i in ids)
        return ids

    def chunks(self, size: int) -> Iterator[List]:
        """Yield the projected rows in successive lists of ``size``.

        The chunked form of :meth:`stream`, built for push/chunked
        delivery (the query server's ``chunk`` frames): for a kNN spec
        each chunk is produced on demand — consuming one chunk of an
        unbounded kNN examines only ~``size`` candidates — and
        abandoning the iterator (``.close()``, garbage collection,
        ``break``) closes the underlying stream and abandons the
        remaining work.  Every other spec, composites included, executes
        once per handle (memoised) and chunks the eager record.
        The final chunk may be shorter than ``size``; exhaustion ends
        the iterator without an empty chunk.
        """
        if size < 1:
            raise ValueError(f"chunk size must be >= 1, got {size!r}")
        from itertools import islice

        def produce(stream: Iterator) -> Iterator[List]:
            # Explicitly close the source stream when the consumer
            # abandons this generator: islice chains do not propagate
            # close(), and the server's cancel path relies on the
            # underlying expansion being torn down deterministically.
            try:
                while True:
                    block = list(islice(stream, size))
                    if not block:
                        return
                    yield block
                    if len(block) < size:
                        return
            finally:
                close = getattr(stream, "close", None)
                if close is not None:
                    close()

        return produce(self.stream())

    def first(self, n: int) -> List:
        """The first ``n`` rows under the spec's projection.

        For an unbounded kNN this consumes only ``n`` rows of the lazy
        stream — it examines ~``n`` candidates — and nothing is
        memoised.  Other specs, composites included, execute once
        (memoised) and return the prefix.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n!r}")
        from itertools import islice

        return list(islice(iter(self), n))

    # -- consumption protocol ---------------------------------------------

    def __iter__(self) -> Iterator:
        """Stream the result under the spec's ``select`` projection.

        For an unbounded kNN not yet executed this is the lazy stream of
        :meth:`stream` (no record is materialised); otherwise it executes
        (and memoises) the record first.
        """
        if self._record is None and self._spec.streams():
            return self.stream()
        select = self._spec.select
        if select == "points":
            return iter(self.points())
        if select == "distances":
            return iter(self.distances())
        return iter(self.record)

    def __len__(self) -> int:
        """Number of result rows (executes)."""
        return len(self.record)

    def __contains__(self, row_id: int) -> bool:
        """Row-id membership (executes)."""
        return row_id in self.record

    def __repr__(self) -> str:
        state = (
            f"{len(self._record)} rows, method={self._record.stats.method!r}"
            if self._record is not None
            else "pending"
        )
        return f"QueryResult({self._spec.describe()}: {state})"

    # -- planning ----------------------------------------------------------

    def explain(self, *, execute: bool = False) -> "PlanExplanation":
        """The planner's decision record for this spec.

        Predicted per-method costs are always included.  Measured costs
        appear next to them when available: if this handle has already
        executed, its own measured stats are attached for the method that
        ran; ``execute=True`` additionally runs *every* candidate method
        (``EXPLAIN ANALYZE``) regardless.
        """
        planner = self._db.engine.planner
        explanation = planner.explain_spec(self._spec, execute=execute)
        if self._record is not None and not execute:
            stats = self._record.stats
            if stats.method in explanation.estimates:
                explanation.actual[stats.method] = stats
                explanation.actual_costs[stats.method] = (
                    planner.model.cost_of(stats)
                )
        return explanation


class BatchQueryResults(Sequence[QueryResult]):
    """Submission-ordered lazy handles plus batch-level statistics.

    Returned by :meth:`SpatialDatabase.query_batch
    <repro.core.database.SpatialDatabase.query_batch>`.  Every member is
    a :class:`QueryResult` that has already executed (batch execution is
    eager by nature — that is where the cross-query sharing happens);
    ``stats`` carries the batch's
    :class:`~repro.engine.batch.BatchStats` accounting.
    """

    __slots__ = ("_results", "stats")

    def __init__(
        self, results: List[QueryResult], stats: "BatchStats"
    ) -> None:
        self._results = results
        #: batch-level sharing/caching statistics
        self.stats = stats

    def __len__(self) -> int:
        """Number of specs answered."""
        return len(self._results)

    def __getitem__(self, item):
        """The lazy handle(s) at ``item`` (submission order)."""
        return self._results[item]

    def __iter__(self) -> Iterator[QueryResult]:
        """Iterate the handles in submission order."""
        return iter(self._results)

    def __repr__(self) -> str:
        return f"BatchQueryResults({len(self._results)} queries)"
