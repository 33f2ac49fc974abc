"""Scatter-gather query coordination over Hilbert-sharded workers.

The :class:`ClusterCoordinator` is the cluster's brain, independent of
any transport: it owns the :class:`~repro.cluster.shardmap.ShardMap`,
the global row-id catalog, and the routing/merge rules, and talks to
its shards through the :class:`~repro.cluster.backends.ShardBackend`
interface (in-process databases or remote workers alike — the wire
front end serves this same class through
:class:`~repro.cluster.serving.ClusterBackend`).

**Identity.**  Clients see *global* row ids, assigned in write-arrival
order exactly like a single :class:`~repro.core.database.SpatialDatabase`
assigns its row ids — so a cluster driven by a trace produces the same
ids as the single-process oracle.  Each shard stores its rows under its
own local ids; the coordinator's catalog maps both directions and also
keeps every live row's coordinates, which is what lets it evaluate
predicates, order kNN merges by exact distance, and migrate rows during
a rebalance without ever reading data back from a worker.

**Routing.**  Point writes and kNN/nearest seeds go to the single shard
owning the point's Hilbert key.  A bounded kNN expands beyond the owner
only when the kth-distance ball crosses a shard boundary
(:meth:`ShardMap.workers_for_circle`).  Window/area (and composite
leaves) fan out to every shard whose Hilbert range intersects the
region's key interval; shard-local sorted id lists are translated to
global ids and merged with :func:`repro.query.merge.union_sorted`.
Streaming kNN interleaves the shards' ``incremental_nearest`` wire
streams by distance.  Predicates and limits are *never* pushed down:
shards answer the raw geometric spec and the coordinator applies the
user-level options at the merge layer, in the same order
:func:`repro.query.executor.finalize_record` does — predicate first,
then limit.

**Rebalancing.**  After any write, if the heaviest worker's live count
exceeds ``imbalance_ratio`` times the mean, its fullest Hilbert range
is split at the live median key and the upper half migrates to the
lightest worker (see :meth:`rebalance_once`).

**Fault tolerance.**  Each worker may be paired with a standby
*replica* backend (``replicas=``): point writes mirror to the replica
synchronously (in parallel with the primary apply, so steady-state
mirror cost is bounded by the slower of the two, not their sum) and
reads fail over to it when the primary is unreachable or marked
``down`` by the health tracker.  A failed mirror marks the replica
*dirty* — it stops serving failover reads until a supervisor rebuild
(:meth:`rebuild_replica`) restores it, so failover never silently
serves an incomplete copy.  Scatter-gather queries that lose an
unreplicated (or doubly-failed) shard raise
:class:`ClusterDegradedError` carrying the partial result and the
failed worker list — the wire front end turns this into an explicit
``degraded`` result frame, never a silent partial answer.  Streams
report the same through :class:`ClusterStream.shards_failed`.
"""

from __future__ import annotations

import heapq
import math
import threading
from array import array
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.backends import ShardBackend
from repro.cluster.faults import HealthTracker
from repro.cluster.shardmap import ShardMap
from repro.cluster.stats import merge_stats_frames
from repro.core.exceptions import EmptyDatabaseError, InvalidQueryAreaError
from repro.engine.order import DEFAULT_ORDER
from repro.geometry.point import Point
from repro.query.merge import union_sorted
from repro.query.executor import merge_sorted_ids
from repro.query.spec import (
    AreaQuery,
    CompositeQuery,
    KnnQuery,
    NearestQuery,
    Query,
    WindowQuery,
)

__all__ = [
    "ClusterCoordinator",
    "ClusterWriteError",
    "ClusterDegradedError",
    "ClusterStream",
]

#: Transport-level failures that trigger failover (not query verdicts).
#: :class:`ShardUnavailableError` and :class:`TimeoutError` both
#: subclass :class:`OSError`; ``EOFError`` covers half-closed pipes.
_UNAVAILABLE = (OSError, EOFError)


class ClusterWriteError(ValueError):
    """A write the cluster must reject (unknown row, bad coordinates)."""


class ClusterDegradedError(RuntimeError):
    """A query lost shards with no usable replica: explicit degradation.

    Carries the *partial* merged result (``ids``) and the worker
    indices that could not answer (``shards_failed``), so callers
    choose between surfacing the partial answer (the wire front end
    marks the result frame ``degraded``) and treating it as a failure.  Never
    raised while every lost shard has a clean replica — failover is
    silent by design; degradation is loud by design.
    """

    def __init__(self, ids: List[int], shards_failed: List[int]) -> None:
        super().__init__(
            f"shards {shards_failed} unavailable; partial result of "
            f"{len(ids)} row(s)"
        )
        #: the partial merged global ids (oracle order, failed shards
        #: contributing nothing)
        self.ids = ids
        #: sorted worker indices that failed primary and replica
        self.shards_failed = shards_failed


class ClusterStream:
    """A cluster stream plus its degradation record.

    Iterating yields global ids exactly like the raw generator the
    coordinator used to return; :attr:`shards_failed` accumulates the
    workers lost mid-stream with no usable replica (the wire front end
    copies it onto the final ``done`` chunk).  ``close()`` tears down the
    underlying shard streams.
    """

    def __init__(
        self,
        source: Iterator[int],
        shards_failed: Optional[List[int]] = None,
    ) -> None:
        self._source = source
        #: workers that could not contribute (primary and replica lost)
        self.shards_failed: List[int] = (
            shards_failed if shards_failed is not None else []
        )

    @property
    def degraded(self) -> bool:
        """Whether any shard failed to contribute so far."""
        return bool(self.shards_failed)

    def __iter__(self) -> "ClusterStream":
        return self

    def __next__(self) -> int:
        return next(self._source)

    def close(self) -> None:
        """Close the underlying merged stream."""
        close = getattr(self._source, "close", None)
        if close is not None:
            close()


class _RWLock:
    """Many concurrent readers or one writer (no reentrancy needed)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False

    @contextmanager
    def read(self):
        """Hold shared read access for the ``with`` block."""
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        """Hold exclusive write access for the ``with`` block."""
        with self._cond:
            while self._writing or self._readers:
                self._cond.wait()
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


def _effective_k(spec: KnnQuery) -> Optional[int]:
    """The row budget of a kNN spec (``k`` capped by ``limit``).

    Mirrors the single-process executor: ``None`` means unbounded.
    """
    if spec.k is None:
        return spec.limit
    if spec.limit is not None:
        return min(spec.k, spec.limit)
    return spec.k


def _require_finite(x: float, y: float) -> None:
    """Reject non-finite write coordinates before any shard sees them."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ClusterWriteError(
            f"coordinates must be finite, got ({x!r}, {y!r})"
        )


class ClusterCoordinator:
    """Routing, identity, and merge logic for one shard cluster.

    Parameters
    ----------
    backends:
        One :class:`~repro.cluster.backends.ShardBackend` per worker,
        in worker-index order.  Workers start empty unless restoring.
    replicas:
        Optional standby backends, indexed by *replica slot* (the
        ``replica`` field of the shard map's ranges).  Passing a list
        with no replica-aware map pairs worker ``i`` with slot ``i``.
        ``None``/empty disables replication.
    order:
        Hilbert refinement order of the shard map (default 8).
    shard_map:
        Explicit starting map; defaults to an even partition.
    imbalance_ratio:
        Rebalance triggers when the heaviest worker's live count
        exceeds this multiple of the mean live count.
    min_split:
        Never split a worker holding fewer live rows than this.
    auto_rebalance:
        Check the imbalance trigger after every write batch.

    Thread safety: reads run concurrently; writes (and rebalances) are
    exclusive, guarded by an internal readers-writer lock.
    """

    def __init__(
        self,
        backends: Sequence[ShardBackend],
        *,
        replicas: Optional[Sequence[Optional[ShardBackend]]] = None,
        order: int = DEFAULT_ORDER,
        shard_map: Optional[ShardMap] = None,
        imbalance_ratio: float = 2.0,
        min_split: int = 64,
        auto_rebalance: bool = True,
        chunk_size: int = 256,
    ) -> None:
        if not backends:
            raise ValueError("need at least one shard backend")
        self._backends = list(backends)
        self._replicas: List[Optional[ShardBackend]] = list(replicas or [])
        self._map = shard_map or ShardMap.even(len(backends), order=order)
        if self._map.all_workers() - set(range(len(backends))):
            raise ValueError("shard map names workers without a backend")
        if not self._replicas and any(
            self._map.replica_of(w) is not None
            for w in range(len(backends))
        ):
            # A replica-aware map (e.g. a snapshot taken from a
            # replicated cluster) restored without replica backends:
            # run unreplicated rather than refuse the data.
            self._map = self._map.with_replicas({})
        if self._replicas and all(
            self._map.replica_of(w) is None for w in range(len(backends))
        ):
            # Replica backends without a replica-aware map: pair worker
            # i with slot i (the launcher's default topology).
            if len(self._replicas) != len(backends):
                raise ValueError(
                    f"{len(self._replicas)} replicas cannot pair "
                    f"one-to-one with {len(backends)} workers; pass a "
                    "shard map with explicit replica slots"
                )
            self._map = self._map.with_replicas(
                {w: w for w in range(len(backends))}
            )
        for worker in range(len(backends)):
            slot = self._map.replica_of(worker)
            if slot is None:
                continue
            if slot >= len(self._replicas) or self._replicas[slot] is None:
                raise ValueError(
                    f"shard map pairs worker {worker} with replica "
                    f"slot {slot}, but no such replica backend was given"
                )
        #: rebalance trigger ratio (heaviest vs mean live count)
        self.imbalance_ratio = float(imbalance_ratio)
        #: minimum live rows on a worker before it may split
        self.min_split = int(min_split)
        #: run the rebalance check after each write batch
        self.auto_rebalance = bool(auto_rebalance)
        #: rows per chunk on shard wire streams
        self.chunk_size = int(chunk_size)
        # Catalog, indexed by global id.  Dead/placeholder rows keep
        # their slot (ids are never reused) with ``_alive == 0``.
        self._xs = array("d")
        self._ys = array("d")
        self._keys = array("q")
        self._worker = array("i")
        self._local = array("q")
        self._alive = bytearray()
        self._local_to_global: List[Dict[int, int]] = [
            {} for _ in self._backends
        ]
        self._live = [0] * len(self._backends)
        self._version = 0
        self._rebalances = 0
        self._lock = _RWLock()
        # Replica-side catalog: each live row's local id on its
        # worker's replica slot (-1 = not mirrored), plus the reverse
        # mapping per slot.  A slot goes *dirty* on any failed mirror
        # and stops serving failover reads until rebuilt.
        self._replica_local = array("q")
        self._replica_to_global: List[Dict[int, int]] = [
            {} for _ in self._replicas
        ]
        self._replica_dirty = [False] * len(self._replicas)
        # Health state machines (primaries by worker index, replicas by
        # slot index) and the fault-tolerance counters.
        self._health = [HealthTracker() for _ in self._backends]
        self._replica_health = [HealthTracker() for _ in self._replicas]
        self._mirror_failures = 0
        self._failovers = 0
        self._degraded_results = 0
        self._recoveries = 0
        self._mirror_pool: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=max(2, len(self._replicas)),
                thread_name_prefix="repro-mirror",
            )
            if self._replicas
            else None
        )
        self._monitor_thread: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()

    # -- introspection -----------------------------------------------------

    @property
    def workers(self) -> int:
        """Number of worker shards."""
        return len(self._backends)

    @property
    def shard_map(self) -> ShardMap:
        """The current Hilbert-range routing table."""
        return self._map

    @property
    def version(self) -> int:
        """Monotone cluster data version (one tick per applied write)."""
        return self._version

    @property
    def total_live(self) -> int:
        """Live rows across all shards."""
        return sum(self._live)

    @property
    def live_counts(self) -> List[int]:
        """Per-worker live row counts (copy)."""
        return list(self._live)

    @property
    def rebalances(self) -> int:
        """Completed rebalance splits."""
        return self._rebalances

    def point(self, global_id: int) -> Point:
        """The catalog coordinates of an assigned global row id.

        Merge-layer predicates and wire projections run through here:
        like the oracle's ``database.point``, a tombstoned row's
        coordinates stay addressable, so streams admitted before a
        delete keep working.
        """
        return Point(self._xs[global_id], self._ys[global_id])

    def _is_live(self, global_id: int) -> bool:
        return 0 <= global_id < len(self._alive) and bool(
            self._alive[global_id]
        )

    def _squared_distance(self, global_id: int, x: float, y: float) -> float:
        dx = self._xs[global_id] - x
        dy = self._ys[global_id] - y
        return dx * dx + dy * dy

    @property
    def replicated(self) -> bool:
        """Whether any worker has a replica slot."""
        return bool(self._replicas)

    def health_snapshot(self) -> Dict[str, List[str]]:
        """Current health states: ``{"primaries": [...], "replicas": [...]}``."""
        return {
            "primaries": [tracker.state for tracker in self._health],
            "replicas": [
                tracker.state for tracker in self._replica_health
            ],
        }

    def close(self) -> None:
        """Stop the health monitor and close every backend (replicas too)."""
        self.stop_health_monitor()
        if self._mirror_pool is not None:
            self._mirror_pool.shutdown(wait=True)
        for backend in self._backends:
            backend.close()
        for replica in self._replicas:
            if replica is not None:
                replica.close()

    # -- health monitoring -------------------------------------------------

    def start_health_monitor(self, interval_s: float = 0.5) -> None:
        """Start the background probe loop marking backends up/suspect/down.

        Probes every primary and replica with
        :meth:`~repro.cluster.backends.ShardBackend.ping` each
        ``interval_s``; RPC failures on the hot path mark health
        immediately, so the loop's job is *revival* — noticing a
        restarted worker and restoring it to ``up``.  Idempotent.
        """
        if self._monitor_thread is not None:
            return
        self._monitor_stop.clear()

        def probe_loop() -> None:
            while not self._monitor_stop.wait(interval_s):
                for backend, tracker in list(
                    zip(self._backends, self._health)
                ) + [
                    (replica, tracker)
                    for replica, tracker in zip(
                        self._replicas, self._replica_health
                    )
                    if replica is not None
                ]:
                    try:
                        alive = backend.ping()
                    except Exception:  # pragma: no cover - ping never raises
                        alive = False
                    if alive:
                        tracker.mark_success()
                    else:
                        tracker.mark_failure()

        self._monitor_thread = threading.Thread(
            target=probe_loop, name="repro-health-monitor", daemon=True
        )
        self._monitor_thread.start()

    def stop_health_monitor(self) -> None:
        """Stop the probe loop (idempotent; joins the thread)."""
        if self._monitor_thread is None:
            return
        self._monitor_stop.set()
        self._monitor_thread.join(timeout=5.0)
        self._monitor_thread = None

    # -- writes ------------------------------------------------------------

    def _allocate(
        self,
        x: float,
        y: float,
        worker: int,
        local_id: int,
        key: int,
        replica_local: int = -1,
    ) -> int:
        """Record one new live row in the catalog; returns its global id."""
        global_id = len(self._alive)
        self._xs.append(x)
        self._ys.append(y)
        self._keys.append(key)
        self._worker.append(worker)
        self._local.append(local_id)
        self._alive.append(1)
        self._replica_local.append(replica_local)
        self._local_to_global[worker][local_id] = global_id
        if replica_local >= 0:
            slot = self._map.replica_of(worker)
            self._replica_to_global[slot][replica_local] = global_id
        self._live[worker] += 1
        return global_id

    def _mirror_slot(self, worker: int) -> Optional[int]:
        """The worker's replica slot, if one exists and is writable."""
        slot = self._map.replica_of(worker)
        if slot is None or self._replicas[slot] is None:
            return None
        return slot

    def _mark_mirror_failure(self, slot: int, error: BaseException) -> None:
        """A mirror write failed: the slot is dirty until rebuilt.

        Dirty replicas stop serving failover reads — an incomplete copy
        silently answering would violate the never-silently-partial
        contract.  Transport failures also demote the replica's health.
        """
        self._replica_dirty[slot] = True
        self._mirror_failures += 1
        if isinstance(error, _UNAVAILABLE):
            self._replica_health[slot].mark_failure()

    def _reap_orphan_mirror(self, slot: int, future) -> None:
        """Undo a mirror write whose primary apply failed (best effort).

        The primary never acked, so the replica must not keep the rows;
        a reap that itself fails leaves the slot dirty.
        """
        try:
            replica_locals = future.result()
        except Exception as exc:
            # Mirror also failed.  A transport error after apply is
            # ambiguous — the rows may exist on the replica — so the
            # slot goes dirty; a clean rejection applied nothing.
            if isinstance(exc, _UNAVAILABLE):
                self._mark_mirror_failure(slot, exc)
            return
        if isinstance(replica_locals, int):
            replica_locals = [replica_locals]
        for replica_local in replica_locals:
            try:
                self._replicas[slot].delete(replica_local)
            except Exception as exc:
                self._mark_mirror_failure(slot, exc)
                return

    def insert(self, x: float, y: float) -> int:
        """Route one point to its owning shard; returns its global id.

        With a replica configured the point mirrors to it in parallel
        with the primary apply.  A primary failure raises (nothing is
        acked; any orphan mirror copy is reaped); a mirror failure
        marks the replica dirty but the acked write stands — the
        primary holds it.
        """
        x, y = float(x), float(y)
        _require_finite(x, y)
        with self._lock.write():
            key = self._map.key_of(x, y)
            worker = self._map.owner_of_key(key)
            slot = self._mirror_slot(worker)
            future = (
                self._mirror_pool.submit(self._replicas[slot].insert, x, y)
                if slot is not None
                else None
            )
            try:
                local_id = self._backends[worker].insert(x, y)
            except BaseException as exc:
                if isinstance(exc, _UNAVAILABLE):
                    self._health[worker].mark_failure()
                if future is not None:
                    self._reap_orphan_mirror(slot, future)
                raise
            self._health[worker].mark_success()
            replica_local = -1
            if future is not None:
                try:
                    replica_local = future.result()
                except Exception as exc:
                    self._mark_mirror_failure(slot, exc)
                else:
                    self._replica_health[slot].mark_success()
            global_id = self._allocate(
                x, y, worker, local_id, key, replica_local
            )
            self._version += 1
            self._maybe_rebalance()
            return global_id

    def extend(
        self, points: Sequence[Tuple[float, float]]
    ) -> List[int]:
        """Partition a batch by owner shard; returns global ids in order.

        Mirrors each worker's slice to its replica in parallel with the
        primary applies.  If any primary slice fails, the whole batch
        is rolled back best-effort (compensating deletes on the
        primaries and replicas that did apply) and the error
        propagates: nothing was acked, so nothing may survive.
        """
        pairs = [(float(x), float(y)) for x, y in points]
        for x, y in pairs:
            _require_finite(x, y)
        with self._lock.write():
            by_worker: Dict[int, List[int]] = {}
            keys = self._map.keys_of(*zip(*pairs)) if pairs else []
            for position, key in enumerate(keys):
                by_worker.setdefault(
                    self._map.owner_of_key(key), []
                ).append(position)
            mirror_futures: Dict[int, Tuple[int, object]] = {}
            for worker, positions in by_worker.items():
                slot = self._mirror_slot(worker)
                if slot is not None:
                    mirror_futures[worker] = (
                        slot,
                        self._mirror_pool.submit(
                            self._replicas[slot].extend,
                            [pairs[p] for p in positions],
                        ),
                    )
            locals_at: List[Optional[int]] = [None] * len(pairs)
            owner_at: List[int] = [0] * len(pairs)
            applied: Dict[int, List[int]] = {}
            failure: Optional[BaseException] = None
            for worker, positions in by_worker.items():
                try:
                    local_ids = self._backends[worker].extend(
                        [pairs[p] for p in positions]
                    )
                except BaseException as exc:
                    if isinstance(exc, _UNAVAILABLE):
                        self._health[worker].mark_failure()
                    failure = exc
                    break
                self._health[worker].mark_success()
                applied[worker] = local_ids
                for position, local_id in zip(positions, local_ids):
                    locals_at[position] = local_id
                    owner_at[position] = worker
            if failure is not None:
                for worker, local_ids in applied.items():
                    for local_id in local_ids:
                        try:
                            self._backends[worker].delete(local_id)
                        except Exception:  # pragma: no cover - best effort
                            pass  # orphan locals are skipped on translate
                for worker, (slot, future) in mirror_futures.items():
                    self._reap_orphan_mirror(slot, future)
                raise failure
            replica_locals_at = [-1] * len(pairs)
            for worker, (slot, future) in mirror_futures.items():
                try:
                    replica_locals = future.result()
                except Exception as exc:
                    self._mark_mirror_failure(slot, exc)
                    continue
                self._replica_health[slot].mark_success()
                for position, replica_local in zip(
                    by_worker[worker], replica_locals
                ):
                    replica_locals_at[position] = replica_local
            global_ids = []
            for position, (x, y) in enumerate(pairs):
                global_ids.append(
                    self._allocate(
                        x,
                        y,
                        owner_at[position],
                        locals_at[position],
                        keys[position],
                        replica_locals_at[position],
                    )
                )
            if pairs:
                self._version += 1
                self._maybe_rebalance()
            return global_ids

    def bulk_load(
        self, points: Sequence[Tuple[float, float]]
    ) -> List[int]:
        """Initial data load (an :meth:`extend` from the empty cluster)."""
        return self.extend(points)

    def delete(self, global_id: int) -> None:
        """Tombstone one global row on its owning shard (and replica)."""
        with self._lock.write():
            if not isinstance(global_id, int) or not self._is_live(
                global_id
            ):
                raise ClusterWriteError(
                    f"row {global_id!r} does not exist or was already "
                    "deleted"
                )
            worker = self._worker[global_id]
            local_id = self._local[global_id]
            slot = self._mirror_slot(worker)
            replica_local = self._replica_local[global_id]
            future = (
                self._mirror_pool.submit(
                    self._replicas[slot].delete, replica_local
                )
                if slot is not None and replica_local >= 0
                else None
            )
            try:
                self._backends[worker].delete(local_id)
            except BaseException as exc:
                if isinstance(exc, _UNAVAILABLE):
                    self._health[worker].mark_failure()
                if future is not None:
                    # The replica may have dropped the row the primary
                    # still serves — the copy is no longer complete.
                    try:
                        future.result()
                    except Exception:
                        pass
                    else:
                        self._mark_mirror_failure(slot, exc)
                raise
            self._health[worker].mark_success()
            if future is not None:
                try:
                    future.result()
                except Exception as exc:
                    self._mark_mirror_failure(slot, exc)
                else:
                    self._replica_health[slot].mark_success()
                    self._replica_to_global[slot].pop(replica_local, None)
                    self._replica_local[global_id] = -1
            self._alive[global_id] = 0
            del self._local_to_global[worker][local_id]
            self._live[worker] -= 1
            self._version += 1
            self._maybe_rebalance()

    # -- rebalancing -------------------------------------------------------

    def _maybe_rebalance(self) -> None:
        """Run one split when the live-count imbalance trigger fires."""
        if self.auto_rebalance:
            self._rebalance_locked()

    def rebalance_once(self, *, force: bool = False) -> bool:
        """Run at most one rebalance split; returns whether one ran.

        With ``force`` the imbalance-ratio trigger is skipped (the
        heaviest worker still needs ``min_split`` live rows and a
        splittable range).
        """
        with self._lock.write():
            return self._rebalance_locked(force=force)

    def _rebalance_locked(self, *, force: bool = False) -> bool:
        """The split itself; the caller holds the write lock."""
        total = sum(self._live)
        workers = len(self._backends)
        if total == 0 or workers < 2:
            return False
        heaviest = max(range(workers), key=self._live.__getitem__)
        lightest = min(range(workers), key=self._live.__getitem__)
        if heaviest == lightest or self._live[heaviest] < self.min_split:
            return False
        if (
            not force
            and self._live[heaviest]
            <= self.imbalance_ratio * (total / workers)
        ):
            return False
        # The heaviest worker's fullest range, by live rows.
        rows_by_range: Dict[int, List[int]] = {}
        for global_id in range(len(self._alive)):
            if self._alive[global_id] and self._worker[global_id] == heaviest:
                shard_range = self._map.range_at(self._keys[global_id])
                rows_by_range.setdefault(shard_range.lo, []).append(
                    global_id
                )
        if not rows_by_range:
            return False
        range_lo = max(rows_by_range, key=lambda lo: len(rows_by_range[lo]))
        rows = rows_by_range[range_lo]
        keys = sorted(self._keys[g] for g in rows)
        split_at = keys[len(keys) // 2]
        target_range = self._map.range_at(range_lo)
        if split_at <= target_range.lo:
            # Median collapses onto the lower bound (heavy key
            # duplication); cut at the first distinct key above it.
            above = [k for k in keys if k > target_range.lo]
            if not above:
                return False  # one hot cell; a key split cannot help
            split_at = above[0]
        new_map = self._map.split(range_lo, split_at, lightest)
        moved = sorted(
            g for g in rows if self._keys[g] >= split_at
        )
        if not moved:
            return False
        moved_points = [(self._xs[g], self._ys[g]) for g in moved]
        try:
            new_locals = self._backends[lightest].extend(moved_points)
        except _UNAVAILABLE:
            # Destination unreachable: abort before touching anything —
            # the cluster stays balanced-as-was rather than half-moved.
            self._health[lightest].mark_failure()
            return False
        # Mirror the moved rows into the destination's replica slot
        # before retiring the old copies, so every row keeps a standby
        # throughout the migration.
        slot_to = self._mirror_slot(lightest)
        new_replica_locals: Optional[List[int]] = None
        if slot_to is not None and not self._replica_dirty[slot_to]:
            try:
                new_replica_locals = self._replicas[slot_to].extend(
                    moved_points
                )
            except Exception as exc:
                self._mark_mirror_failure(slot_to, exc)
        slot_from = self._mirror_slot(heaviest)
        for index, (global_id, new_local) in enumerate(
            zip(moved, new_locals)
        ):
            old_local = self._local[global_id]
            try:
                self._backends[heaviest].delete(old_local)
            except _UNAVAILABLE:
                # Source unreachable mid-migration: the stale copy
                # stays physical but unaddressed — its local id leaves
                # the mapping below, so translation skips it.
                self._health[heaviest].mark_failure()
            del self._local_to_global[heaviest][old_local]
            old_replica_local = self._replica_local[global_id]
            if slot_from is not None and old_replica_local >= 0:
                try:
                    self._replicas[slot_from].delete(old_replica_local)
                except Exception as exc:
                    self._mark_mirror_failure(slot_from, exc)
                else:
                    self._replica_to_global[slot_from].pop(
                        old_replica_local, None
                    )
            new_replica_local = (
                new_replica_locals[index]
                if new_replica_locals is not None
                else -1
            )
            self._replica_local[global_id] = new_replica_local
            if new_replica_local >= 0:
                self._replica_to_global[slot_to][
                    new_replica_local
                ] = global_id
            self._worker[global_id] = lightest
            self._local[global_id] = new_local
            self._local_to_global[lightest][new_local] = global_id
        self._live[heaviest] -= len(moved)
        self._live[lightest] += len(moved)
        self._map = new_map
        self._rebalances += 1
        return True

    # -- reads -------------------------------------------------------------

    def query(self, spec: Query) -> List[int]:
        """Answer ``spec`` across the cluster; global ids, oracle order.

        Region kinds return ascending global ids; point kinds return
        nearest-first — identical to a single
        :class:`~repro.core.database.SpatialDatabase` holding all rows.

        A shard whose primary is unreachable answers from its clean
        replica transparently.  If any shard can answer from *neither*
        copy, the partial result is never returned silently:
        :class:`ClusterDegradedError` carries it plus the failed worker
        list.
        """
        with self._lock.read():
            failed: List[int] = []
            ids = self._execute(spec, failed)
        if failed:
            raise ClusterDegradedError(ids, sorted(set(failed)))
        return ids

    def stream(self, spec: Query) -> "ClusterStream":
        """Lazily yield ``spec``'s global ids in result order.

        The scatter-gather sibling of
        :func:`repro.query.executor.stream_spec`: an unbounded kNN
        interleaves the shards' incremental wire streams by distance,
        pulling only as many candidates as the consumer demands;
        composites fan their leaves out eagerly and keep the set-merge
        lazy.  Returns a :class:`ClusterStream`; ``close()`` tears down
        every underlying shard stream, and :attr:`ClusterStream.shards_failed`
        accumulates workers lost with no usable replica (checked when
        the wire front end stamps the final ``done`` chunk).

        Note the shard map and catalog are read per pulled row without
        holding the read lock across the whole consumption — a stream
        held open across writes keeps yielding its shards' MVCC
        admission-time rows, like a single server's chunked stream.
        """
        failed: List[int] = []
        if isinstance(spec, KnnQuery):
            return ClusterStream(self._stream_knn(spec, failed), failed)
        if isinstance(spec, CompositeQuery):
            return ClusterStream(
                self._stream_composite(spec, failed), failed
            )
        with self._lock.read():
            ids = self._execute(spec, failed)
        return ClusterStream(iter(ids), failed)

    def _execute(self, spec: Query, failed: List[int]) -> List[int]:
        """Dispatch one spec under the read lock.

        ``failed`` collects workers that could answer from neither
        primary nor replica; the caller decides how loudly to degrade.
        """
        if isinstance(spec, CompositeQuery):
            stream = self._composite_stream(spec, failed)
            return list(stream)
        if isinstance(spec, KnnQuery):
            return self._execute_knn(spec, failed)
        if isinstance(spec, NearestQuery):
            return self._execute_nearest(spec, failed)
        if isinstance(spec, (AreaQuery, WindowQuery)):
            ids = self._region_ids(spec, failed)
            return self._finalize(spec, ids)
        raise TypeError(f"not a query spec: {spec!r}")

    # -- failover helpers --------------------------------------------------

    def _record_failure(self, failed: List[int], worker: int) -> None:
        """Record one shard lost to this result (primary and replica)."""
        if worker not in failed:
            if not failed:
                self._degraded_results += 1
            failed.append(worker)

    def _replica_usable(self, worker: int) -> Optional[int]:
        """The worker's replica slot iff it may serve failover reads.

        A slot is unusable while *dirty* (a mirror write failed — the
        copy may be incomplete, and an incomplete copy answering
        silently is exactly what degraded-result reporting exists to
        prevent) or while its own health is ``down``.
        """
        slot = self._map.replica_of(worker)
        if (
            slot is None
            or self._replicas[slot] is None
            or self._replica_dirty[slot]
            or self._replica_health[slot].is_down
        ):
            return None
        return slot

    def _failover_query_ids(
        self, worker: int, shard_spec: Query, failed: List[int]
    ):
        """One shard's eager ids, failing over to the replica.

        Tries the primary first — unless it is already marked ``down``
        and a usable replica exists, in which case the primary is
        skipped outright (no timeout tax per query on a dead worker).
        Returns ``(local_ids, local_to_global_mapping)`` from whichever
        copy answered, or ``None`` after recording ``worker`` on
        ``failed`` when both copies are lost.
        """
        slot = self._replica_usable(worker)
        if not (self._health[worker].is_down and slot is not None):
            try:
                local_ids = self._backends[worker].query_ids(shard_spec)
            except _UNAVAILABLE:
                self._health[worker].mark_failure()
                slot = self._replica_usable(worker)
            else:
                self._health[worker].mark_success()
                return local_ids, self._local_to_global[worker]
        if slot is not None:
            self._failovers += 1
            try:
                local_ids = self._replicas[slot].query_ids(shard_spec)
            except _UNAVAILABLE:
                self._replica_health[slot].mark_failure()
            else:
                self._replica_health[slot].mark_success()
                return local_ids, self._replica_to_global[slot]
        self._record_failure(failed, worker)
        return None

    def _translate_failover(
        self,
        worker: int,
        local_ids: List[int],
        mapping: Dict[int, int],
        *,
        ordered: bool,
    ) -> List[int]:
        """Shard result ids as global ids, robust to partial failure.

        Unknown locals are skipped (orphan rows left behind by a failed
        compensating delete), and — because one replica slot may back
        several workers — rows owned by a *different* worker are
        filtered out, so a failover read never double-counts rows the
        owner already contributed.
        """
        translated = (mapping.get(local) for local in local_ids)
        ids = [
            g
            for g in translated
            if g is not None and self._worker[g] == worker
        ]
        return ids if ordered else sorted(ids)

    def _finalize(self, spec: Query, ids: List[int]) -> List[int]:
        """Apply merge-layer ``predicate`` then ``limit`` (oracle order)."""
        if spec.predicate is not None:
            predicate = spec.predicate
            ids = [g for g in ids if predicate(self.point(g))]
        if spec.limit is not None and len(ids) > spec.limit:
            ids = ids[: spec.limit]
        return ids

    def _nonempty(self, workers) -> List[int]:
        """The given workers that hold at least one live row, sorted."""
        return sorted(w for w in workers if self._live[w] > 0)

    # -- region kinds ------------------------------------------------------

    def _region_bounds(self, spec: Query) -> Tuple[float, float, float, float]:
        """The fan-out bounding box of a region spec."""
        if isinstance(spec, WindowQuery):
            rect = spec.rect
        else:
            rect = spec.region.mbr
        return (rect.min_x, rect.min_y, rect.max_x, rect.max_y)

    def _region_ids(self, spec: Query, failed: List[int]) -> List[int]:
        """Fan a region spec out and union the sorted shard results.

        Returns the merged ascending global ids with *no* user-level
        options applied; mirrors the single-process validation errors
        for empty databases and degenerate regions so oracle parity
        holds on the edges too.  Shards lost from both copies land on
        ``failed`` and contribute nothing.
        """
        total = self.total_live
        if isinstance(spec, AreaQuery):
            if total == 0:
                raise EmptyDatabaseError("area query on an empty cluster")
            if spec.region.area <= 0.0:
                raise InvalidQueryAreaError("query area has zero area")
        elif spec.method == "voronoi":
            if total == 0:
                raise EmptyDatabaseError(
                    "voronoi window query on an empty cluster"
                )
            if spec.rect.area <= 0.0:
                raise InvalidQueryAreaError(
                    "voronoi execution needs a positive-area window"
                )
        workers = self._nonempty(
            self._map.workers_for_bounds(self._region_bounds(spec))
        )
        if not workers:
            return []
        shard_spec = replace(spec, predicate=None, limit=None)
        per_shard = []
        for worker in workers:
            outcome = self._failover_query_ids(worker, shard_spec, failed)
            if outcome is None:
                continue
            local_ids, mapping = outcome
            per_shard.append(
                self._translate_failover(
                    worker, local_ids, mapping, ordered=False
                )
            )
        if not per_shard:
            return []
        if len(per_shard) == 1:
            return per_shard[0]
        return list(union_sorted(per_shard))

    # -- point kinds -------------------------------------------------------

    def _execute_nearest(
        self, spec: NearestQuery, failed: List[int]
    ) -> List[int]:
        """1-NN via the kNN route (handles ``limit``/``predicate``)."""
        if spec.limit == 0 or self.total_live == 0:
            return []
        as_knn = KnnQuery(
            spec.point, 1, method=spec.method, predicate=spec.predicate
        )
        return self._execute_knn(as_knn, failed)

    def _execute_knn(self, spec: KnnQuery, failed: List[int]) -> List[int]:
        """Owning-shard kNN with boundary-ball expansion."""
        total = self.total_live
        k = _effective_k(spec)
        if k is None:
            k = total
        if k == 0 or total == 0:
            return []
        if spec.predicate is not None:
            # Predicates make the kth distance unknowable up front:
            # consume the distance-interleaved stream (which applies the
            # predicate once per candidate) until k rows pass, exactly
            # like the single-process filtered expansion.
            stream = self._stream_knn(replace(spec, k=k, limit=None), failed)
            try:
                return list(stream)
            finally:
                stream.close()
        x, y = spec.point.x, spec.point.y
        owner = self._map.owner_of(x, y)
        queried: List[int] = []
        candidates: List[int] = []
        if self._live[owner]:
            queried.append(owner)
            candidates.extend(self._shard_knn(owner, spec, k, failed))
        expansion: Sequence[int]
        if len(candidates) < k:
            # The owner cannot bound the kth distance — fan out.  (A
            # lost owner lands here too: its empty answer forces the
            # full fan-out, so the surviving shards still contribute.)
            expansion = self._nonempty(
                set(range(self.workers)) - set(queried)
            )
        else:
            kth = max(
                self._squared_distance(g, x, y) for g in candidates
            )
            radius = math.nextafter(math.sqrt(kth), math.inf)
            expansion = self._nonempty(
                self._map.workers_for_circle(x, y, radius)
                - set(queried)
            )
        for worker in expansion:
            candidates.extend(self._shard_knn(worker, spec, k, failed))
        candidates.sort(
            key=lambda g: (self._squared_distance(g, x, y), g)
        )
        return candidates[:k]

    def _shard_knn(
        self, worker: int, spec: KnnQuery, k: int, failed: List[int]
    ) -> List[int]:
        """One shard's ``k`` nearest, translated to global ids.

        Order-preserving translation (the merge re-sorts by exact
        distance anyway, which also neutralises a shard answering in
        the wrong order); a shard lost from both copies contributes
        nothing and is recorded on ``failed``.
        """
        shard_spec = replace(
            spec,
            k=min(k, self._live[worker]),
            predicate=None,
            limit=None,
        )
        outcome = self._failover_query_ids(worker, shard_spec, failed)
        if outcome is None:
            return []
        local_ids, mapping = outcome
        return self._translate_failover(
            worker, local_ids, mapping, ordered=True
        )

    # -- streaming ---------------------------------------------------------

    @staticmethod
    def _close_quietly(stream) -> None:
        """Best-effort close of one shard stream (teardown path)."""
        close = getattr(stream, "close", None)
        if close is not None:
            try:
                close()
            except Exception:  # pragma: no cover - teardown best effort
                pass

    def _open_knn_source(
        self, worker: int, shard_spec: Query, failed: List[int]
    ):
        """Open one shard's kNN stream, failing over to the replica.

        Returns ``(stream, mapping snapshot, replica slot or None)`` or
        ``None`` when neither copy can serve (recorded on ``failed``).
        """
        if not (
            self._health[worker].is_down
            and self._replica_usable(worker) is not None
        ):
            try:
                stream = self._backends[worker].stream_ids(
                    shard_spec, chunk_size=self.chunk_size
                )
            except _UNAVAILABLE:
                self._health[worker].mark_failure()
            else:
                self._health[worker].mark_success()
                return (
                    stream,
                    dict(self._local_to_global[worker]),
                    None,
                )
        return self._open_replica_source(worker, shard_spec, failed)

    def _open_replica_source(
        self, worker: int, shard_spec: Query, failed: List[int]
    ):
        """Open the replica-side kNN stream for one lost primary."""
        slot = self._replica_usable(worker)
        if slot is not None:
            self._failovers += 1
            try:
                stream = self._replicas[slot].stream_ids(
                    shard_spec, chunk_size=self.chunk_size
                )
            except _UNAVAILABLE:
                self._replica_health[slot].mark_failure()
            else:
                self._replica_health[slot].mark_success()
                return (
                    stream,
                    dict(self._replica_to_global[slot]),
                    slot,
                )
        self._record_failure(failed, worker)
        return None

    def _stream_knn(
        self, spec: KnnQuery, failed: List[int]
    ) -> Iterator[int]:
        """Distance-interleave every shard's incremental kNN stream.

        Each shard stream yields its rows in increasing distance, so a
        heap over the stream heads — keyed by (squared distance, global
        id) computed from the catalog — yields the cluster-wide ranking
        lazily: pulling ``n`` rows pulls only ~``n`` candidates per the
        shards' own incremental expansion.

        A shard stream that dies mid-pull fails over to its replica:
        the replica stream restarts from the nearest row and the
        per-shard *seen* set skips everything the primary already
        contributed — since the primary yielded its nearest rows first,
        the replica's first unseen row is exactly the shard's next
        candidate, so the heap invariant survives the switch.  A shard
        lost from both copies lands on ``failed``.
        """
        def produce() -> Iterator[int]:
            with self._lock.read():
                k = _effective_k(spec)
                workers = self._nonempty(range(self.workers))
                # shards stream row ids whatever the client selected:
                # the projection is the wire front end's job
                shard_spec = replace(
                    spec, k=None, predicate=None, limit=None, select="ids"
                )
                sources = {
                    worker: self._open_knn_source(
                        worker, shard_spec, failed
                    )
                    for worker in workers
                }
            seen: Dict[int, set] = {worker: set() for worker in workers}

            def fail_over(worker: int) -> None:
                """The current source died mid-pull: replica or give up."""
                stream, _, slot = sources[worker]
                self._close_quietly(stream)
                if slot is None:
                    self._health[worker].mark_failure()
                    sources[worker] = self._open_replica_source(
                        worker, shard_spec, failed
                    )
                else:
                    self._replica_health[slot].mark_failure()
                    self._record_failure(failed, worker)
                    sources[worker] = None

            def pull(worker: int) -> Optional[int]:
                """The shard's next unseen global id (``None`` = done)."""
                while True:
                    source = sources[worker]
                    if source is None:
                        return None
                    stream, mapping, _ = source
                    try:
                        local = next(stream)
                    except StopIteration:
                        return None
                    except _UNAVAILABLE:
                        fail_over(worker)
                        continue
                    global_id = mapping.get(local)
                    if (
                        global_id is None
                        or self._worker[global_id] != worker
                        or global_id in seen[worker]
                    ):
                        continue
                    seen[worker].add(global_id)
                    return global_id

            x, y = spec.point.x, spec.point.y
            predicate = spec.predicate
            produced = 0
            heap = []
            try:
                for worker in workers:
                    head = pull(worker)
                    if head is not None:
                        heapq.heappush(
                            heap,
                            (
                                self._squared_distance(head, x, y),
                                head,
                                worker,
                            ),
                        )
                while heap:
                    _, global_id, worker = heapq.heappop(heap)
                    refill = pull(worker)
                    if refill is not None:
                        heapq.heappush(
                            heap,
                            (
                                self._squared_distance(refill, x, y),
                                refill,
                                worker,
                            ),
                        )
                    if predicate is not None and not predicate(
                        self.point(global_id)
                    ):
                        continue
                    yield global_id
                    produced += 1
                    if k is not None and produced >= k:
                        return
            finally:
                for source in sources.values():
                    if source is not None:
                        self._close_quietly(source[0])

        return produce()

    def _composite_stream(
        self, spec: CompositeQuery, failed: List[int]
    ) -> Iterator[int]:
        """Merged composite stream (the caller holds the read lock)."""

        def build(node: Query) -> Iterator[int]:
            if isinstance(node, CompositeQuery):
                merged = merge_sorted_ids(
                    node, [build(part) for part in node.parts]
                )
                return self._stream_options(node, merged)
            # Composite leaves are region kinds by spec validation;
            # leaf options apply inside the leaf, before the merge.
            return iter(
                self._finalize(node, self._region_ids(node, failed))
            )

        return build(spec)

    def _stream_composite(
        self, spec: CompositeQuery, failed: List[int]
    ) -> Iterator[int]:
        """Deferred composite stream: leaves fan out on first demand."""

        def produce() -> Iterator[int]:
            with self._lock.read():
                stream = self._composite_stream(spec, failed)
            yield from stream

        return produce()

    def _stream_options(
        self, spec: Query, ids: Iterator[int]
    ) -> Iterator[int]:
        """Lazy ``predicate``/``limit`` over a merged stream (in order)."""
        if spec.predicate is not None:
            predicate = spec.predicate
            ids = (g for g in ids if predicate(self.point(g)))
        if spec.limit is not None:
            ids = islice(ids, spec.limit)
        return ids

    # -- stats -------------------------------------------------------------

    def cluster_section(self) -> Dict:
        """The router's additive ``cluster`` stats section."""
        return {
            "workers": self.workers,
            "points": self.total_live,
            "version": self._version,
            "live": self.live_counts,
            "rebalances": self._rebalances,
            "ranges": self._map.as_dicts(),
            "replicas": sum(
                1 for replica in self._replicas if replica is not None
            ),
            "health": self.health_snapshot(),
            "replica_dirty": list(self._replica_dirty),
            "failovers": self._failovers,
            "degraded_results": self._degraded_results,
            "mirror_failures": self._mirror_failures,
            "recoveries": self._recoveries,
        }

    def stats_frame(self) -> Dict:
        """The cluster-merged ``stats`` wire frame.

        Worker frames merge counter-wise and histogram-wise
        (:func:`repro.cluster.stats.merge_stats_frames`); backends that
        do not serve stats (in-process shards) contribute empty
        sections.  The router's own ``cluster`` section always rides
        along.
        """
        with self._lock.read():
            frames = []
            for worker, backend in enumerate(self._backends):
                try:
                    frame = backend.stats_frame()
                except _UNAVAILABLE:
                    # A dead worker must not take the whole stats frame
                    # down — the cluster section below reports it.
                    self._health[worker].mark_failure()
                    continue
                if frame is not None:
                    frames.append(frame)
            section = self.cluster_section()
        if not frames:
            frames = [
                {
                    "type": "stats",
                    "server": {},
                    "coalescer": {},
                    "engine": {},
                }
            ]
        return merge_stats_frames(frames, cluster=section)

    # -- recovery ----------------------------------------------------------

    def rebuild_worker(self, worker: int, backend: ShardBackend) -> int:
        """Swap a fresh, empty backend in for ``worker`` and reload it.

        The supervisor calls this after respawning a dead worker: every
        live catalog row owned by ``worker`` is re-extended into the
        new backend in ascending global-id order (the coordinator's
        catalog holds every acked row's coordinates, so nothing acked
        is lost even without a replica), the local-id mappings are
        rebuilt, and the worker's health resets to ``up``.  Runs under
        the write lock — queries either see the old dead backend (and
        fail over) or the rebuilt one, never a half-loaded shard.
        Returns the number of rows restored; the old backend is closed
        best-effort.
        """
        with self._lock.write():
            old = self._backends[worker]
            self._backends[worker] = backend
            rows = [
                g
                for g in range(len(self._alive))
                if self._alive[g] and self._worker[g] == worker
            ]
            self._local_to_global[worker] = {}
            local_ids = (
                backend.extend(
                    [(self._xs[g], self._ys[g]) for g in rows]
                )
                if rows
                else []
            )
            for global_id, local_id in zip(rows, local_ids):
                self._local[global_id] = local_id
                self._local_to_global[worker][local_id] = global_id
            self._live[worker] = len(rows)
            self._health[worker].reset()
            self._recoveries += 1
        try:
            old.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass
        return len(rows)

    def rebuild_replica(
        self, slot: int, backend: Optional[ShardBackend] = None
    ) -> int:
        """Re-mirror every row backed by ``slot``; clears its dirty bit.

        Pass a fresh, empty ``backend`` to replace a dead replica
        process; omit it only when the existing replica backend is
        known empty (a dirty-but-alive replica must be replaced — its
        stale rows cannot be enumerated remotely).  Mirrors all live
        rows of every worker mapped to the slot, resets health, and
        re-enables failover reads.  Returns the number of rows
        mirrored; a failed reload leaves the slot dirty and re-raises.
        """
        with self._lock.write():
            old = None
            if backend is not None:
                old = self._replicas[slot]
                self._replicas[slot] = backend
            replica = self._replicas[slot]
            if replica is None:
                raise ValueError(f"replica slot {slot} has no backend")
            mapped = {
                w
                for w in range(self.workers)
                if self._map.replica_of(w) == slot
            }
            rows = [
                g
                for g in range(len(self._alive))
                if self._alive[g] and self._worker[g] in mapped
            ]
            self._replica_to_global[slot] = {}
            try:
                replica_locals = (
                    replica.extend(
                        [(self._xs[g], self._ys[g]) for g in rows]
                    )
                    if rows
                    else []
                )
            except Exception:
                self._replica_dirty[slot] = True
                self._mirror_failures += 1
                raise
            for global_id, replica_local in zip(rows, replica_locals):
                self._replica_local[global_id] = replica_local
                self._replica_to_global[slot][replica_local] = global_id
            self._replica_dirty[slot] = False
            self._replica_health[slot].reset()
            self._recoveries += 1
        if old is not None:
            try:
                old.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        return len(rows)

    # -- persistence hooks -------------------------------------------------

    def export_state(self) -> Dict:
        """The catalog/shard-map state a snapshot persists.

        Coordinates, global ids, and owners of every *live* row (dead
        ids reappear as holes on restore), plus the shard map and the
        version counters.  See :mod:`repro.cluster.persist`.
        """
        with self._lock.read():
            rows = [
                (
                    g,
                    self._xs[g],
                    self._ys[g],
                    self._worker[g],
                )
                for g in range(len(self._alive))
                if self._alive[g]
            ]
            return {
                "order": self._map.order,
                "workers": self.workers,
                "ranges": self._map.as_dicts(),
                "next_global_id": len(self._alive),
                "version": self._version,
                "rebalances": self._rebalances,
                "rows": rows,
            }

    @classmethod
    def restore(
        cls,
        backends: Sequence[ShardBackend],
        state: Dict,
        **options,
    ) -> "ClusterCoordinator":
        """Rebuild a coordinator (and load its shards) from a snapshot.

        ``backends`` must be empty workers, one per snapshot worker.
        Each worker is bulk-loaded with its live rows in ascending
        global-id order and the catalog is rebuilt with the original
        global ids (deleted ids stay holes, so later writes continue
        the original id sequence).
        """
        if len(backends) != int(state["workers"]):
            raise ValueError(
                f"snapshot was taken with {state['workers']} workers, "
                f"got {len(backends)} backends"
            )
        shard_map = ShardMap.from_dicts(
            state["ranges"], order=int(state["order"])
        )
        coordinator = cls(backends, shard_map=shard_map, **options)
        next_global_id = int(state["next_global_id"])
        for _ in range(next_global_id):
            coordinator._xs.append(0.0)
            coordinator._ys.append(0.0)
            coordinator._keys.append(0)
            coordinator._worker.append(-1)
            coordinator._local.append(-1)
            coordinator._alive.append(0)
            coordinator._replica_local.append(-1)
        by_worker: Dict[int, List[Tuple[int, float, float]]] = {}
        for global_id, x, y, worker in state["rows"]:
            by_worker.setdefault(int(worker), []).append(
                (int(global_id), float(x), float(y))
            )
        for worker, rows in sorted(by_worker.items()):
            rows.sort()
            local_ids = backends[worker].extend(
                [(x, y) for _, x, y in rows]
            )
            for (global_id, x, y), local_id in zip(rows, local_ids):
                coordinator._xs[global_id] = x
                coordinator._ys[global_id] = y
                coordinator._keys[global_id] = shard_map.key_of(x, y)
                coordinator._worker[global_id] = worker
                coordinator._local[global_id] = local_id
                coordinator._alive[global_id] = 1
                coordinator._local_to_global[worker][local_id] = global_id
            coordinator._live[worker] = len(rows)
            slot = coordinator._mirror_slot(worker)
            if slot is not None:
                try:
                    replica_locals = coordinator._replicas[slot].extend(
                        [(x, y) for _, x, y in rows]
                    )
                except Exception as exc:
                    coordinator._mark_mirror_failure(slot, exc)
                else:
                    for (global_id, _, _), replica_local in zip(
                        rows, replica_locals
                    ):
                        coordinator._replica_local[
                            global_id
                        ] = replica_local
                        coordinator._replica_to_global[slot][
                            replica_local
                        ] = global_id
        coordinator._version = int(state.get("version", 0))
        coordinator._rebalances = int(state.get("rebalances", 0))
        return coordinator
