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

**Routing.**  Every eager read runs through the engine's job runner
(:func:`repro.engine.batch.run_jobs`): it validates the spec, decomposes
a composite into deduplicated leaf jobs, merges their ids and applies
the composite's options, exactly as for a single database.  The
coordinator supplies only the leaf executor, with two jobs.  Point
writes and kNN/nearest seeds go to the single shard owning the point's
Hilbert key; a bounded kNN expands beyond the owner only when the
kth-distance ball crosses a shard boundary
(:meth:`ShardMap.workers_for_circle`).  Window/area leaves fan out to
every shard whose Hilbert range intersects the region's key interval;
shard-local id lists are translated to global ids and merged into one
ascending array.  Streaming kNN interleaves the shards'
``incremental_nearest`` wire streams by distance.  Predicates and
limits are *never* pushed down: shards answer the raw geometric spec
and the coordinator applies the user-level options at the merge layer
through :func:`repro.query.executor.finalize_record` — predicate first,
then limit.  The router keeps no result cache.

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
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.backends import ShardBackend
from repro.cluster.faults import HealthTracker
from repro.cluster.shardmap import ShardMap
from repro.cluster.stats import merge_stats_frames
from repro.core.stats import QueryRecord
from repro.engine.batch import run_jobs
from repro.engine.order import DEFAULT_ORDER, hilbert_keys
from repro.geometry.point import Point, xy_array
from repro.query.executor import effective_k, finalize_record
from repro.query.merge import unique_ids
from repro.query.spec import (
    AreaQuery,
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

#: The most global rows the catalog may number: a result record holds
#: int32 row ids (:data:`repro.index.base.ID_DTYPE`), so a global id
#: past this could not be answered.  The local -> global maps stay int64.
_CATALOG_ROWS = 2**31 - 1


class ClusterWriteError(ValueError):
    """A write the cluster must reject (unknown row, bad coordinates)."""


def _no_rows() -> np.ndarray:
    """An empty local-to-global map: every local id is unknown."""
    return np.empty(0, dtype=np.int64)


def _mapped(
    mapping: np.ndarray, local_ids: np.ndarray, global_ids: np.ndarray
) -> np.ndarray:
    """``mapping`` with ``local_ids[i]`` -> ``global_ids[i]`` entered.

    A copy's map is indexed by local id, ``-1`` meaning no row.  It is
    written in place, or grown with ``-1`` fill (to at least double, so
    single inserts stay amortised O(1)) and the grown array returned.
    """
    if len(local_ids):
        needed = int(local_ids.max()) + 1
        if needed > len(mapping):
            grown = np.full(max(needed, 2 * len(mapping)), -1, np.int64)
            grown[: len(mapping)] = mapping
            mapping = grown
        mapping[local_ids] = global_ids
    return mapping


def _unmap(mapping: np.ndarray, local_id: int) -> None:
    """Take one local id out of a map (past its end there is nothing)."""
    if 0 <= local_id < len(mapping):
        mapping[local_id] = -1


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
        # Per copy, an int64 array indexed by local id: the row's global
        # id, or -1 where no live row is (deleted, moved away, orphaned).
        self._local_to_global: List[np.ndarray] = [
            _no_rows() for _ in self._backends
        ]
        self._live = [0] * len(self._backends)
        self._version = 0
        self._rebalances = 0
        self._lock = _RWLock()
        # Replica-side catalog: each live row's local id on its
        # worker's replica slot (-1 = not mirrored), plus the reverse
        # map per slot.  A slot goes *dirty* on any failed mirror and
        # stops serving failover reads until rebuilt.
        self._replica_local = array("q")
        self._replica_to_global: List[np.ndarray] = [
            _no_rows() for _ in self._replicas
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

    def __len__(self) -> int:
        """Live rows across all shards (what validation reads)."""
        return self.total_live

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
        for replica_local in replica_locals:
            try:
                self._replicas[slot].delete(replica_local)
            except Exception as exc:
                self._mark_mirror_failure(slot, exc)
                return

    def insert(self, x: float, y: float) -> int:
        """Route one point to its owning shard; returns its global id.

        A one-row :meth:`extend`, with the same mirror, rollback and
        rebalance semantics.
        """
        return self.extend([(x, y)])[0]

    def extend(
        self, points: Sequence[Tuple[float, float]]
    ) -> List[int]:
        """Partition a batch by owner shard; returns global ids in order.

        ``points`` is an ``(n, 2)`` float64 array (what the wire front
        end admits) or any ``(x, y)`` pairs; each worker gets its rows
        as a slice of that array.

        Mirrors each worker's slice to its replica in parallel with the
        primary applies.  If any primary slice fails, the whole batch
        is rolled back best-effort (compensating deletes on the
        primaries and replicas that did apply) and the error
        propagates: nothing was acked, so nothing may survive.  A
        mirror failure marks the replica dirty but the acked write
        stands — the primary holds it.  A batch that would take the
        catalog past :data:`_CATALOG_ROWS` rows raises
        :class:`ClusterWriteError` before any shard call.
        """
        xy = xy_array(points)
        finite = np.isfinite(xy).all(axis=1)
        if not finite.all():
            x, y = xy[np.argmin(finite)].tolist()
            raise ClusterWriteError(
                f"coordinates must be finite, got ({x!r}, {y!r})"
            )
        count = len(xy)
        if not count:
            return []
        with self._lock.write():
            if len(self._alive) + count > _CATALOG_ROWS:
                raise ClusterWriteError(
                    f"{count} rows would take the catalog past "
                    f"{_CATALOG_ROWS} rows"
                )
            keys = hilbert_keys(xy[:, 0], xy[:, 1], order=self._map.order)
            owners = self._map.owners_of_keys(keys)
            # (bincount, not unique: numpy 2's unique imports numpy.ma,
            # 0.9 MiB, which would land on the load's memory peak)
            by_worker = {
                worker: np.flatnonzero(owners == worker)
                for worker in np.flatnonzero(np.bincount(owners)).tolist()
            }
            mirrors: Dict[int, Tuple[int, object]] = {}
            for worker, positions in by_worker.items():
                slot = self._mirror_slot(worker)
                if slot is not None:
                    mirrors[worker] = (
                        slot,
                        self._mirror_pool.submit(
                            self._replicas[slot].extend, xy[positions]
                        ),
                    )
            applied: Dict[int, List[int]] = {}
            for worker, positions in by_worker.items():
                try:
                    applied[worker] = self._backends[worker].extend(
                        xy[positions]
                    )
                except BaseException as exc:
                    if isinstance(exc, _UNAVAILABLE):
                        self._health[worker].mark_failure()
                    for done, local_ids in applied.items():
                        for local_id in local_ids:
                            try:
                                self._backends[done].delete(local_id)
                            except Exception:  # pragma: no cover - best effort
                                pass  # orphan locals are skipped on translate
                    for slot, future in mirrors.values():
                        self._reap_orphan_mirror(slot, future)
                    raise
                self._health[worker].mark_success()
            first = len(self._alive)
            gids = np.arange(first, first + count, dtype=np.int64)
            locals_at = np.empty(count, dtype=np.int64)
            replica_locals_at = np.full(count, -1, dtype=np.int64)
            for worker, positions in by_worker.items():
                self._live[worker] += len(positions)
                local_ids = np.asarray(applied[worker], dtype=np.int64)
                locals_at[positions] = local_ids
                self._local_to_global[worker] = _mapped(
                    self._local_to_global[worker], local_ids, gids[positions]
                )
                if worker not in mirrors:
                    continue
                slot, future = mirrors[worker]
                try:
                    replica_locals = future.result()
                except Exception as exc:
                    self._mark_mirror_failure(slot, exc)
                    continue
                self._replica_health[slot].mark_success()
                replica_locals = np.asarray(replica_locals, dtype=np.int64)
                replica_locals_at[positions] = replica_locals
                self._replica_to_global[slot] = _mapped(
                    self._replica_to_global[slot],
                    replica_locals,
                    gids[positions],
                )
            self._xs.frombytes(xy[:, 0].tobytes())
            self._ys.frombytes(xy[:, 1].tobytes())
            self._keys.frombytes(keys.tobytes())
            self._worker.frombytes(owners.tobytes())
            self._local.frombytes(locals_at.tobytes())
            self._replica_local.frombytes(replica_locals_at.tobytes())
            self._alive.extend(b"\x01" * count)
            self._version += 1
            self._maybe_rebalance()
            return list(range(first, first + count))

    def delete(self, global_id: int) -> None:
        """Tombstone one global row on its owning shard (and replica)."""
        with self._lock.write():
            if not (
                isinstance(global_id, int)
                and 0 <= global_id < len(self._alive)
                and self._alive[global_id]
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
                    _unmap(self._replica_to_global[slot], replica_local)
                    self._replica_local[global_id] = -1
            self._alive[global_id] = 0
            _unmap(self._local_to_global[worker], local_id)
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
        for global_id in self._live_rows({heaviest}).tolist():
            shard_range = self._map.range_at(self._keys[global_id])
            rows_by_range.setdefault(shard_range.lo, []).append(global_id)
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
        old_locals = [self._local[g] for g in moved]
        old_replica_locals = [self._replica_local[g] for g in moved]
        try:
            self._local_to_global[lightest] = self._load(
                self._backends[lightest],
                moved,
                self._local,
                self._local_to_global[lightest],
            )
        except _UNAVAILABLE:
            # Destination unreachable: abort before touching anything —
            # the cluster stays balanced-as-was rather than half-moved.
            self._health[lightest].mark_failure()
            return False
        # Mirror the moved rows into the destination's replica slot
        # before retiring the old copies, so every row keeps a standby
        # throughout the migration.
        for global_id in moved:
            self._replica_local[global_id] = -1
        slot_to = self._mirror_slot(lightest)
        if slot_to is not None and not self._replica_dirty[slot_to]:
            try:
                self._replica_to_global[slot_to] = self._load(
                    self._replicas[slot_to],
                    moved,
                    self._replica_local,
                    self._replica_to_global[slot_to],
                )
            except Exception as exc:
                self._mark_mirror_failure(slot_to, exc)
        slot_from = self._mirror_slot(heaviest)
        for global_id, old_local, old_replica_local in zip(
            moved, old_locals, old_replica_locals
        ):
            try:
                self._backends[heaviest].delete(old_local)
            except _UNAVAILABLE:
                # Source unreachable mid-migration: the stale copy
                # stays physical but unaddressed — its local id leaves
                # the mapping below, so translation skips it.
                self._health[heaviest].mark_failure()
            _unmap(self._local_to_global[heaviest], old_local)
            if slot_from is not None and old_replica_local >= 0:
                try:
                    self._replicas[slot_from].delete(old_replica_local)
                except Exception as exc:
                    self._mark_mirror_failure(slot_from, exc)
                else:
                    _unmap(
                        self._replica_to_global[slot_from], old_replica_local
                    )
            self._worker[global_id] = lightest
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
            ids = self._run(spec, failed)
        if failed:
            raise ClusterDegradedError(ids, sorted(set(failed)))
        return ids

    def stream(self, spec: Query) -> "ClusterStream":
        """Lazily yield ``spec``'s global ids in result order.

        The scatter-gather sibling of
        :func:`repro.query.executor.stream_spec`: a kNN interleaves the
        shards' incremental wire streams by distance, pulling only as
        many candidates as the consumer demands; every other kind,
        composites included, is answered once under the read lock and
        iterated.  Returns a :class:`ClusterStream`; ``close()`` tears down
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
        with self._lock.read():
            ids = self._run(spec, failed)
        return ClusterStream(iter(ids), failed)

    def _run(self, spec: Query, failed: List[int]) -> List[int]:
        """Answer ``spec`` through the job runner (read lock held).

        ``failed`` is this call's own list of workers that could answer
        from neither primary nor replica — concurrent readers share no
        state — and the caller decides how loudly to degrade.
        """
        batch = run_jobs(
            self, [spec], lambda job: self._execute(job, failed)
        )
        return batch.results[0].ids

    def _execute(self, spec: Query, failed: List[int]) -> QueryRecord:
        """One validated leaf job: the kNN merge or the region scatter."""
        if isinstance(spec, NearestQuery):
            spec = KnnQuery(
                spec.point,
                1,
                method=spec.method,
                predicate=spec.predicate,
                limit=spec.limit,
            )
        if isinstance(spec, KnnQuery):
            return QueryRecord(self._execute_knn(spec, failed))
        if isinstance(spec, (AreaQuery, WindowQuery)):
            record = QueryRecord(self._region_ids(spec, failed))
            return finalize_record(self, spec, record)
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
        slot = self._mirror_slot(worker)
        if slot is None or self._replica_dirty[slot]:
            return None
        return None if self._replica_health[slot].is_down else slot

    def _failover(
        self,
        worker: int,
        rpc,
        failed: List[int],
        *,
        snapshot: bool = False,
        skip_primary: bool = False,
    ):
        """Run ``rpc(backend)`` on the worker's primary, else its replica.

        The one failover opener of both read paths.  The primary is
        skipped when ``skip_primary`` (a stream already lost it) or when
        it is marked ``down`` and a usable replica exists — no timeout
        tax per query on a dead worker.  Returns ``(result, mapping,
        replica slot or None)`` from whichever copy answered, where
        ``mapping`` is that copy's local-to-global array (a copy when
        ``snapshot``: a stream outlives the read lock), or ``None``
        after recording ``worker`` on ``failed`` when both copies are
        lost.
        """
        slot = self._replica_usable(worker)
        if not skip_primary and not (
            self._health[worker].is_down and slot is not None
        ):
            try:
                result = rpc(self._backends[worker])
            except _UNAVAILABLE:
                self._health[worker].mark_failure()
                slot = self._replica_usable(worker)
            else:
                self._health[worker].mark_success()
                mapping = self._local_to_global[worker]
                return result, mapping.copy() if snapshot else mapping, None
        if slot is not None:
            self._failovers += 1
            try:
                result = rpc(self._replicas[slot])
            except _UNAVAILABLE:
                self._replica_health[slot].mark_failure()
            else:
                self._replica_health[slot].mark_success()
                mapping = self._replica_to_global[slot]
                return result, mapping.copy() if snapshot else mapping, slot
        self._record_failure(failed, worker)
        return None

    def _shard_ids(
        self,
        worker: int,
        shard_spec: Query,
        failed: List[int],
    ) -> np.ndarray:
        """One shard's eager answer as global ids, robust to failure.

        A shard lost from both copies contributes nothing (and lands on
        ``failed``).  Unknown locals are skipped (orphan rows left
        behind by a failed compensating delete), and — because one
        replica slot may back several workers — rows owned by a
        *different* worker are filtered out, so a failover read never
        double-counts rows the owner already contributed.  The answer's
        order is kept.
        """
        outcome = self._failover(
            worker, lambda backend: backend.query_ids(shard_spec), failed
        )
        if outcome is None:
            return _no_rows()
        local_ids, mapping, _ = outcome
        local_ids = np.asarray(local_ids, dtype=np.int64)
        known = local_ids[(local_ids >= 0) & (local_ids < len(mapping))]
        global_ids = mapping[known]
        global_ids = global_ids[global_ids >= 0]
        owners = np.frombuffer(self._worker, dtype=np.intc)[global_ids]
        return global_ids[owners == worker]

    def _nonempty(self, workers) -> List[int]:
        """The given workers that hold at least one live row, sorted."""
        return sorted(w for w in workers if self._live[w] > 0)

    # -- region kinds ------------------------------------------------------

    def _region_ids(self, spec: Query, failed: List[int]) -> np.ndarray:
        """Fan a region spec out and merge the shard results, ascending.

        Returns the merged ascending global ids with *no* user-level
        options applied.  Shards lost from both copies land on
        ``failed`` and contribute nothing.
        """
        rect = spec.rect if isinstance(spec, WindowQuery) else spec.region.mbr
        workers = self._nonempty(
            self._map.workers_for_bounds(
                (rect.min_x, rect.min_y, rect.max_x, rect.max_y)
            )
        )
        shard_spec = replace(spec, predicate=None, limit=None)
        return unique_ids(
            np.concatenate(
                [_no_rows()]
                + [
                    self._shard_ids(worker, shard_spec, failed)
                    for worker in workers
                ]
            )
        )

    # -- point kinds -------------------------------------------------------

    def _execute_knn(self, spec: KnnQuery, failed: List[int]) -> List[int]:
        """Owning-shard kNN with boundary-ball expansion."""
        total = self.total_live
        k = effective_k(spec)
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
        the wrong order).
        """
        shard_spec = replace(
            spec,
            k=min(k, self._live[worker]),
            predicate=None,
            limit=None,
        )
        return self._shard_ids(worker, shard_spec, failed).tolist()

    # -- streaming ---------------------------------------------------------

    @staticmethod
    def _close_quietly(closeable) -> None:
        """Best-effort close of a shard stream or retired backend."""
        close = getattr(closeable, "close", None)
        if close is not None:
            try:
                close()
            except Exception:  # pragma: no cover - teardown best effort
                pass

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
                k = effective_k(spec)
                workers = self._nonempty(range(self.workers))
                # shards stream row ids whatever the client selected:
                # the projection is the wire front end's job
                shard_spec = replace(
                    spec, k=None, predicate=None, limit=None, select="ids"
                )

                def open_stream(backend: ShardBackend) -> Iterator[int]:
                    return backend.stream_ids(
                        shard_spec, chunk_size=self.chunk_size
                    )

                sources = {
                    worker: self._failover(
                        worker, open_stream, failed, snapshot=True
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
                    sources[worker] = self._failover(
                        worker,
                        open_stream,
                        failed,
                        snapshot=True,
                        skip_primary=True,
                    )
                else:
                    self._replica_health[slot].mark_failure()
                    self._record_failure(failed, worker)
                    sources[worker] = None

            x, y = spec.point.x, spec.point.y
            heap: List[Tuple[float, int, int]] = []

            def advance(worker: int) -> None:
                """Push the shard's next unseen global id onto the heap."""
                while sources[worker] is not None:
                    stream, mapping, _ = sources[worker]
                    try:
                        local = next(stream)
                    except StopIteration:
                        return
                    except _UNAVAILABLE:
                        fail_over(worker)
                        continue
                    global_id = (
                        int(mapping[local])
                        if 0 <= local < len(mapping)
                        else -1
                    )
                    if (
                        global_id >= 0
                        and self._worker[global_id] == worker
                        and global_id not in seen[worker]
                    ):
                        seen[worker].add(global_id)
                        heapq.heappush(
                            heap,
                            (
                                self._squared_distance(global_id, x, y),
                                global_id,
                                worker,
                            ),
                        )
                        return

            predicate = spec.predicate
            produced = 0
            try:
                for worker in workers:
                    advance(worker)
                while heap:
                    _, global_id, worker = heapq.heappop(heap)
                    advance(worker)
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

    def _live_rows(self, workers) -> np.ndarray:
        """Live global ids owned by any of ``workers``, ascending."""
        alive = np.frombuffer(self._alive, dtype=np.bool_)
        owners = np.frombuffer(self._worker, dtype=np.intc)
        return np.flatnonzero(alive & np.isin(owners, list(workers)))

    def _load(
        self,
        backend: ShardBackend,
        rows,
        local_column: array,
        mapping: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Extend ``rows``' catalog coordinates onto ``backend``.

        The one catalog-to-backend load of :meth:`restore`,
        :meth:`rebuild_worker`, :meth:`rebuild_replica` and the
        rebalance migration: each row's new local id lands in
        ``local_column`` (the primary or replica side of the catalog),
        and ``mapping`` (default: an empty one), that copy's
        local-to-global map, is returned with the new rows entered.
        """
        rows = np.asarray(rows, dtype=np.int64)
        mapping = _no_rows() if mapping is None else mapping
        if not len(rows):
            return mapping
        xy = np.column_stack(
            (
                np.frombuffer(self._xs, dtype=np.float64)[rows],
                np.frombuffer(self._ys, dtype=np.float64)[rows],
            )
        )
        local_ids = np.asarray(backend.extend(xy), dtype=np.int64)
        np.frombuffer(local_column, dtype=np.int64)[rows] = local_ids
        return _mapped(mapping, local_ids, rows)

    def _slot_rows(self, slot: int) -> List[int]:
        """Live rows of every worker the shard map pairs with ``slot``."""
        return self._live_rows(
            {w for w in range(self.workers) if self._map.replica_of(w) == slot}
        )

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
            rows = self._live_rows({worker})
            self._local_to_global[worker] = _no_rows()  # until the load lands
            self._local_to_global[worker] = self._load(
                backend, rows, self._local
            )
            self._health[worker].reset()
            self._recoveries += 1
        self._close_quietly(old)
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
            rows = self._slot_rows(slot)
            self._replica_to_global[slot] = _no_rows()  # until the load lands
            try:
                self._replica_to_global[slot] = self._load(
                    replica, rows, self._replica_local
                )
            except Exception:
                self._replica_dirty[slot] = True
                self._mirror_failures += 1
                raise
            self._replica_dirty[slot] = False
            self._replica_health[slot].reset()
            self._recoveries += 1
        self._close_quietly(old)
        return len(rows)

    # -- persistence hooks -------------------------------------------------

    def export_state(self) -> Dict:
        """The catalog/shard-map state a snapshot persists.

        The *live* rows as numpy columns — ascending ``gids``, their
        ``xy`` coordinates and owning ``worker`` (dead ids reappear as
        holes on restore) — plus the shard map and the version
        counters.  See :mod:`repro.cluster.persist`.
        """
        with self._lock.read():
            gids = np.flatnonzero(np.frombuffer(self._alive, dtype=np.uint8))
            xs = np.frombuffer(self._xs, dtype=np.float64)[gids]
            ys = np.frombuffer(self._ys, dtype=np.float64)[gids]
            worker = np.frombuffer(self._worker, dtype=np.intc)[gids]
            return {
                "order": self._map.order,
                "workers": self.workers,
                "ranges": self._map.as_dicts(),
                "next_global_id": len(self._alive),
                "version": self._version,
                "rebalances": self._rebalances,
                "gids": gids.astype(np.int64),
                "xy": np.column_stack((xs, ys)),
                "worker": worker.astype(np.int64),
            }

    @classmethod
    def restore(
        cls,
        backends: Sequence[ShardBackend],
        state: Dict,
        **options,
    ) -> "ClusterCoordinator":
        """Rebuild a coordinator (and load its shards) from a snapshot.

        ``backends`` (and any ``replicas=`` option) must be empty, one
        per snapshot worker.  The catalog is filled with the original
        global ids (deleted ids stay holes, so later writes continue
        the original id sequence); then each worker and each replica
        slot is loaded with its live rows in ascending global-id order.
        A failed replica load marks the slot dirty.
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
        size = int(state["next_global_id"])
        gids = np.asarray(state["gids"], dtype=np.int64)
        xy = np.asarray(state["xy"], dtype=np.float64).reshape(-1, 2)

        def column(values, dtype, fill):
            full = np.full(size, fill, dtype=dtype)
            full[gids] = values
            return full.tobytes()

        coordinator._xs = array("d", column(xy[:, 0], np.float64, 0.0))
        coordinator._ys = array("d", column(xy[:, 1], np.float64, 0.0))
        coordinator._keys = array(
            "q",
            column(
                hilbert_keys(xy[:, 0], xy[:, 1], order=shard_map.order),
                np.int64,
                0,
            ),
        )
        coordinator._worker = array(
            "i", column(state["worker"], np.intc, -1)
        )
        coordinator._alive = bytearray(column(1, np.uint8, 0))
        coordinator._local = array("q", [-1]) * size
        coordinator._replica_local = array("q", [-1]) * size
        for worker, backend in enumerate(backends):
            rows = coordinator._live_rows({worker})
            coordinator._local_to_global[worker] = coordinator._load(
                backend, rows, coordinator._local
            )
            coordinator._live[worker] = len(rows)
        for slot, replica in enumerate(coordinator._replicas):
            if replica is None:
                continue
            try:
                coordinator._replica_to_global[slot] = coordinator._load(
                    replica,
                    coordinator._slot_rows(slot),
                    coordinator._replica_local,
                )
            except Exception as exc:
                coordinator._mark_mirror_failure(slot, exc)
        coordinator._version = int(state.get("version", 0))
        coordinator._rebalances = int(state.get("rebalances", 0))
        return coordinator
