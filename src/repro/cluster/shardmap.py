"""Hilbert-range space partitioning for the cluster layer.

A cluster divides the Hilbert key space ``[0, 4**order)``
(:func:`repro.engine.order.hilbert_index`) into contiguous,
non-overlapping key ranges, each owned by one worker replica.
Contiguous Hilbert ranges are spatially compact — the curve has no long
jumps — so a small query region intersects few ranges and most traffic
routes to a single worker.

:class:`ShardMap` is the immutable routing table: it answers *which
worker owns this point* (writes, kNN seeds) and *which workers can hold
points of this region* (window/area fan-out) by covering the region's
bounding box with adaptive Hilbert quads, each of which owns one
contiguous key interval.  Rebalancing replaces the map wholesale via
:meth:`ShardMap.split` — a range is cut at a key and one half is
reassigned, which is the only reshaping operation the cluster needs (see
``docs/CLUSTER.md``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.order import (
    DEFAULT_ORDER,
    cell_index,
    cell_key,
    hilbert_index,
)

__all__ = ["ShardRange", "ShardMap", "cell_cover"]

#: Bounding boxes covering more grid cells than this skip the exact
#: cell walk and conservatively fan out to every worker — the walk
#: would cost more than the saved shard queries.
CELL_COVER_CAP = 4096

#: Quad budget for interval covers: the refinement level adapts so a
#: region is covered by at most this many Hilbert quads.  Coarser quads
#: over-cover (a quad is included if any part intersects the region),
#: which can only add fan-out targets, never miss one.  The budget is
#: deliberately small: an extra fan-out target costs one parallel shard
#: probe, while cover computation is serial router work on every
#: request — the asymmetry favours coarse covers.
QUAD_COVER_CAP = 16

#: Finest quad grid used by routing covers: quads never get smaller
#: than ``2**-QUAD_COVER_ORDER`` of an axis (a 32x32 grid).  Finer
#: quads would make the per-quad owner memo too sparse to ever hit,
#: and sub-quad precision only trims fan-out candidates — cheap
#: parallel probes — at the price of serial router work per request.
QUAD_COVER_ORDER = 5


def _cover_shift(
    order: int, x_lo: int, x_hi: int, y_lo: int, y_hi: int
) -> int:
    """Coarsening shift for covering the cell box with few quads.

    Starts at the memo-friendly floor (``QUAD_COVER_ORDER`` grid) and
    coarsens further until the box spans at most
    :data:`QUAD_COVER_CAP` quads.
    """
    shift = max(order - QUAD_COVER_ORDER, 0)
    while shift < order and (
        ((x_hi >> shift) - (x_lo >> shift) + 1)
        * ((y_hi >> shift) - (y_lo >> shift) + 1)
        > QUAD_COVER_CAP
    ):
        shift += 1
    return shift


def cell_cover(
    bounds: Tuple[float, float, float, float], *, order: int = DEFAULT_ORDER
) -> List[int]:
    """Hilbert keys of every grid cell intersecting ``bounds``.

    ``bounds`` is ``(min_x, min_y, max_x, max_y)`` in the unit square's
    coordinate frame (anything outside clamps to the border cells, the
    same way point routing clamps).  Returns an unsorted key list; the
    caller maps keys to owners.  Covers larger than
    :data:`CELL_COVER_CAP` cells return an empty list as the "give up,
    fan out everywhere" signal.
    """
    min_x, min_y, max_x, max_y = bounds
    side = 1 << order
    x_lo, x_hi = cell_index(min_x, side), cell_index(max_x, side)
    y_lo, y_hi = cell_index(min_y, side), cell_index(max_y, side)
    if (x_hi - x_lo + 1) * (y_hi - y_lo + 1) > CELL_COVER_CAP:
        return []
    return [
        cell_key(xi, yi, order)
        for xi in range(x_lo, x_hi + 1)
        for yi in range(y_lo, y_hi + 1)
    ]


@dataclass(frozen=True)
class ShardRange:
    """One contiguous Hilbert key range ``[lo, hi)`` owned by a worker.

    ``replica`` optionally names the worker's standby: point writes in
    the range mirror to it synchronously and reads fail over to it when
    the primary is down (see :mod:`repro.cluster.faults` and
    ``docs/CLUSTER.md``).  ``None`` means unreplicated — a lost primary
    degrades queries touching the range instead.
    """

    #: inclusive lower key bound
    lo: int
    #: exclusive upper key bound
    hi: int
    #: index of the owning worker replica
    worker: int
    #: index of the standby replica backend (``None`` = unreplicated)
    replica: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi <= self.lo:
            raise ValueError(
                f"degenerate shard range [{self.lo}, {self.hi})"
            )

    @property
    def width(self) -> int:
        """Number of Hilbert keys in the range."""
        return self.hi - self.lo


class ShardMap:
    """An immutable partition of the Hilbert key space across workers.

    ``ranges`` must tile ``[0, 4**order)`` exactly: sorted, gap-free,
    non-overlapping.  A worker may own several ranges (splits reassign
    sub-ranges, so ownership fragments over time); every range has
    exactly one owner.
    """

    __slots__ = (
        "order",
        "ranges",
        "_lows",
        "_side",
        "_workers",
        "_replica_of",
        "_quads",
    )

    def __init__(
        self, ranges: Sequence[ShardRange], *, order: int = DEFAULT_ORDER
    ) -> None:
        if not 0 < order <= 31:  # what the array form of the curve takes
            raise ValueError(f"order must be in 1..31, got {order}")
        ordered = tuple(sorted(ranges, key=lambda r: r.lo))
        key_space = 4**order
        if not ordered or ordered[0].lo != 0 or ordered[-1].hi != key_space:
            raise ValueError(
                f"ranges must tile [0, {key_space}) exactly"
            )
        for left, right in zip(ordered, ordered[1:]):
            if left.hi != right.lo:
                raise ValueError(
                    f"gap or overlap between [{left.lo}, {left.hi}) "
                    f"and [{right.lo}, {right.hi})"
                )
        replica_of: dict = {}
        for shard_range in ordered:
            known = replica_of.setdefault(
                shard_range.worker, shard_range.replica
            )
            if known != shard_range.replica:
                raise ValueError(
                    f"worker {shard_range.worker} has conflicting "
                    f"replica assignments {known!r} and "
                    f"{shard_range.replica!r}"
                )
        #: Hilbert refinement order (``2**order`` cells per axis)
        self.order = order
        #: the sorted, gap-free :class:`ShardRange` tuple
        self.ranges = ordered
        self._lows = [r.lo for r in ordered]
        self._side = 1 << order
        self._workers = frozenset(r.worker for r in ordered)
        self._replica_of = replica_of
        # Memo of quad -> owning workers.  The map is immutable (splits
        # build a new instance), so entries never invalidate; the key
        # space is bounded by the grid, and in practice queries revisit
        # the same coarse quads, so covers amortise to dict lookups.
        self._quads = {}

    @classmethod
    def even(
        cls,
        workers: int,
        *,
        order: int = DEFAULT_ORDER,
        replicated: bool = False,
    ) -> "ShardMap":
        """An equal-width partition of the key space over ``workers``.

        The launcher's starting map: worker ``i`` owns the ``i``-th of
        ``workers`` equal Hilbert intervals.  Uniform data then loads
        evenly; skew is corrected later by :meth:`split`.  With
        ``replicated`` worker ``i`` is paired with replica slot ``i``
        (the coordinator's parallel replica-backend list).
        """
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        key_space = 4**order
        if workers > key_space:
            raise ValueError(
                f"{workers} workers exceed the {key_space}-key space"
            )
        bounds = [key_space * i // workers for i in range(workers + 1)]
        return cls(
            [
                ShardRange(
                    bounds[i],
                    bounds[i + 1],
                    i,
                    replica=i if replicated else None,
                )
                for i in range(workers)
            ],
            order=order,
        )

    def replica_of(self, worker: int) -> Optional[int]:
        """The replica slot paired with ``worker`` (``None`` if none)."""
        return self._replica_of.get(worker)

    def with_replicas(self, assignment: dict) -> "ShardMap":
        """A new map with replica slots from ``{worker: replica}``.

        Workers absent from ``assignment`` become unreplicated.
        """
        from dataclasses import replace as _replace

        return ShardMap(
            [
                _replace(r, replica=assignment.get(r.worker))
                for r in self.ranges
            ],
            order=self.order,
        )

    @property
    def workers(self) -> int:
        """Number of distinct workers with at least one range."""
        return len({r.worker for r in self.ranges})

    def key_of(self, x: float, y: float) -> int:
        """The Hilbert routing key of point ``(x, y)``."""
        return hilbert_index(x, y, order=self.order)

    def owners_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`owner_of_key` of a whole column of keys (an intc array)."""
        lows = np.fromiter(self._lows, np.int64, len(self._lows))
        owners = np.fromiter(
            (r.worker for r in self.ranges), np.intc, len(self.ranges)
        )
        return owners[np.searchsorted(lows, keys, side="right") - 1]

    def range_at(self, key: int) -> ShardRange:
        """The range containing Hilbert ``key``."""
        key_space = 4**self.order
        if not 0 <= key < key_space:
            raise ValueError(
                f"key {key} outside [0, {key_space})"
            )
        return self.ranges[bisect_right(self._lows, key) - 1]

    def owner_of_key(self, key: int) -> int:
        """The worker owning Hilbert ``key``."""
        return self.range_at(key).worker

    def owner_of(self, x: float, y: float) -> int:
        """The worker owning point ``(x, y)`` — the write/seed route."""
        return self.owner_of_key(self.key_of(x, y))

    def all_workers(self) -> FrozenSet[int]:
        """Every worker index appearing in the map."""
        return self._workers

    def _owners_of_intervals(
        self, intervals: Sequence[Tuple[int, int]]
    ) -> FrozenSet[int]:
        """Workers whose ranges intersect any ``[lo, hi)`` key interval."""
        owners = set()
        lows = self._lows
        ranges = self.ranges
        for lo, hi in intervals:
            position = max(bisect_right(lows, lo) - 1, 0)
            while position < len(ranges) and ranges[position].lo < hi:
                owners.add(ranges[position].worker)
                position += 1
            if len(owners) == len(self._workers):
                break
        return frozenset(owners)

    def _quad_owners(self, shift: int, qx: int, qy: int) -> FrozenSet[int]:
        """Memoised owners of the level-``order - shift`` quad."""
        memo_key = (shift, qx, qy)
        owners = self._quads.get(memo_key)
        if owners is None:
            width = 2 * shift
            quad = cell_key(qx, qy, self.order - shift)
            owners = self._owners_of_intervals(
                [(quad << width, (quad + 1) << width)]
            )
            self._quads[memo_key] = owners
        return owners

    def workers_for_bounds(
        self, bounds: Tuple[float, float, float, float]
    ) -> FrozenSet[int]:
        """Workers whose ranges intersect the bounding box ``bounds``.

        A conservative superset: every point routed inside ``bounds``
        is owned by one of the returned workers (quads are covered with
        the same clamping as point routing), but a returned worker may
        hold no matching point.
        """
        min_x, min_y, max_x, max_y = bounds
        order = self.order
        side = self._side
        x_lo, x_hi = cell_index(min_x, side), cell_index(max_x, side)
        y_lo, y_hi = cell_index(min_y, side), cell_index(max_y, side)
        shift = _cover_shift(order, x_lo, x_hi, y_lo, y_hi)
        owners = set()
        everyone = len(self._workers)
        for qx in range(x_lo >> shift, (x_hi >> shift) + 1):
            for qy in range(y_lo >> shift, (y_hi >> shift) + 1):
                owners |= self._quad_owners(shift, qx, qy)
                if len(owners) == everyone:
                    return self._workers
        return frozenset(owners)

    def workers_for_circle(
        self, cx: float, cy: float, radius: float
    ) -> FrozenSet[int]:
        """Workers whose ranges intersect the disc around ``(cx, cy)``.

        Used for kNN boundary expansion: the disc is the kth-distance
        ball.  Covers the disc's bounding box with adaptive Hilbert
        quads, keeping only quads whose nearest point is within
        ``radius`` — still conservative (quad rectangles fully contain
        every point that snaps to them within the unit square, and
        border quads absorb the clamped outside).
        """
        if radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        order = self.order
        side = self._side
        x_lo = cell_index(cx - radius, side)
        x_hi = cell_index(cx + radius, side)
        y_lo = cell_index(cy - radius, side)
        y_hi = cell_index(cy + radius, side)
        shift = _cover_shift(order, x_lo, x_hi, y_lo, y_hi)
        quad_order = order - shift
        quad_side = 1 << quad_order
        r2 = radius * radius
        owners = set()
        everyone = len(self._workers)
        for qx in range(x_lo >> shift, (x_hi >> shift) + 1):
            # Clamp-aware quad extent: border quads extend to infinity
            # because out-of-square coordinates snap onto them.
            quad_min_x = qx / quad_side if qx > 0 else float("-inf")
            quad_max_x = (
                (qx + 1) / quad_side if qx < quad_side - 1 else float("inf")
            )
            dx = max(quad_min_x - cx, 0.0, cx - quad_max_x)
            for qy in range(y_lo >> shift, (y_hi >> shift) + 1):
                quad_min_y = qy / quad_side if qy > 0 else float("-inf")
                quad_max_y = (
                    (qy + 1) / quad_side
                    if qy < quad_side - 1
                    else float("inf")
                )
                dy = max(quad_min_y - cy, 0.0, cy - quad_max_y)
                if dx * dx + dy * dy <= r2:
                    owners |= self._quad_owners(shift, qx, qy)
                    if len(owners) == everyone:
                        return self._workers
        return frozenset(owners)

    def split(self, key: int, split_at: int, new_worker: int) -> "ShardMap":
        """A new map with the range holding ``key`` cut at ``split_at``.

        The upper half ``[split_at, hi)`` is reassigned to
        ``new_worker`` (inheriting ``new_worker``'s existing replica
        pairing, if any); the lower half keeps its owner.  ``split_at``
        must fall strictly inside the range.  This is the rebalance
        primitive: the coordinator picks the split key from the live
        data's median and migrates the moved rows before installing the
        returned map.
        """
        target = self.range_at(key)
        if not target.lo < split_at < target.hi:
            raise ValueError(
                f"split key {split_at} not strictly inside "
                f"[{target.lo}, {target.hi})"
            )
        replacement = [
            ShardRange(
                target.lo, split_at, target.worker, replica=target.replica
            ),
            ShardRange(
                split_at,
                target.hi,
                new_worker,
                replica=self._replica_of.get(new_worker),
            ),
        ]
        ranges = [r for r in self.ranges if r is not target] + replacement
        return ShardMap(ranges, order=self.order)

    def as_dicts(self) -> List[dict]:
        """JSON-ready range list (manifest and stats wire form).

        ``replica`` appears only on replicated ranges, so unreplicated
        maps serialise byte-identically to the pre-replication format.
        """
        dicts = []
        for r in self.ranges:
            entry = {"lo": r.lo, "hi": r.hi, "worker": r.worker}
            if r.replica is not None:
                entry["replica"] = r.replica
            dicts.append(entry)
        return dicts

    @classmethod
    def from_dicts(
        cls, data: Sequence[dict], *, order: int = DEFAULT_ORDER
    ) -> "ShardMap":
        """Rebuild a map from its :meth:`as_dicts` form."""
        return cls(
            [
                ShardRange(
                    int(d["lo"]),
                    int(d["hi"]),
                    int(d["worker"]),
                    replica=(
                        int(d["replica"]) if d.get("replica") is not None
                        else None
                    ),
                )
                for d in data
            ],
            order=order,
        )

    def __repr__(self) -> str:
        return (
            f"ShardMap({len(self.ranges)} ranges, "
            f"{self.workers} workers, order={self.order})"
        )
