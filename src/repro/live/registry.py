"""The standing-query registry: subscriptions held as array rows.

:class:`SubscriptionRegistry` is the server-side heart of live queries:
it holds every registered subscription as one row of a numpy column
block and fans each applied write out to the incremental evaluators
(:mod:`repro.live.delta`) of exactly the subscriptions the write's
coordinates fall inside — the paper's filter-then-refine, applied to
standing queries instead of stored points.

**The rows.**  A region subscription is one row of a float64 bounds
block ``min_x, min_y, max_x, max_y``: its window's rectangle, or its
area's MBR (fixed for its lifetime).  A kNN subscription is one row of
focal ``x``, ``y`` and the squared distance of its kth member — ``inf``
while the k-set is underfull, since any insert anywhere may then join
it.  Unregistered rows are recycled; a free row holds bounds no point
satisfies.

**The filter.**  :meth:`SubscriptionRegistry.apply_write` tests each
written point against every row at once (closed bounds; for kNN the
evaluators' own ``dx*dx + dy*dy`` against the kth distance, inclusive,
so ties reach the exact test), broadcast over the written points.
Only the hits are evaluated exactly.  The scan is linear in the number
of subscriptions, with numpy's constant.

**Mechanism counters.**  :class:`RegistryStats` counts writes fanned
out, exact evaluations on hits, and notifications produced.  The
pruning claim of the whole design is ``evaluations ≪ writes × active``
— asserted by ``tests/live/test_registry.py`` (under 5 % of that
product over 1 200 subscriptions), not just implied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import xy_array
from repro.live.delta import Delta, evaluate_write
from repro.query.spec import AreaQuery, KnnQuery, Query, WindowQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.database import SpatialDatabase
    from repro.core.store import StoreSnapshot

#: comparisons per broadcast block of the bounds test (rows × points)
_CELLS = 1 << 16


@dataclass
class RegistryStats:
    """Lifetime counters of one registry (the ``subscriptions`` stats)."""

    #: subscriptions ever registered
    registered_total: int = 0
    #: subscriptions unregistered (client request or disconnect)
    unregistered_total: int = 0
    #: writes fanned out through :meth:`SubscriptionRegistry.apply_write`
    writes: int = 0
    #: exact evaluations of subscriptions the bounds test hit
    evaluations: int = 0
    #: non-empty deltas produced (one notify frame each)
    notifications: int = 0
    #: sum over writes of affected-subscription counts (fanout)
    fanout: int = 0
    #: largest single-write fanout observed
    max_fanout: int = 0

    def as_dict(self) -> Dict[str, int]:
        """A JSON-ready mapping for the ``stats`` frame."""
        return {
            "registered_total": self.registered_total,
            "unregistered_total": self.unregistered_total,
            "writes": self.writes,
            "evaluations": self.evaluations,
            "notifications": self.notifications,
            "fanout": self.fanout,
            "max_fanout": self.max_fanout,
        }


class Subscription:
    """One standing query: the handle of its registry row.

    Created by :meth:`SubscriptionRegistry.register`.  A region
    subscription keeps no result at all — its deltas follow from the
    written coordinates — and a kNN subscription keeps only its k-set,
    which the evaluators repair in place as writes land.
    """

    __slots__ = ("sid", "spec", "kind", "slot", "ordered", "notifications")

    def __init__(self, sid: int, spec: Query, kind: str) -> None:
        #: registry-wide subscription id (stable for the lifetime)
        self.sid = sid
        #: the registered immutable query spec
        self.spec = spec
        #: ``"region"`` or ``"knn"``
        self.kind = kind
        #: the row this subscription holds in its kind's block (-1: none)
        self.slot = -1
        #: kNN only: the k-set as a sorted ``(dist_sq, row)`` list
        self.ordered: Optional[List[Tuple[float, int]]] = None
        #: notify deltas produced for this subscription so far
        self.notifications = 0

    @property
    def region(self):
        """Region only: the window's rectangle or the area's region."""
        spec = self.spec
        return spec.rect if isinstance(spec, WindowQuery) else spec.region

    def __repr__(self) -> str:
        return f"Subscription(sid={self.sid}, kind={self.kind!r}, slot={self.slot})"


class _Rows:
    """One kind's subscriptions: a float64 column block plus its handles.

    ``columns[:, slot]`` is a subscription's row; ``free`` holds the
    value an empty row carries (one no written point can hit).
    """

    __slots__ = ("columns", "subscriptions", "recycled", "free")

    def __init__(self, free: Tuple[float, ...]) -> None:
        self.free = np.array(free, dtype=np.float64).reshape(-1, 1)
        self.columns = np.repeat(self.free, 16, axis=1)
        #: handle per row (``None`` for a free row), one list entry each
        self.subscriptions: List[Optional[Subscription]] = []
        self.recycled: List[int] = []

    def used(self) -> np.ndarray:
        """The rows handed out so far (free ones included)."""
        return self.columns[:, : len(self.subscriptions)]

    def add(self, subscription: Subscription, values: Sequence[float]) -> None:
        """Give ``subscription`` a row holding ``values`` (reuses a free one)."""
        if self.recycled:
            slot = self.recycled.pop()
            self.subscriptions[slot] = subscription
        else:
            slot = len(self.subscriptions)
            if slot == self.columns.shape[1]:
                self.columns = np.concatenate(
                    [self.columns, np.repeat(self.free, slot, axis=1)], axis=1
                )
            self.subscriptions.append(subscription)
        self.columns[:, slot] = values
        subscription.slot = slot

    def remove(self, subscription: Subscription) -> bool:
        """Free ``subscription``'s row; False when it holds none here."""
        slot = subscription.slot
        if slot < 0 or self.subscriptions[slot] is not subscription:
            return False
        self.subscriptions[slot] = None
        self.columns[:, slot] = self.free[:, 0]
        self.recycled.append(slot)
        subscription.slot = -1
        return True


class SubscriptionRegistry:
    """Registered standing queries, held as array rows.

    Parameters
    ----------
    database:
        The served database; initial results are evaluated through its
        planner and kNN refills walk its Voronoi backend.
    """

    def __init__(self, database: "SpatialDatabase") -> None:
        self._db = database
        #: lifetime mechanism counters
        self.stats = RegistryStats()
        # min_x, min_y, max_x, max_y; a free row's bounds hold nothing
        self._regions = _Rows((np.inf, np.inf, -np.inf, -np.inf))
        # focal x, focal y, kth squared distance; no d2 is <= -inf
        self._knn = _Rows((0.0, 0.0, -np.inf))
        self._active = 0
        self._next_sid = 0

    @property
    def active(self) -> int:
        """Subscriptions currently registered."""
        return self._active

    # -- admission ---------------------------------------------------------

    def register(self, spec: Query) -> Tuple[Subscription, List[int]]:
        """Admit ``spec`` as a standing query; return it with its result.

        The initial result is one ordinary planner execution (region
        ids ascending, kNN ids in rank order) — the *only* full
        execution the subscription ever costs; every later update is
        incremental.  Raises :class:`ValueError` for specs that cannot
        be maintained incrementally (composites, predicates, limits,
        projections, unbounded kNN).
        """
        kind = _subscribable_kind(spec)
        ids = self._db.query(spec).ids()
        self._next_sid += 1
        subscription = Subscription(self._next_sid, spec, kind)
        if kind == "region":
            box = subscription.region.mbr
            self._regions.add(
                subscription, (box.min_x, box.min_y, box.max_x, box.max_y)
            )
        else:
            coords = self._db.store.coords
            focal = spec.point
            ordered = []
            for row in ids:
                x, y = coords(row)
                dx = x - focal.x
                dy = y - focal.y
                ordered.append((dx * dx + dy * dy, row))
            ordered.sort()
            subscription.ordered = ordered
            self._knn.add(subscription, (focal.x, focal.y, _kth(subscription)))
        self._active += 1
        self.stats.registered_total += 1
        return subscription, ids

    def unregister(self, subscription: Subscription) -> bool:
        """Drop one subscription (idempotent); True when it was active."""
        rows = self._regions if subscription.kind == "region" else self._knn
        if not rows.remove(subscription):
            return False
        self._active -= 1
        self.stats.unregistered_total += 1
        return True

    # -- the write fan-out -------------------------------------------------

    def apply_write(
        self,
        op: str,
        rows: Sequence[int],
        coords,
        *,
        pre: "StoreSnapshot",
    ) -> List[Tuple[Subscription, Delta]]:
        """Fan one *applied* write out; return per-subscription deltas.

        ``coords`` holds the written rows' points as ``(n, 2)`` (an
        array or pairs; for a delete, the tombstoned row's point).
        Called by the server immediately after the mutation lands;
        ``pre`` — the pre-write snapshot — guards the delete path, see
        :func:`~repro.live.delta.evaluate_write`.  Only subscriptions
        whose row the written points hit are evaluated, in
        registration order; everything else is untouched.
        """
        self.stats.writes += 1
        if not self._active:
            return []
        xy = xy_array(coords)
        points = xy.tolist()
        hits = self._hits(xy)
        self.stats.fanout += len(hits)
        if len(hits) > self.stats.max_fanout:
            self.stats.max_fanout = len(hits)
        events: List[Tuple[Subscription, Delta]] = []
        for subscription in sorted(hits, key=lambda sub: sub.sid):
            self.stats.evaluations += 1
            indices = hits[subscription]
            delta = evaluate_write(
                subscription,
                op,
                [rows[i] for i in indices],
                [points[i] for i in indices],
                self._db,
                pre,
            )
            if subscription.kind == "knn":
                self._knn.columns[2, subscription.slot] = _kth(subscription)
            if delta:
                subscription.notifications += 1
                self.stats.notifications += 1
                events.append((subscription, delta))
        return events

    def _hits(self, xy: np.ndarray) -> Dict[Subscription, List[int]]:
        """Each hit subscription with the indices of the points it holds.

        One broadcast closed-bounds test of the written points against
        every row, then one ``nonzero`` for the (point, row) pairs.  A long
        write is tested a block of points at a time, so no comparison
        matrix holds more than about ``_CELLS`` entries.
        """
        min_x, min_y, max_x, max_y = self._regions.used()
        focal_x, focal_y, kth = self._knn.used()
        step = max(1, _CELLS // (len(min_x) + len(focal_x)))
        hits: Dict[Subscription, List[int]] = {}
        for start in range(0, len(xy), step):
            # (points, 1) columns against (rows,) rows: (points, rows) masks
            xs = xy[start : start + step, 0:1]
            ys = xy[start : start + step, 1:2]
            inside = (min_x <= xs) & (min_y <= ys) & (xs <= max_x) & (ys <= max_y)
            dx = xs - focal_x
            dy = ys - focal_y
            near = dx * dx + dy * dy <= kth
            for block, mask in ((self._regions, inside), (self._knn, near)):
                # a 1-d nonzero over the flat mask is ~10x a 2-d one
                width = mask.shape[1]
                for cell in mask.ravel().nonzero()[0].tolist():
                    i, slot = divmod(cell, width)
                    hits.setdefault(block.subscriptions[slot], []).append(start + i)
        return hits


def _kth(subscription: Subscription) -> float:
    """A kNN row's filter radius: the kth squared distance, or inf."""
    ordered = subscription.ordered
    return ordered[-1][0] if len(ordered) >= subscription.spec.k else np.inf


def _subscribable_kind(spec: Query) -> str:
    """``"region"``/``"knn"`` for a maintainable spec; raise otherwise.

    Standing queries must be incrementally evaluable from write deltas:
    leaf region kinds (:class:`~repro.query.spec.AreaQuery`,
    :class:`~repro.query.spec.WindowQuery`) and bounded
    :class:`~repro.query.spec.KnnQuery`.  Composites, predicates,
    limits, non-id projections, and unbounded kNN are rejected with
    :class:`ValueError` (the server answers ``bad-spec``).
    """
    if spec.predicate is not None:
        raise ValueError("subscriptions cannot carry a predicate")
    if spec.limit is not None:
        raise ValueError("subscriptions cannot carry a limit")
    if spec.select != "ids":
        raise ValueError("subscriptions deliver row ids; drop the projection")
    if isinstance(spec, (AreaQuery, WindowQuery)):
        return "region"
    if isinstance(spec, KnnQuery):
        if spec.k is None:
            raise ValueError(
                "unbounded kNN cannot be a subscription; give it a k"
            )
        return "knn"
    raise ValueError(
        f"{type(spec).__name__} is not subscribable; standing queries are "
        "area, window, or bounded knn specs"
    )
