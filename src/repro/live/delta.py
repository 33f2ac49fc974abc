"""Incremental delta evaluation for standing subscriptions.

Given one applied write (its operation, affected rows, and their
coordinates) and a subscription, these evaluators compute the exact
``added``/``removed`` row-id sets *without re-executing the query*:

* **Region** subscriptions keep no result: they test only the written
  coordinates against the region geometry — the same exact containment
  predicates the query executors refine with (:meth:`Rect.contains_point
  <repro.geometry.rectangle.Rect.contains_point>`, region
  ``contains_point``), so the replayed deltas are bit-for-bit the
  changes a re-execution would show.
* **kNN** subscriptions maintain their k-set as a sorted
  ``(squared distance, row id)`` list — the executors' exact ranking
  order, ties by row id.  An insert strictly inside the kth radius
  displaces the current kth member; a delete of a member triggers one
  :func:`~repro.core.knn_query.incremental_nearest` walk that refills
  the set from the post-write live rows, skipping survivors.  Both
  repairs are local: cost scales with ``k`` and the walk's frontier,
  never with the database.

A delete of a *tombstoned-then-reinserted* position is two independent
writes: the delete produces one ``removed`` delta and the later insert
one ``added`` delta for the *new* row id — membership is by row, so
reinsertion never manufactures remove+add churn for untouched rows.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.core.knn_query import incremental_nearest
from repro.geometry.point import Point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.database import SpatialDatabase
    from repro.core.store import StoreSnapshot
    from repro.live.registry import Subscription


class Delta:
    """One subscription's result change under one write."""

    __slots__ = ("added", "removed")

    def __init__(self, added: List[int], removed: List[int]) -> None:
        #: row ids that entered the result (kNN: rank-insertion order)
        self.added = added
        #: row ids that left the result
        self.removed = removed

    def __bool__(self) -> bool:
        """Whether the write changed this subscription's result at all."""
        return bool(self.added or self.removed)

    def __repr__(self) -> str:
        return f"Delta(added={self.added}, removed={self.removed})"


def evaluate_write(
    subscription: "Subscription",
    op: str,
    rows: Sequence[int],
    coords: Sequence[Tuple[float, float]],
    database: "SpatialDatabase",
    pre: "StoreSnapshot",
) -> Delta:
    """Evaluate one applied write against ``subscription``; return its delta.

    ``rows``/``coords`` are parallel: the written row ids and their
    coordinates (for a delete, the tombstoned row's coordinates — the
    append-only store keeps them addressable).  A kNN subscription's
    k-set is mutated in place to the post-write result.

    ``pre`` is the pre-write :class:`~repro.core.store.StoreSnapshot`
    (O(1) to capture).  A delete of a row the pre-write version could
    not see is ignored rather than trusted, so a replayed delete, or one
    of a row already tombstoned, changes no result.
    """
    if subscription.kind == "region":
        return _evaluate_region(subscription, op, rows, coords, pre)
    return _evaluate_knn(subscription, op, rows, coords, database, pre)


def _evaluate_region(
    subscription: "Subscription",
    op: str,
    rows: Sequence[int],
    coords: Sequence[Tuple[float, float]],
    pre: "StoreSnapshot",
) -> Delta:
    """Membership delta of a region subscription from coordinates alone.

    A row is a member exactly when it is live and its point is
    contained, so an insert of a contained point is ``added`` and a
    delete of a pre-write-visible contained point is ``removed``.
    """
    contains_point = subscription.region.contains_point
    inside = [
        row for row, (x, y) in zip(rows, coords) if contains_point(Point(x, y))
    ]
    if op != "delete":  # insert / extend
        return Delta(inside, [])
    return Delta([], [row for row in inside if pre.visible(row)])


def _evaluate_knn(
    subscription: "Subscription",
    op: str,
    rows: Sequence[int],
    coords: Sequence[Tuple[float, float]],
    database: "SpatialDatabase",
    pre: "StoreSnapshot",
) -> Delta:
    """Repair a kNN subscription's k-set in place; return its delta."""
    added: List[int] = []
    removed: List[int] = []
    ordered = subscription.ordered
    if op == "delete":
        for row in rows:
            if not pre.visible(row):
                continue
            for position, (_, member) in enumerate(ordered):
                if member == row:
                    del ordered[position]
                    removed.append(row)
                    break
        if removed:
            _refill(subscription, database, added)
    else:  # insert / extend: displacement check per written point
        k = subscription.spec.k
        focal = subscription.spec.point
        focal_x = focal.x
        focal_y = focal.y
        for row, (x, y) in zip(rows, coords):
            dx = x - focal_x
            dy = y - focal_y
            entry = (dx * dx + dy * dy, row)
            if len(ordered) < k:
                insort(ordered, entry)
                added.append(row)
            elif entry < ordered[-1]:
                evicted = ordered.pop()[1]
                # An entry of this same write that was admitted into an
                # underfull set and displaced again nets out to nothing.
                if evicted in added:
                    added.remove(evicted)
                else:
                    removed.append(evicted)
                insort(ordered, entry)
                added.append(row)
    return Delta(added, removed)


def _refill(
    subscription: "Subscription",
    database: "SpatialDatabase",
    added: List[int],
) -> None:
    """Top an underfull k-set back up from the post-write live rows.

    One :func:`~repro.core.knn_query.incremental_nearest` walk yields
    live rows nearest-first (ties by row id); the surviving members are
    a prefix of that ranking, so skipping them and taking rows until the
    set holds ``k`` reconstructs the exact post-write k-set.  With fewer
    than ``k`` live rows the walk exhausts and the set stays underfull
    (the registry then filters the subscription with an infinite radius).
    """
    store = database.store
    ordered = subscription.ordered
    missing = subscription.spec.k - len(ordered)
    if missing <= 0 or store.live_count <= len(ordered):
        return
    members = {row for _, row in ordered}
    focal = subscription.spec.point
    for row in incremental_nearest(
        database.index,
        database.backend,
        store,
        focal,
        deleted=store.deleted_rows or None,
    ):
        if row in members:
            continue
        x, y = store.coords(row)
        dx = x - focal.x
        dy = y - focal.y
        insort(ordered, (dx * dx + dy * dy, row))
        added.append(row)
        missing -= 1
        if missing <= 0:
            break
