"""Incremental delta evaluation for standing subscriptions.

Given one applied write (its operation, affected rows, and their
coordinates) and a subscription's materialized current result, these
evaluators compute the exact ``added``/``removed`` row-id sets *without
re-executing the query*:

* **Region** subscriptions test only the written coordinates against
  the region geometry — the same exact containment predicates the query
  executors refine with (:meth:`Rect.contains_point
  <repro.geometry.rectangle.Rect.contains_point>`, region
  ``contains_point``), so the maintained membership is bit-for-bit the
  set a re-execution would return.
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
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.knn_query import incremental_nearest

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
    pre: Optional["StoreSnapshot"] = None,
) -> Delta:
    """Update ``subscription`` for one applied write; return its delta.

    ``rows``/``coords`` are parallel: the written row ids and their
    coordinates (for a delete, the tombstoned row's coordinates — the
    append-only store keeps them addressable).  The subscription's
    members are mutated in place to the post-write result.

    ``pre`` is the pre-write :class:`~repro.core.store.StoreSnapshot`
    (O(1) to capture).  The member sets *are* the materialized pre-write
    results, so the snapshot is a guard, not a data source: a delete of
    a row the pre-write version could not see is ignored rather than
    trusted, keeping the state machine exact even if a caller ever
    replays a write description.
    """
    if subscription.kind == "region":
        return _evaluate_region(subscription, op, rows, coords, pre)
    return _evaluate_knn(subscription, op, rows, coords, database, pre)


def _evaluate_region(
    subscription: "Subscription",
    op: str,
    rows: Sequence[int],
    coords: Sequence[Tuple[float, float]],
    pre: Optional["StoreSnapshot"],
) -> Delta:
    """Membership delta of a region subscription from coordinates alone."""
    added: List[int] = []
    removed: List[int] = []
    members = subscription.members
    if op == "delete":
        for row in rows:
            if pre is not None and not pre.visible(row):
                continue
            if row in members:
                members.discard(row)
                removed.append(row)
    else:  # insert / extend
        contains = subscription.contains
        for row, (x, y) in zip(rows, coords):
            if contains(x, y):
                members.add(row)
                added.append(row)
    return Delta(added, removed)


def _evaluate_knn(
    subscription: "Subscription",
    op: str,
    rows: Sequence[int],
    coords: Sequence[Tuple[float, float]],
    database: "SpatialDatabase",
    pre: Optional["StoreSnapshot"],
) -> Delta:
    """Repair a kNN subscription's k-set in place; return its delta."""
    added: List[int] = []
    removed: List[int] = []
    members = subscription.members
    ordered = subscription.ordered
    if op == "delete":
        for row in rows:
            if pre is not None and not pre.visible(row):
                continue
            if row not in members:
                continue
            members.discard(row)
            removed.append(row)
            for position, (_, member) in enumerate(ordered):
                if member == row:
                    del ordered[position]
                    break
        if removed:
            _refill(subscription, database, added)
    else:  # insert / extend: displacement check per written point
        k = subscription.k
        focal_x = subscription.focal.x
        focal_y = subscription.focal.y
        for row, (x, y) in zip(rows, coords):
            dx = x - focal_x
            dy = y - focal_y
            entry = (dx * dx + dy * dy, row)
            if len(ordered) < k:
                insort(ordered, entry)
                members.add(row)
                added.append(row)
            elif entry < ordered[-1]:
                evicted = ordered.pop()[1]
                members.discard(evicted)
                # An entry of this same write that was admitted into an
                # underfull set and displaced again nets out to nothing.
                if evicted in added:
                    added.remove(evicted)
                else:
                    removed.append(evicted)
                insort(ordered, entry)
                members.add(row)
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
    (the registry then indexes the subscription as unbounded).
    """
    store = database.store
    members = subscription.members
    missing = subscription.k - len(members)
    if missing <= 0 or store.live_count <= len(members):
        return
    ordered = subscription.ordered
    focal = subscription.focal
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
        members.add(row)
        added.append(row)
        missing -= 1
        if missing <= 0:
            break
