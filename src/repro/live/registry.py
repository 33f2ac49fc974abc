"""The standing-query registry and its dirty-tile inverted index.

:class:`SubscriptionRegistry` is the server-side heart of live queries:
it holds every registered subscription, maintains an inverted index
from :class:`~repro.live.tiles.TileGrid` tiles to the subscriptions a
write in that tile could affect, and fans each applied write out to
exactly those subscriptions' incremental evaluators
(:mod:`repro.live.delta`).

**Indexing rules.**  A region subscription registers under the tiles
overlapping its rectangle (window) or region MBR — fixed for its
lifetime.  A kNN subscription registers under the tiles overlapping the
circle around its focal point with the current *kth-member radius*:
only a write inside that circle can change the k-set.  The circle
shrinks and grows as the k-set changes, so the subscription is
re-indexed after every delta that moved its kth distance; while the set
holds fewer than ``k`` members (sparse data) any insert anywhere could
join it, so it sits in the *unbounded* bucket that every write wakes.

**Mechanism counters.**  :class:`RegistryStats` counts writes fanned
out, per-subscription evaluations, and notifications produced.  The
pruning claim of the whole design is ``evaluations ≪ writes × active``
— asserted by ``tests/live/test_registry.py`` (under 5 % of that
product over 1 200 subscriptions), not just implied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.geometry.point import Point
from repro.live.delta import Delta, evaluate_write
from repro.live.tiles import Tile, TileGrid
from repro.query.spec import AreaQuery, KnnQuery, Query, WindowQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.database import SpatialDatabase
    from repro.core.store import StoreSnapshot


@dataclass
class RegistryStats:
    """Lifetime counters of one registry (the ``subscriptions`` stats)."""

    #: subscriptions ever registered
    registered_total: int = 0
    #: subscriptions unregistered (client request or disconnect)
    unregistered_total: int = 0
    #: writes fanned out through :meth:`SubscriptionRegistry.apply_write`
    writes: int = 0
    #: per-subscription delta evaluations (the pruned work unit)
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
    """One standing query: its spec, owner, and materialized result.

    Created by :meth:`SubscriptionRegistry.register`; the registry's
    evaluators mutate ``members``/``ordered`` in place as writes land,
    so the object always holds the exact current result.
    """

    __slots__ = (
        "sid",
        "spec",
        "owner",
        "kind",
        "members",
        "ordered",
        "contains",
        "focal",
        "k",
        "tiles",
        "notifications",
    )

    def __init__(
        self,
        sid: int,
        spec: Query,
        owner: object,
        kind: str,
        *,
        contains: Optional[Callable[[float, float], bool]] = None,
        focal: Optional[Point] = None,
        k: int = 0,
    ) -> None:
        #: registry-wide subscription id (stable for the lifetime)
        self.sid = sid
        #: the registered immutable query spec
        self.spec = spec
        #: opaque owner tag (the server passes its connection object)
        self.owner = owner
        #: ``"region"`` or ``"knn"``
        self.kind = kind
        #: current result row ids
        self.members: Set[int] = set()
        #: kNN only: the k-set as a sorted ``(dist_sq, row)`` list
        self.ordered: List[Tuple[float, int]] = []
        #: region only: exact containment test over raw coordinates
        self.contains = contains
        #: kNN only: the focal query point
        self.focal = focal
        #: kNN only: the requested k
        self.k = k
        #: tiles currently registered under (``None`` = unbounded bucket)
        self.tiles: Optional[FrozenSet[Tile]] = None
        #: notify deltas produced for this subscription so far
        self.notifications = 0

    def __repr__(self) -> str:
        return (
            f"Subscription(sid={self.sid}, kind={self.kind!r}, "
            f"members={len(self.members)})"
        )


class SubscriptionRegistry:
    """Registered standing queries plus their tile inverted index.

    Parameters
    ----------
    database:
        The served database; initial results are evaluated through its
        planner and kNN refills walk its Voronoi backend.
    grid:
        The :class:`~repro.live.tiles.TileGrid` keying the inverted
        index (default: 64x64 over the unit square — the library's
        default data space; out-of-bounds data degrades to border-tile
        fanout, never to a missed notification).
    """

    def __init__(
        self,
        database: "SpatialDatabase",
        *,
        grid: Optional[TileGrid] = None,
    ) -> None:
        self._db = database
        #: the tiling that keys the inverted index
        self.grid = grid if grid is not None else TileGrid()
        #: lifetime mechanism counters
        self.stats = RegistryStats()
        self._by_tile: Dict[Tile, Set[Subscription]] = {}
        self._unbounded: Set[Subscription] = set()
        self._subscriptions: Set[Subscription] = set()
        self._next_sid = 0

    @property
    def active(self) -> int:
        """Subscriptions currently registered."""
        return len(self._subscriptions)

    # -- admission ---------------------------------------------------------

    def register(
        self, spec: Query, *, owner: object = None
    ) -> Tuple[Subscription, List[int]]:
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
        if kind == "region":
            subscription = Subscription(
                self._next_sid,
                spec,
                owner,
                kind,
                contains=_containment_test(spec),
            )
            subscription.members = set(ids)
        else:
            subscription = Subscription(
                self._next_sid,
                spec,
                owner,
                kind,
                focal=spec.point,
                k=spec.k,
            )
            coords = self._db.store.coords
            focal = spec.point
            for row in ids:
                x, y = coords(row)
                dx = x - focal.x
                dy = y - focal.y
                subscription.ordered.append((dx * dx + dy * dy, row))
            subscription.ordered.sort()
            subscription.members = set(ids)
        self._subscriptions.add(subscription)
        subscription.tiles = self._tiles_for(subscription)
        self._index_add(subscription)
        self.stats.registered_total += 1
        return subscription, ids

    def unregister(self, subscription: Subscription) -> bool:
        """Drop one subscription (idempotent); True when it was active."""
        if subscription not in self._subscriptions:
            return False
        self._subscriptions.discard(subscription)
        self._index_remove(subscription)
        self.stats.unregistered_total += 1
        return True

    # -- the write fan-out -------------------------------------------------

    def apply_write(
        self,
        op: str,
        rows: Sequence[int],
        coords: Sequence[Tuple[float, float]],
        *,
        pre: Optional["StoreSnapshot"] = None,
    ) -> List[Tuple[Subscription, Delta]]:
        """Fan one *applied* write out; return per-subscription deltas.

        Called by the server immediately after the mutation lands (the
        subscriptions' member sets are the materialized pre-write
        results, so state plus write description determines the exact
        delta; ``pre`` — the pre-write snapshot — guards the delete
        path, see :func:`~repro.live.delta.evaluate_write`).  Only
        subscriptions registered under a written tile — plus the
        unbounded bucket — are evaluated; everything else is untouched,
        which is the entire point of the inverted index.  Subscriptions
        whose kth radius moved are re-indexed in passing.
        """
        self.stats.writes += 1
        if not self._subscriptions:
            return []
        affected: Set[Subscription] = set(self._unbounded)
        tile_of = self.grid.tile_of
        for tile in {tile_of(x, y) for x, y in coords}:
            bucket = self._by_tile.get(tile)
            if bucket:
                affected |= bucket
        self.stats.fanout += len(affected)
        if len(affected) > self.stats.max_fanout:
            self.stats.max_fanout = len(affected)
        events: List[Tuple[Subscription, Delta]] = []
        for subscription in sorted(affected, key=lambda sub: sub.sid):
            self.stats.evaluations += 1
            delta = evaluate_write(
                subscription, op, rows, coords, self._db, pre
            )
            if subscription.kind == "knn" and delta:
                self._reindex(subscription)
            if delta:
                subscription.notifications += 1
                self.stats.notifications += 1
                events.append((subscription, delta))
        return events

    # -- tile index plumbing -----------------------------------------------

    def _tiles_for(
        self, subscription: Subscription
    ) -> Optional[FrozenSet[Tile]]:
        """The tile set a subscription indexes under now (None=unbounded)."""
        if subscription.kind == "region":
            spec = subscription.spec
            rect = spec.rect if isinstance(spec, WindowQuery) else spec.region.mbr
            return self.grid.tiles_for_rect(rect)
        if len(subscription.ordered) < subscription.k:
            return None  # underfull k-set: any insert anywhere may join
        focal = subscription.focal
        return self.grid.tiles_for_circle(
            focal.x, focal.y, subscription.ordered[-1][0]
        )

    def _index_add(self, subscription: Subscription) -> None:
        if subscription.tiles is None:
            self._unbounded.add(subscription)
            return
        for tile in subscription.tiles:
            self._by_tile.setdefault(tile, set()).add(subscription)

    def _index_remove(self, subscription: Subscription) -> None:
        if subscription.tiles is None:
            self._unbounded.discard(subscription)
            return
        for tile in subscription.tiles:
            bucket = self._by_tile.get(tile)
            if bucket is not None:
                bucket.discard(subscription)
                if not bucket:
                    del self._by_tile[tile]

    def _reindex(self, subscription: Subscription) -> None:
        """Refresh a kNN subscription's tiles after its radius moved."""
        tiles = self._tiles_for(subscription)
        if tiles != subscription.tiles:
            self._index_remove(subscription)
            subscription.tiles = tiles
            self._index_add(subscription)


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


def _containment_test(spec: Query) -> Callable[[float, float], bool]:
    """The exact containment predicate of a region spec, over raw x/y.

    The same geometric tests the query executors refine with, so
    incremental membership can never drift from a re-execution.
    """
    if isinstance(spec, WindowQuery):
        rect = spec.rect
        contains_point = rect.contains_point

        def window_contains(x: float, y: float) -> bool:
            """Closed-bounds window containment."""
            return contains_point(Point(x, y))

        return window_contains
    region = spec.region
    region_contains = region.contains_point

    def area_contains(x: float, y: float) -> bool:
        """Exact region containment (boundary inclusive)."""
        return region_contains(Point(x, y))

    return area_contains
