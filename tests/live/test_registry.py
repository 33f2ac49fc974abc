"""Registry-level tests: admission rules, replayed-delta exactness, memory.

The heart of the subsystem's correctness claim: a subscription's initial
ids with every replayed delta applied equal a fresh execution of its
spec on the post-write database — verified here after every write of
interleaved insert/extend/delete/unsubscribe traces over region and kNN
subscriptions (points on window edges, points outside the unit square,
areas whose MBR holds a point their region does not, kNN ties at the
kth distance, underfull k-sets, an extend longer than the subscription
list), plus targeted edge cases (tombstone reinsertion, recycled rows,
idempotent unregister) and a bound on what ``register`` retains.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro.core.database import SpatialDatabase
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.query.spec import (
    AreaQuery,
    KnnQuery,
    NearestQuery,
    UnionQuery,
    WindowQuery,
)
from repro.live import registry as registry_module
from repro.live.registry import SubscriptionRegistry
from repro.workloads.generators import moving_object_steps, uniform_points


@pytest.fixture()
def db():
    """A small mutable database (pure backend: incremental writes)."""
    return SpatialDatabase.from_points(
        uniform_points(250, seed=23), backend_kind="pure"
    ).prepare()


def _apply(registry, db, op, payload):
    """Apply one write to the database, then fan it out post-write.

    An extend passes its ``(n, 2)`` array, the other writes a list of
    pairs — the two shapes the server hands the registry.
    """
    pre = db.store.snapshot()
    if op == "insert":
        row = db.insert(Point(*payload))
        rows, coords = [row], [payload]
    elif op == "extend":
        coords = np.asarray(payload, dtype=np.float64)
        rows = list(db.extend(coords))
    else:  # delete
        coords = [db.store.coords(payload)]
        db.delete(payload)
        rows = [payload]
    return registry.apply_write(op, rows, coords, pre=pre)


class _Replay:
    """What a client holds: each subscription's initial ids plus deltas."""

    def __init__(self, db, registry):
        self.db = db
        self.registry = registry
        self.ids = {}  # sid -> set of row ids
        self.subscriptions = {}  # sid -> Subscription

    def subscribe(self, spec):
        subscription, ids = self.registry.register(spec)
        self.ids[subscription.sid] = set(ids)
        self.subscriptions[subscription.sid] = subscription
        return subscription

    def unsubscribe(self, subscription):
        assert self.registry.unregister(subscription)
        del self.ids[subscription.sid]
        del self.subscriptions[subscription.sid]

    def apply(self, op, payload):
        events = _apply(self.registry, self.db, op, payload)
        sids = [subscription.sid for subscription, _ in events]
        assert sids == sorted(sids), "deltas leave in registration order"
        for subscription, delta in events:
            ids = self.ids[subscription.sid]  # no delta for a dropped one
            assert delta
            assert not set(delta.added) & ids
            assert set(delta.removed) <= ids
            ids -= set(delta.removed)
            ids |= set(delta.added)
        return events

    def check(self, context=""):
        for sid, ids in self.ids.items():
            subscription = self.subscriptions[sid]
            expected = self.db.query(subscription.spec).ids()
            assert ids == set(expected), (
                f"{context}: {subscription.spec.describe()} drifted"
            )
            if subscription.kind == "knn":
                # Rank order too, not just the set.
                assert [row for _, row in subscription.ordered] == expected


class TestAdmission:
    def test_rejects_non_subscribable_specs(self, db):
        registry = SubscriptionRegistry(db)
        window = WindowQuery((0.1, 0.1, 0.5, 0.5))
        for spec in [
            KnnQuery((0.5, 0.5), None),
            NearestQuery((0.5, 0.5)),
            UnionQuery((window, WindowQuery((0.4, 0.4, 0.9, 0.9)))),
            window.where(lambda p: p.x > 0.2),
            window.with_limit(5),
        ]:
            with pytest.raises(ValueError):
                registry.register(spec)
        assert registry.active == 0

    def test_initial_result_matches_query(self, db):
        registry = SubscriptionRegistry(db)
        spec = WindowQuery((0.2, 0.2, 0.7, 0.7))
        subscription, ids = registry.register(spec)
        assert ids == db.query(spec).ids()
        assert subscription.spec is spec and subscription.kind == "region"
        assert registry.active == 1

    def test_unregister_is_idempotent(self, db):
        registry = SubscriptionRegistry(db)
        subscription, _ = registry.register(WindowQuery((0, 0, 1, 1)))
        assert registry.unregister(subscription) is True
        assert registry.unregister(subscription) is False
        assert registry.active == 0

    def test_unregistered_row_is_recycled_and_never_hit(self, db):
        registry = SubscriptionRegistry(db)
        gone, _ = registry.register(WindowQuery((0.0, 0.0, 0.5, 0.5)))
        knn_gone, _ = registry.register(KnnQuery((0.25, 0.25), 3))
        registry.unregister(gone)
        registry.unregister(knn_gone)
        kept, _ = registry.register(WindowQuery((0.6, 0.6, 0.9, 0.9)))
        assert kept.slot == 0 and gone.slot == -1  # the freed row, reused
        assert registry.unregister(gone) is False
        events = _apply(registry, db, "insert", (0.25, 0.25))
        assert events == []
        assert registry.stats.evaluations == 0
        (subscription, delta), = _apply(registry, db, "insert", (0.75, 0.75))
        assert subscription is kept and delta.added == [len(db.store) - 1]


    def test_rows_grow_and_recycle_across_blocks(self, db):
        """Past the first block of rows, with rows freed and reused in
        between, every live subscription still gets exactly its deltas."""
        rng = random.Random(71)
        replay = _Replay(db, SubscriptionRegistry(db))
        for round_ in range(3):
            for _ in range(30):
                x, y = rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.8)
                replay.subscribe(WindowQuery((x, y, x + 0.2, y + 0.2)))
                replay.subscribe(KnnQuery((x, y), rng.randint(1, 6)))
            for sid in rng.sample(sorted(replay.subscriptions), 25):
                replay.unsubscribe(replay.subscriptions[sid])
            for _ in range(10):
                replay.apply("insert", (rng.random(), rng.random()))
            replay.check(f"round {round_}")
        slots = [(s.kind, s.slot) for s in replay.subscriptions.values()]
        assert len(set(slots)) == len(slots) == replay.registry.active == 105


class TestMemory:
    def test_register_retains_at_most_512_bytes_per_window(self):
        """1 000 window registrations retain at most 512 traced bytes
        each: an array row and a small handle, no per-tile sets, tile
        frozensets, member sets or closures."""
        db = SpatialDatabase.from_points(uniform_points(2_000, seed=5)).prepare()
        rng = random.Random(3)
        specs = []
        for _ in range(1_001):
            x, y = rng.uniform(0.0, 0.9), rng.uniform(0.0, 0.9)
            side = rng.uniform(0.02, 0.08)
            specs.append(WindowQuery((x, y, x + side, y + side)))
        registry = SubscriptionRegistry(db)
        registry.register(specs.pop())  # first-call imports and caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            handles = [registry.register(spec)[0] for spec in specs]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(handles) == registry.active - 1 == 1_000
        assert retained / len(handles) <= 512, retained / len(handles)


# Exact binary fractions: lattice points land exactly on window edges
# and at exactly equal distances from lattice focal points.
_LATTICE = [(i / 8, j / 8) for i in range(1, 8) for j in range(1, 8)]
_EDGE_WINDOWS = [
    (0.25, 0.25, 0.5, 0.625),
    (0.125, 0.375, 0.375, 0.875),
    (0.5, 0.25, 0.5, 0.75),  # degenerate: the segment x = 0.5
    (-0.5, -0.25, 0.25, 0.25),  # straddles the unit square's corner
    (0.75, 0.5, 1.75, 1.5),
    (1.25, -0.75, 1.5, 0.0),  # wholly outside the unit square
]
# MBR [0.1, 0.9]^2; the notch above (0.5, 0.3) lies inside the MBR only.
_CHEVRON = Polygon([(0.1, 0.1), (0.9, 0.1), (0.9, 0.9), (0.5, 0.3), (0.1, 0.9)])


def _oracle_specs(rng, live_rows):
    specs = [WindowQuery(bounds) for bounds in _EDGE_WINDOWS]
    specs.append(AreaQuery(_CHEVRON))
    specs.append(AreaQuery(Circle(Point(0.5, 0.5), 0.25)))
    specs.append(KnnQuery((0.5, 0.5), 3))  # four lattice rows tie at 1/64
    specs.append(KnnQuery((0.25, 0.75), 6))
    specs.append(KnnQuery((1.5, -0.5), 4))  # focal outside the square
    specs.append(KnnQuery((0.5, 0.5), live_rows + 3))  # underfull
    x, y = rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.8)
    specs.append(WindowQuery((x, y, x + 0.2, y + 0.2)))
    return specs


def _oracle_point(rng):
    """An insert position from the trace's mix of awkward places."""
    kind = rng.random()
    if kind < 0.3:  # off-lattice half-step: on a window edge, not a duplicate
        i, j = rng.randrange(1, 16, 2), rng.randrange(0, 17)
        return (i / 16, j / 16) if rng.random() < 0.5 else (j / 16, i / 16)
    if kind < 0.45:  # the chevron's notch: inside its MBR, outside it
        return (rng.uniform(0.45, 0.55), rng.uniform(0.6, 0.85))
    if kind < 0.65:  # outside the unit square
        return (rng.uniform(-0.75, 1.75), rng.choice([-0.5, 1.25, 1.5]))
    return (rng.random(), rng.random())


class TestReplayOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_replayed_deltas_equal_a_fresh_query(self, seed):
        """Initial ids plus every replayed delta equal a fresh
        ``db.query(spec).ids()`` after every write of an interleaved
        insert / extend / delete / unsubscribe trace."""
        rng = random.Random(seed)
        points = uniform_points(40, seed=100 + seed) + [Point(*p) for p in _LATTICE]
        db = SpatialDatabase.from_points(points, backend_kind="pure").prepare()
        replay = _Replay(db, SubscriptionRegistry(db))
        for spec in _oracle_specs(rng, len(points)):
            replay.subscribe(spec)
        live = set(range(len(points)))
        used = set(_LATTICE)
        long_extend_at = rng.randrange(10, 50)
        for step in range(70):
            choice = rng.random()
            if step == long_extend_at:
                # More rows than subscriptions: one test per subscription.
                batch = []
                while len(batch) < 2 * replay.registry.active + 3:
                    point = _oracle_point(rng)
                    if point not in used:
                        used.add(point)
                        batch.append(point)
                base = len(db.store)
                replay.apply("extend", batch)
                live |= set(range(base, base + len(batch)))
            elif choice < 0.4:
                point = _oracle_point(rng)
                if point in used:
                    continue
                used.add(point)
                replay.apply("insert", point)
                live.add(len(db.store) - 1)
            elif choice < 0.7 and len(live) > 10:
                victim = rng.choice(sorted(live))
                live.discard(victim)
                replay.apply("delete", victim)
            elif choice < 0.85:
                batch = [p for p in (_oracle_point(rng) for _ in range(3)) if p not in used]
                if not batch:
                    continue
                used |= set(batch)
                base = len(db.store)
                replay.apply("extend", batch)
                live |= set(range(base, base + len(batch)))
            else:
                # Drop one subscription, admit a fresh one into its row.
                sid = rng.choice(sorted(replay.subscriptions))
                replay.unsubscribe(replay.subscriptions[sid])
                x, y = rng.uniform(-0.2, 1.0), rng.uniform(-0.2, 1.0)
                spec = (
                    WindowQuery((x, y, x + 0.25, y + 0.375))
                    if rng.random() < 0.6
                    else KnnQuery((x, y), rng.choice([1, 5, len(live) + 2]))
                )
                replay.subscribe(spec)
            replay.check(f"seed {seed} step {step}")
        stats = replay.registry.stats
        assert stats.evaluations < stats.writes * replay.registry.active

    def test_mbr_hit_outside_the_area_is_evaluated_not_notified(self, db):
        registry = SubscriptionRegistry(db)
        registry.register(AreaQuery(_CHEVRON))
        assert _apply(registry, db, "insert", (0.5, 0.8)) == []
        assert registry.stats.evaluations == 1
        assert _apply(registry, db, "insert", (0.95, 0.5)) == []
        assert registry.stats.evaluations == 1  # outside the MBR: no test
        (_, delta), = _apply(registry, db, "insert", (0.5, 0.2))
        assert delta.added == [len(db.store) - 1]

    def test_edge_points_of_a_window_are_members(self, db):
        registry = SubscriptionRegistry(db)
        registry.register(WindowQuery((0.25, 0.25, 0.5, 0.75)))
        for point in [(0.25, 0.5), (0.5, 0.75), (0.25, 0.25), (0.375, 0.75)]:
            (_, delta), = _apply(registry, db, "insert", point)
            assert delta.added == [len(db.store) - 1]
        assert _apply(registry, db, "insert", (np.nextafter(0.5, 1.0), 0.5)) == []

    def test_long_extend_matches_row_by_row(self, db, monkeypatch):
        """An extend tested a block of points at a time (the block size
        shrunk so its 12 points span four blocks) delivers what the same
        points written one at a time deliver."""
        monkeypatch.setattr(registry_module, "_CELLS", 9)
        rng = random.Random(61)
        specs = [
            WindowQuery((0.1, 0.1, 0.5, 0.5)),
            AreaQuery(_CHEVRON),
            KnnQuery((0.5, 0.5), 5),
        ]
        points = [(rng.random(), rng.random()) for _ in range(12)]
        batch_db = SpatialDatabase.from_points(
            uniform_points(250, seed=23), backend_kind="pure"
        ).prepare()
        batch = SubscriptionRegistry(batch_db)
        single = SubscriptionRegistry(db)
        for spec in specs:
            batch.register(spec)
            single.register(spec)
        events = _apply(batch, batch_db, "extend", points)
        added = {sid: set() for sid in (1, 2, 3)}
        removed = {sid: set() for sid in (1, 2, 3)}
        for point in points:
            for subscription, delta in _apply(single, db, "insert", point):
                added[subscription.sid] |= set(delta.added)
                removed[subscription.sid] |= set(delta.removed)
        for subscription, delta in events:
            sid = subscription.sid
            # Rows both entering and leaving the kNN set net out.
            assert set(delta.added) == added[sid] - removed[sid]
            assert set(delta.removed) == removed[sid] - added[sid]


class TestIncrementalExactness:
    def test_randomized_trace_matches_brute_force(self, db):
        """The core equivalence: replayed deltas == re-execution, for
        every subscription, after every tenth write of a mixed trace."""
        rng = random.Random(47)
        replay = _Replay(db, SubscriptionRegistry(db))
        for _ in range(12):
            x, y = rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.8)
            replay.subscribe(
                WindowQuery((x, y, x + rng.uniform(0.05, 0.2), y + 0.15))
            )
        for _ in range(4):
            replay.subscribe(
                KnnQuery(
                    (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)),
                    rng.randint(3, 9),
                )
            )
        replay.subscribe(AreaQuery(Polygon([(0.1, 0.1), (0.9, 0.2), (0.5, 0.9)])))

        live = set(range(250))
        for step in range(120):
            choice = rng.random()
            if choice < 0.5:
                replay.apply("insert", (rng.random(), rng.random()))
                live.add(len(db.store) - 1)
            elif choice < 0.75 and live:
                victim = rng.choice(sorted(live))
                live.discard(victim)
                replay.apply("delete", victim)
            else:
                count = rng.randint(2, 4)
                base = len(db.store)
                replay.apply(
                    "extend", [(rng.random(), rng.random()) for _ in range(count)]
                )
                live |= set(range(base, base + count))
            if step % 10 == 0 or step == 119:
                replay.check(f"step {step}")

        stats = replay.registry.stats
        assert stats.writes == 120
        # The pruning mechanism: far fewer evaluations than the
        # all-pairs worst case.
        assert stats.evaluations < stats.writes * replay.registry.active * 0.5

    def test_deltas_compose_to_the_new_result(self, db):
        """added/removed applied to the old members give the new members."""
        rng = random.Random(53)
        registry = SubscriptionRegistry(db)
        spec = WindowQuery((0.3, 0.3, 0.6, 0.6))
        subscription, ids = registry.register(spec)
        mirror = set(ids)
        for _ in range(40):
            before = set(mirror)
            events = _apply(
                registry, db, "insert", (rng.random(), rng.random())
            )
            for sub, delta in events:
                assert sub is subscription
                assert not set(delta.added) & before
                assert set(delta.removed) <= before
                mirror -= set(delta.removed)
                mirror |= set(delta.added)
            assert mirror == set(db.query(spec).ids())


class TestPruning:
    def test_thousand_subscriptions_evaluate_under_five_percent(self):
        """Moving objects under 1 100 window and 100 kNN subscriptions:
        the bounds test must keep ``evaluations`` below 5 % of
        ``writes × active``, the all-pairs fan-out a broken filter pays."""
        rng = random.Random(437)
        db = SpatialDatabase.from_points(uniform_points(2_000, seed=431)).prepare()
        replay = _Replay(db, SubscriptionRegistry(db))
        for _ in range(1_100):
            x, y = rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.9)
            side = rng.uniform(0.02, 0.05)
            replay.subscribe(WindowQuery((x, y, x + side, y + side)))
        for _ in range(100):
            focus = (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
            replay.subscribe(KnnQuery(focus, rng.randint(4, 12)))

        objects = uniform_points(40, seed=433)
        base = len(db.store)
        replay.apply("extend", [(p.x, p.y) for p in objects])
        rows = list(range(base, base + len(objects)))
        for index, _, new in moving_object_steps(objects, 120, seed=439):
            replay.apply("delete", rows[index])
            replay.apply("insert", new)
            rows[index] = len(db.store) - 1

        registry = replay.registry
        stats = registry.stats
        assert registry.active == 1_200 and stats.writes == 241
        assert stats.evaluations < 0.05 * stats.writes * registry.active, (
            stats.evaluations
        )
        replay.check("after 241 writes")


class TestKnnEdges:
    def test_underfull_kset_takes_any_insert(self):
        db = SpatialDatabase.from_points(
            uniform_points(3, seed=29), backend_kind="pure"
        ).prepare()
        replay = _Replay(db, SubscriptionRegistry(db))
        subscription = replay.subscribe(KnnQuery((0.5, 0.5), 5))
        assert len(replay.ids[subscription.sid]) == 3
        # A far-away insert still lands in the underfull set...
        events = replay.apply("insert", (0.01, 0.99))
        assert events and events[0][1].added == [3]
        replay.apply("insert", (0.99, 0.01))
        replay.check("full")
        # ...and once full, a farther one is filtered out untested.
        evaluations = replay.registry.stats.evaluations
        assert replay.apply("insert", (-2.0, 3.0)) == []
        assert replay.registry.stats.evaluations == evaluations
        replay.check("filtered")

    def test_member_delete_refills_from_survivors(self, db):
        replay = _Replay(db, SubscriptionRegistry(db))
        subscription = replay.subscribe(KnnQuery((0.5, 0.5), 6))
        ids = [row for _, row in subscription.ordered]
        (_, delta), = replay.apply("delete", ids[2])
        assert delta.removed == [ids[2]]
        assert len(delta.added) == 1
        replay.check("refilled")

    def test_insert_inside_kth_radius_displaces(self, db):
        replay = _Replay(db, SubscriptionRegistry(db))
        subscription = replay.subscribe(KnnQuery((0.5, 0.5), 4))
        kth = subscription.ordered[-1][1]
        (_, delta), = replay.apply("insert", (0.5, 0.5))
        assert delta.added == [len(db.store) - 1]
        assert delta.removed == [kth]
        replay.check("displaced")

    def test_tie_at_the_kth_distance_keeps_the_older_row(self):
        """An insert exactly at the kth distance passes the inclusive
        filter and loses the exact ``(d2, row)`` test: no delta."""
        db = SpatialDatabase.from_points(
            [Point(*p) for p in _LATTICE], backend_kind="pure"
        ).prepare()
        replay = _Replay(db, SubscriptionRegistry(db))
        # (0.5, 0.5) and (0.5, 0.625) tie at d2 = 1/256; the lower row wins.
        subscription = replay.subscribe(KnnQuery((0.5, 0.5625), 1))
        stats = replay.registry.stats
        evaluations = stats.evaluations
        assert replay.apply("insert", (0.5625, 0.5625)) == []  # a third tie
        assert replay.apply("insert", (0.4375, 0.5625)) == []  # and a fourth
        assert stats.evaluations == evaluations + 2
        assert replay.apply("insert", (0.5, 0.75)) == []  # beyond: untested
        assert stats.evaluations == evaluations + 2
        assert subscription.ordered == [(1 / 256, _LATTICE.index((0.5, 0.5)))]
        replay.check("ties")


class TestTombstoneReinsertion:
    def test_reinsert_on_tombstone_is_a_single_added_delta(self, db):
        """Deleting a member then inserting its exact position again is
        one removed delta and one added delta for the *new* row — never
        a remove+add churn inside a single write."""
        replay = _Replay(db, SubscriptionRegistry(db))
        subscription = replay.subscribe(WindowQuery((0.2, 0.2, 0.8, 0.8)))
        victim = min(replay.ids[subscription.sid])
        x, y = db.store.coords(victim)

        (_, delta), = replay.apply("delete", victim)
        assert delta.added == [] and delta.removed == [victim]

        (_, delta), = replay.apply("insert", (x, y))
        new_row = len(db.store) - 1
        assert delta.added == [new_row] and delta.removed == []
        assert victim not in replay.ids[subscription.sid]
        replay.check("reinserted")

    def test_delete_of_a_row_the_snapshot_cannot_see_is_ignored(self, db):
        registry = SubscriptionRegistry(db)
        registry.register(WindowQuery((0.0, 0.0, 1.0, 1.0)))
        pre = db.store.snapshot()
        row = db.insert(Point(0.5, 0.5))
        db.delete(row)
        events = registry.apply_write("delete", [row], [(0.5, 0.5)], pre=pre)
        assert events == []
