"""Registry-level tests: admission rules and incremental exactness.

The heart of the subsystem's correctness claim: a subscription's
maintained membership after any sequence of writes equals a brute-force
re-execution of its spec on the post-write database — verified here
with a randomized mixed-write trace over region and kNN subscriptions,
plus targeted edge cases (underfull k-sets, tombstone reinsertion,
idempotent unregister).
"""

import random

import pytest

from repro.core.database import SpatialDatabase
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.query.spec import (
    AreaQuery,
    KnnQuery,
    NearestQuery,
    UnionQuery,
    WindowQuery,
)
from repro.live.registry import SubscriptionRegistry
from repro.workloads.generators import moving_object_steps, uniform_points


@pytest.fixture()
def db():
    """A small mutable database (pure backend: incremental writes)."""
    return SpatialDatabase.from_points(
        uniform_points(250, seed=23), backend_kind="pure"
    ).prepare()


def _apply(registry, db, op, payload):
    """Apply one write to the database, then fan it out post-write."""
    pre = db.store.snapshot()
    if op == "insert":
        row = db.insert(Point(*payload))
        rows, coords = [row], [payload]
    elif op == "extend":
        rows = list(db.extend([Point(x, y) for x, y in payload]))
        coords = list(payload)
    else:  # delete
        coords = [db.store.coords(payload)]
        db.delete(payload)
        rows = [payload]
    return registry.apply_write(op, rows, coords, pre=pre)


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
        assert subscription.members == set(ids)
        assert registry.active == 1

    def test_unregister_is_idempotent(self, db):
        registry = SubscriptionRegistry(db)
        subscription, _ = registry.register(WindowQuery((0, 0, 1, 1)))
        assert registry.unregister(subscription) is True
        assert registry.unregister(subscription) is False
        assert registry.active == 0


class TestIncrementalExactness:
    def test_randomized_trace_matches_brute_force(self, db):
        """The core equivalence: maintained state == re-execution, for
        every subscription, after every single write of a mixed trace."""
        rng = random.Random(47)
        registry = SubscriptionRegistry(db)
        specs = []
        for _ in range(12):
            x, y = rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.8)
            specs.append(
                WindowQuery((x, y, x + rng.uniform(0.05, 0.2), y + 0.15))
            )
        for _ in range(4):
            specs.append(
                KnnQuery(
                    (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)),
                    rng.randint(3, 9),
                )
            )
        specs.append(
            AreaQuery(Polygon([(0.1, 0.1), (0.9, 0.2), (0.5, 0.9)]))
        )
        subscriptions = [registry.register(spec)[0] for spec in specs]

        live = set(range(250))
        for step in range(120):
            choice = rng.random()
            if choice < 0.5:
                _apply(
                    registry,
                    db,
                    "insert",
                    (rng.random(), rng.random()),
                )
                live.add(len(db.store) - 1)
            elif choice < 0.75 and live:
                victim = rng.choice(sorted(live))
                live.discard(victim)
                _apply(registry, db, "delete", victim)
            else:
                count = rng.randint(2, 4)
                base = len(db.store)
                _apply(
                    registry,
                    db,
                    "extend",
                    [(rng.random(), rng.random()) for _ in range(count)],
                )
                live |= set(range(base, base + count))
            if step % 10 == 0 or step == 119:
                for spec, subscription in zip(specs, subscriptions):
                    expected = db.query(spec).ids()
                    assert subscription.members == set(expected), (
                        f"step {step}: {spec.describe()} drifted"
                    )
                    if subscription.kind == "knn":
                        # Rank order too, not just the set.
                        ranked = [row for _, row in subscription.ordered]
                        assert ranked == expected

        stats = registry.stats
        assert stats.writes == 120
        # The pruning mechanism: far fewer evaluations than the
        # all-pairs worst case.
        assert stats.evaluations < stats.writes * registry.active * 0.5

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
        the dirty-tile index must keep ``evaluations`` below 5 % of
        ``writes × active``, the all-pairs fan-out a broken index pays."""
        rng = random.Random(437)
        db = SpatialDatabase.from_points(uniform_points(2_000, seed=431)).prepare()
        registry = SubscriptionRegistry(db)
        specs = []
        for _ in range(1_100):
            x, y = rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.9)
            side = rng.uniform(0.02, 0.05)
            specs.append(WindowQuery((x, y, x + side, y + side)))
        for _ in range(100):
            focus = (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
            specs.append(KnnQuery(focus, rng.randint(4, 12)))
        subscriptions = [registry.register(spec)[0] for spec in specs]

        objects = uniform_points(40, seed=433)
        base = len(db.store)
        _apply(registry, db, "extend", [(p.x, p.y) for p in objects])
        rows = list(range(base, base + len(objects)))
        for index, _, new in moving_object_steps(objects, 120, seed=439):
            _apply(registry, db, "delete", rows[index])
            _apply(registry, db, "insert", new)
            rows[index] = len(db.store) - 1

        stats = registry.stats
        assert registry.active == 1_200 and stats.writes == 241
        assert stats.evaluations < 0.05 * stats.writes * registry.active, (
            stats.evaluations
        )
        for spec, subscription in list(zip(specs, subscriptions))[::50]:
            assert subscription.members == set(db.query(spec).ids())


class TestKnnEdges:
    def test_underfull_kset_sits_in_unbounded_bucket(self):
        db = SpatialDatabase.from_points(
            uniform_points(3, seed=29), backend_kind="pure"
        ).prepare()
        registry = SubscriptionRegistry(db)
        subscription, ids = registry.register(KnnQuery((0.5, 0.5), 5))
        assert len(ids) == 3
        assert subscription.tiles is None  # any insert anywhere may join
        # A far-away insert still lands in the underfull set...
        events = _apply(registry, db, "insert", (0.01, 0.99))
        assert events and events[0][1].added == [3]
        _apply(registry, db, "insert", (0.99, 0.01))
        # ...and once full, the subscription re-indexes under tiles.
        assert len(subscription.members) == 5
        assert subscription.tiles is not None

    def test_member_delete_refills_from_survivors(self, db):
        registry = SubscriptionRegistry(db)
        spec = KnnQuery((0.5, 0.5), 6)
        subscription, ids = registry.register(spec)
        events = _apply(registry, db, "delete", ids[2])
        (_, delta), = events
        assert delta.removed == [ids[2]]
        assert len(delta.added) == 1
        assert subscription.members == set(db.query(spec).ids())

    def test_insert_inside_kth_radius_displaces(self, db):
        registry = SubscriptionRegistry(db)
        spec = KnnQuery((0.5, 0.5), 4)
        subscription, ids = registry.register(spec)
        events = _apply(registry, db, "insert", (0.5, 0.5))
        (_, delta), = events
        assert delta.added == [len(db.store) - 1]
        assert delta.removed == [ids[-1]]
        assert subscription.members == set(db.query(spec).ids())


class TestTombstoneReinsertion:
    def test_reinsert_on_tombstone_is_a_single_added_delta(self, db):
        """Deleting a member then inserting its exact position again is
        one removed delta and one added delta for the *new* row — never
        a remove+add churn inside a single write."""
        registry = SubscriptionRegistry(db)
        spec = WindowQuery((0.2, 0.2, 0.8, 0.8))
        subscription, ids = registry.register(spec)
        victim = ids[0]
        x, y = db.store.coords(victim)

        events = _apply(registry, db, "delete", victim)
        (_, delta), = events
        assert delta.added == [] and delta.removed == [victim]

        events = _apply(registry, db, "insert", (x, y))
        (_, delta), = events
        new_row = len(db.store) - 1
        assert delta.added == [new_row] and delta.removed == []
        assert victim not in subscription.members
        assert subscription.members == set(db.query(spec).ids())
