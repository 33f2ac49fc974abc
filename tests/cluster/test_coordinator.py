"""Cluster-vs-oracle equivalence: the coordinator over local shards.

Every test compares :class:`ClusterCoordinator` results bit-for-bit
against a single-process :class:`SpatialDatabase` oracle running the
identical trace — same specs, same write order, same row ids.  The
coordinator runs over in-process :class:`LocalShard` backends so the
routing/merge logic is exercised without socket noise; the wire path
gets its own suite in ``test_router.py``.
"""

import random

import pytest

from repro.cluster import ClusterCoordinator, ClusterWriteError, LocalShard
from repro.core.database import SpatialDatabase
from repro.core.exceptions import EmptyDatabaseError, InvalidQueryAreaError
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.query.spec import (
    AreaQuery,
    DifferenceQuery,
    IntersectionQuery,
    KnnQuery,
    NearestQuery,
    UnionQuery,
    WindowQuery,
)
from repro.workloads import make_query_areas, uniform_points

N_POINTS = 600


def build_pair(points, workers=4, **options):
    """A (coordinator, oracle) pair loaded with the same rows."""
    oracle = SpatialDatabase.from_points([Point(x, y) for x, y in points])
    coordinator = ClusterCoordinator(
        [LocalShard(SpatialDatabase()) for _ in range(workers)], **options
    )
    gids = coordinator.extend(points)
    assert gids == list(range(len(points)))
    return coordinator, oracle


@pytest.fixture(scope="module")
def pair():
    points = [(p.x, p.y) for p in uniform_points(N_POINTS, seed=11)]
    return build_pair(points)


def assert_same(coordinator, oracle, spec):
    assert coordinator.query(spec) == oracle.query(spec).ids()


class TestReadEquivalence:
    def test_region_kinds(self, pair):
        coordinator, oracle = pair
        rng = random.Random(5)
        for index in range(25):
            area = make_query_areas(0.02, 1, seed=100 + index)[0]
            assert_same(coordinator, oracle, AreaQuery(area))
            x0, y0 = rng.random() * 0.8, rng.random() * 0.8
            rect = (x0, y0, x0 + rng.random() * 0.2, y0 + rng.random() * 0.2)
            assert_same(coordinator, oracle, WindowQuery(rect))

    def test_point_kinds(self, pair):
        coordinator, oracle = pair
        rng = random.Random(6)
        for _ in range(25):
            seed = Point(rng.random(), rng.random())
            assert_same(coordinator, oracle, KnnQuery(seed, rng.randrange(20)))
            assert_same(coordinator, oracle, NearestQuery(seed))

    def test_knn_edge_shapes(self, pair):
        coordinator, oracle = pair
        center = Point(0.5, 0.5)
        assert_same(coordinator, oracle, KnnQuery(center, None))
        assert_same(coordinator, oracle, KnnQuery(center, None, limit=17))
        assert_same(coordinator, oracle, KnnQuery(center, 10 * N_POINTS))
        assert_same(coordinator, oracle, KnnQuery(center, 0))

    def test_composites_and_options(self, pair):
        coordinator, oracle = pair
        window = WindowQuery((0.1, 0.1, 0.6, 0.6))
        disc = AreaQuery(Circle(Point(0.5, 0.5), 0.3))
        capped = WindowQuery((0.4, 0.4, 0.9, 0.9), limit=40)
        inside = lambda p: p.x + p.y < 1.0  # noqa: E731
        for spec in (
            UnionQuery((window, disc)),
            IntersectionQuery((window, disc)),
            DifferenceQuery((window, disc, capped)),
            UnionQuery((IntersectionQuery((window, disc)), capped), limit=25),
            WindowQuery((0, 0, 1, 1), predicate=inside, limit=30),
            KnnQuery(Point(0.7, 0.7), 12, predicate=inside),
            NearestQuery(Point(0.9, 0.9), predicate=inside),
            UnionQuery((window, disc), predicate=inside),
        ):
            assert_same(coordinator, oracle, spec)

    def test_nested_composites_agree_on_every_surface(self, pair):
        """Stream, eager, batch and cluster answers are one list on nested
        composites carrying a predicate and a limit at every level."""
        coordinator, oracle = pair
        left = lambda p: p.x < 0.6  # noqa: E731
        low = lambda p: p.y < 0.7  # noqa: E731
        window = WindowQuery((0.1, 0.1, 0.6, 0.6), predicate=low, limit=50)
        disc = AreaQuery(
            Circle(Point(0.5, 0.5), 0.3), predicate=left, limit=80
        )
        spec = DifferenceQuery(
            (
                UnionQuery((window, disc), predicate=low, limit=70),
                IntersectionQuery(
                    (WindowQuery((0.3, 0.3, 0.9, 0.9), limit=60), disc),
                    predicate=left,
                    limit=20,
                ),
            ),
            predicate=left,
            limit=40,
        )
        eager = oracle.query(spec).ids()
        assert eager
        assert list(oracle.query(spec).stream()) == eager
        assert oracle.query_batch([spec], use_cache=False)[0].ids() == eager
        assert coordinator.query(spec) == eager
        stream = coordinator.stream(spec)
        try:
            assert list(stream) == eager
        finally:
            stream.close()

    def test_streaming_first_n(self, pair):
        coordinator, oracle = pair
        spec = KnnQuery(Point(0.33, 0.44), None)
        stream = coordinator.stream(spec)
        try:
            got = [next(stream) for _ in range(15)]
        finally:
            stream.close()
        assert got == oracle.query(spec).first(15)

        union = UnionQuery(
            (
                WindowQuery((0.1, 0.1, 0.5, 0.5)),
                AreaQuery(Circle(Point(0.5, 0.5), 0.25)),
            )
        )
        stream = coordinator.stream(union)
        try:
            got = [next(stream) for _ in range(10)]
        finally:
            stream.close()
        assert got == oracle.query(union).first(10)


class TestValidationParity:
    def test_area_on_empty_cluster(self):
        coordinator = ClusterCoordinator(
            [LocalShard(SpatialDatabase()) for _ in range(2)]
        )
        area = make_query_areas(0.02, 1, seed=3)[0]
        with pytest.raises(EmptyDatabaseError):
            coordinator.query(AreaQuery(area))

    def test_zero_area_region(self, pair):
        coordinator, _ = pair
        with pytest.raises(InvalidQueryAreaError):
            coordinator.query(
                AreaQuery(Polygon([(0, 0), (1, 1), (0.5, 0.5), (0.2, 0.2)]))
            )

    def test_write_errors(self, pair):
        coordinator, _ = pair
        with pytest.raises(ClusterWriteError):
            coordinator.delete(10**9)


class TestWritesAndRebalance:
    def test_interleaved_trace_with_mid_trace_rebalance(self):
        points = [(p.x, p.y) for p in uniform_points(400, seed=21)]
        coordinator, oracle = build_pair(points, min_split=32)
        rng = random.Random(9)
        live = set(range(len(points)))
        for step in range(260):
            if step % 7 == 3 and len(live) > 10:
                victim = rng.choice(sorted(live))
                coordinator.delete(victim)
                oracle.delete(victim)
                live.discard(victim)
            else:
                # skewed inserts pile onto one corner to force imbalance
                x, y = rng.random() * 0.15, rng.random() * 0.15
                assert coordinator.insert(x, y) == oracle.insert(Point(x, y))
            if step == 130:
                # an explicit mid-trace split, whatever the natural
                # trigger has done so far
                assert coordinator.rebalance_once(force=True)
        batch = [(rng.random(), rng.random()) for _ in range(60)]
        assert coordinator.extend(batch) == oracle.extend(
            [Point(x, y) for x, y in batch]
        )
        assert coordinator.rebalances >= 1
        assert coordinator.total_live == len(oracle)

        inside = lambda p: p.x < 0.5  # noqa: E731
        for index in range(15):
            area = make_query_areas(0.03, 1, seed=500 + index)[0]
            assert_same(coordinator, oracle, AreaQuery(area))
            seed = Point(rng.random() * 0.3, rng.random() * 0.3)
            assert_same(coordinator, oracle, KnnQuery(seed, 15))
            assert_same(coordinator, oracle, NearestQuery(seed))
        assert_same(coordinator, oracle, WindowQuery((0, 0, 0.2, 0.2)))
        assert_same(
            coordinator, oracle, KnnQuery(Point(0.1, 0.1), None, limit=50)
        )
        assert_same(
            coordinator,
            oracle,
            UnionQuery(
                (
                    WindowQuery((0, 0, 0.3, 0.3)),
                    AreaQuery(Circle(Point(0.5, 0.5), 0.25)),
                ),
                predicate=inside,
            ),
        )

    def test_natural_rebalance_triggers_on_skew(self):
        coordinator = ClusterCoordinator(
            [LocalShard(SpatialDatabase()) for _ in range(2)],
            min_split=16,
            imbalance_ratio=1.5,
        )
        rng = random.Random(4)
        # every insert lands in worker 0's corner of the curve
        for _ in range(200):
            coordinator.insert(rng.random() * 0.1, rng.random() * 0.1)
        assert coordinator.rebalances >= 1
        counts = coordinator.live_counts
        assert max(counts) < 200  # the hot shard actually shed rows

    def test_delete_then_stream_keeps_snapshot_predicates(self, pair):
        coordinator, oracle = pair
        # a predicate evaluated mid-stream must address rows deleted
        # after stream admission (tombstone addressability)
        gid = coordinator.insert(0.999, 0.001)
        assert gid == oracle.insert(Point(0.999, 0.001))
        spec = KnnQuery(Point(0.999, 0.001), None, predicate=lambda p: True)
        stream = coordinator.stream(spec)
        try:
            first = next(stream)
            coordinator.delete(gid)
            oracle.delete(gid)
            rest = [next(stream) for _ in range(5)]
        finally:
            stream.close()
        assert first == gid
        assert len(rest) == 5


class TestRestore:
    def test_export_restore_round_trip_continues_ids(self):
        points = [(p.x, p.y) for p in uniform_points(300, seed=31)]
        coordinator, _ = build_pair(points, min_split=32)
        rng = random.Random(2)
        for _ in range(40):
            coordinator.insert(rng.random() * 0.1, rng.random() * 0.1)
        coordinator.delete(5)
        state = coordinator.export_state()

        restored = ClusterCoordinator.restore(
            [LocalShard(SpatialDatabase()) for _ in range(4)], state
        )
        assert restored.total_live == coordinator.total_live
        for index in range(10):
            area = make_query_areas(0.03, 1, seed=900 + index)[0]
            assert restored.query(AreaQuery(area)) == coordinator.query(
                AreaQuery(area)
            )
        # id sequence continues past the snapshot (holes stay holes)
        assert restored.insert(0.77, 0.88) == coordinator.insert(0.77, 0.88)
