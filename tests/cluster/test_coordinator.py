"""Cluster-vs-oracle equivalence: the coordinator over local shards.

Every test compares :class:`ClusterCoordinator` results bit-for-bit
against a single-process :class:`SpatialDatabase` oracle running the
identical trace — same specs, same write order, same row ids.  The
coordinator runs over in-process :class:`LocalShard` backends so the
routing/merge logic is exercised without socket noise; the wire path
gets its own suite in ``test_router.py``.
"""

import os
import random
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, ClusterWriteError, LocalShard
from repro.cluster import coordinator as coordinator_module
from repro.cluster.backends import ShardBackend
from repro.cluster.shardmap import ShardMap
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
import repro

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
        composites carrying a predicate and a limit at every level, on a
        leaf repeated within one composite, and on a predicate-carrying
        composite nested in another."""
        coordinator, oracle = pair
        left = lambda p: p.x < 0.6  # noqa: E731
        low = lambda p: p.y < 0.7  # noqa: E731
        window = WindowQuery((0.1, 0.1, 0.6, 0.6), predicate=low, limit=50)
        disc = AreaQuery(
            Circle(Point(0.5, 0.5), 0.3), predicate=left, limit=80
        )
        upper = WindowQuery((0.3, 0.3, 0.9, 0.9), limit=60)
        nested = DifferenceQuery(
            (
                UnionQuery((window, disc), predicate=low, limit=70),
                IntersectionQuery(
                    (upper, disc),
                    predicate=left,
                    limit=20,
                ),
            ),
            predicate=left,
            limit=40,
        )
        repeated = UnionQuery((upper, disc, upper), limit=90)
        predicated = IntersectionQuery(
            (UnionQuery((upper, window), predicate=left), upper)
        )
        for spec in (nested, repeated, predicated):
            eager = oracle.query(spec).ids()
            assert eager
            assert list(oracle.query(spec).stream()) == eager
            assert (
                oracle.query_batch([spec], use_cache=False)[0].ids() == eager
            )
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


class CountingShard(LocalShard):
    """A local shard that counts the eager ``query_ids`` calls it serves."""

    def __init__(self, database):
        super().__init__(database)
        self.calls = 0

    def query_ids(self, spec):
        self.calls += 1
        return super().query_ids(spec)


#: Two windows that each straddle both halves of a two-shard curve.
W_LOW = WindowQuery((0.1, 0.1, 0.9, 0.5))
W_HIGH = WindowQuery((0.1, 0.5, 0.9, 0.9))


def counting_cluster():
    """A two-shard coordinator over counting shards, loaded, counts zeroed."""
    shards = [CountingShard(SpatialDatabase()) for _ in range(2)]
    coordinator = ClusterCoordinator(shards)
    coordinator.extend([(p.x, p.y) for p in uniform_points(200, seed=13)])
    for shard in shards:
        shard.calls = 0
    return coordinator, shards


class TestOneJobPerLeaf:
    def test_repeated_leaf_fans_out_once(self):
        """A leaf repeated inside a composite is one job, as in the
        engine: the same shard calls as the composite without it."""
        coordinator, shards = counting_cluster()
        once = coordinator.query(UnionQuery((W_LOW, W_HIGH)))
        distinct = sum(shard.calls for shard in shards)
        assert distinct == 4  # both windows touch both shards
        for shard in shards:
            shard.calls = 0
        twice = coordinator.query(UnionQuery((W_LOW, W_LOW, W_HIGH)))
        assert sum(shard.calls for shard in shards) == distinct
        assert twice == once


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

    def test_zero_area_leaf_fails_before_any_shard_call(self):
        coordinator, shards = counting_cluster()
        degenerate = AreaQuery(
            Polygon([(0, 0), (1, 1), (0.5, 0.5), (0.2, 0.2)])
        )
        with pytest.raises(InvalidQueryAreaError):
            coordinator.query(UnionQuery((W_LOW, degenerate)))
        assert sum(shard.calls for shard in shards) == 0

    def test_write_errors(self, pair):
        coordinator, _ = pair
        with pytest.raises(ClusterWriteError):
            coordinator.delete(10**9)

    def test_a_batch_past_the_catalog_limit_fails_before_any_shard_call(
        self, monkeypatch
    ):
        """Results hold int32 ids, so the catalog stops at 2^31 - 1 rows;
        here the limit is 12 and the cluster holds 10."""
        calls = []

        class Recording(LocalShard):
            def extend(self, points):
                calls.append(len(points))
                return super().extend(points)

        coordinator = ClusterCoordinator(
            [Recording(SpatialDatabase()) for _ in range(2)],
            replicas=[Recording(SpatialDatabase()) for _ in range(2)],
        )
        coordinator.extend([(p.x, p.y) for p in uniform_points(10, seed=17)])
        monkeypatch.setattr(coordinator_module, "_CATALOG_ROWS", 12)
        calls.clear()
        batch = [(0.1, 0.1), (0.9, 0.9), (0.5, 0.5)]
        with pytest.raises(ClusterWriteError, match="catalog"):
            coordinator.extend(batch)
        assert calls == []
        assert coordinator.total_live == 10
        assert coordinator.extend(batch[:2]) == [10, 11]  # up to the limit
        calls.clear()
        with pytest.raises(ClusterWriteError, match="catalog"):
            coordinator.insert(0.3, 0.3)
        assert calls == []
        assert coordinator.query(WindowQuery((0, 0, 1, 1))) == list(range(12))


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


class TamperedShard(LocalShard):
    """A local shard whose eager answers carry extra local ids, and that
    can be marked down (its reads and writes then fail as transport
    errors do)."""

    def __init__(self, database):
        super().__init__(database)
        self.extra = []
        self.down = False

    def query_ids(self, spec):
        if self.down:
            raise ConnectionError("worker down")
        return super().query_ids(spec) + self.extra

    def extend(self, points):
        if self.down:
            raise ConnectionError("worker down")
        return super().extend(points)


class _Sink(ShardBackend):
    """A shard that stores nothing: it hands out sequential local ids."""

    def __init__(self):
        self.rows = 0

    def extend(self, points):
        first, self.rows = self.rows, self.rows + len(points)
        return list(range(first, self.rows))


class TestArrayCatalog:
    """The catalog keeps one int64 local-to-global array per copy (-1: no
    row); what a copy answers is translated through it and owner-checked."""

    def test_shard_answers_contribute_only_rows_their_worker_owns(self):
        points = [(p.x, p.y) for p in uniform_points(400, seed=41)]
        shard_map = ShardMap.even(2).with_replicas({0: 0, 1: 0})
        # one writer per load, so the shared replica takes one batch at a time
        points.sort(key=lambda xy: shard_map.owner_of(*xy))
        primaries = [TamperedShard(SpatialDatabase()) for _ in range(2)]
        replica = TamperedShard(SpatialDatabase())
        coordinator = ClusterCoordinator(
            primaries, replicas=[replica], shard_map=shard_map,
            auto_rebalance=False,
        )
        split = sum(shard_map.owner_of(*xy) == 0 for xy in points)
        assert 0 < split < len(points)
        coordinator.extend(points[:split])
        coordinator.extend(points[split:])
        oracle = SpatialDatabase.from_points([Point(*xy) for xy in points])
        # worker 0 gave global row 0 local id 0; deleting it leaves local 0
        # unknown to worker 0's map
        coordinator.delete(0)
        oracle.delete(0)
        primaries[0].extra = [0, 10**6]  # unknown, and past the map's end
        replica.extra = [10**6]
        specs = [
            WindowQuery((0.3, 0.2, 0.7, 0.8)),
            WindowQuery((0.0, 0.0, 1.0, 1.0)),
            KnnQuery(Point(0.49, 0.5), 40),
            KnnQuery(Point(0.1, 0.1), 5),
        ]
        for spec in specs:
            assert_same(coordinator, oracle, spec)
        # Worker 0 answers from the replica it shares with worker 1: the
        # replica's answers hold worker 1's rows too, which worker 1
        # contributes itself, so a kNN would list them twice if kept.
        primaries[0].down = True
        for spec in specs:
            assert_same(coordinator, oracle, spec)

    def test_stream_yields_a_row_deleted_after_it_opened(self):
        points = [(p.x, p.y) for p in uniform_points(300, seed=43)]
        coordinator, oracle = build_pair(points, workers=2)
        focus = Point(0.5, 0.5)
        expected = oracle.query(KnnQuery(focus, 20)).ids()
        stream = coordinator.stream(KnnQuery(focus, None))
        try:
            got = [next(stream) for _ in range(5)]
            coordinator.delete(expected[10])  # not yet yielded
            got += [next(stream) for _ in range(15)]
        finally:
            stream.close()
        assert got == expected
        oracle.delete(expected[10])
        assert_same(coordinator, oracle, KnnQuery(focus, 20))

    def test_failed_second_shard_leaves_the_catalog_as_it_was(self):
        points = [(p.x, p.y) for p in uniform_points(300, seed=47)]
        shards = [TamperedShard(SpatialDatabase()) for _ in range(2)]
        coordinator = ClusterCoordinator(shards, auto_rebalance=False)
        coordinator.extend(points)
        oracle = SpatialDatabase.from_points([Point(*xy) for xy in points])
        shard_map = coordinator.shard_map
        batch = [(0.1, 0.1), (0.2, 0.3), (0.9, 0.1), (0.8, 0.2)]
        assert [shard_map.owner_of(*xy) for xy in batch] == [0, 0, 1, 1]
        shards[1].down = True
        with pytest.raises(ConnectionError):
            coordinator.extend(batch)
        shards[1].down = False
        assert coordinator.total_live == len(oracle) == len(points)
        for spec in (
            WindowQuery((0.0, 0.0, 1.0, 1.0)),
            WindowQuery((0.05, 0.05, 0.35, 0.35)),
            KnnQuery(Point(0.15, 0.2), 12),
            KnnQuery(Point(0.85, 0.15), 12),
        ):
            assert_same(coordinator, oracle, spec)
        assert coordinator.extend(batch) == oracle.extend(
            [Point(*xy) for xy in batch]
        )
        assert_same(coordinator, oracle, WindowQuery((0.0, 0.0, 1.0, 1.0)))

    def test_catalog_keeps_at_most_64_bytes_a_row(self):
        """Over a 16 000-point extend the catalog keeps its columns and one
        map entry per row, not a Python object per row.  Counted: what was
        allocated under ``coordinator.py`` and is still held."""
        xy = np.random.default_rng(5).random((16_100, 2))
        coordinator = ClusterCoordinator([_Sink(), _Sink()])
        coordinator.extend(xy[:100])  # warm: first-call allocations
        own = [
            tracemalloc.Filter(True, coordinator_module.__file__, all_frames=True)
        ]
        tracemalloc.start(8)
        try:
            before = tracemalloc.take_snapshot().filter_traces(own)
            coordinator.extend(xy[100:])
            after = tracemalloc.take_snapshot().filter_traces(own)
        finally:
            tracemalloc.stop()
        kept = sum(s.size_diff for s in after.compare_to(before, "filename"))
        assert coordinator.total_live == len(xy)
        assert kept / 16_000 <= 64, kept / 16_000


#: Region reads and composites through the router over two shards, in a
#: fresh interpreter; prints whether ``numpy.ma`` got imported.
_READS_WITHOUT_MA = textwrap.dedent(
    """
    import sys

    from repro.cluster import ClusterCoordinator, LocalShard
    from repro.core.database import SpatialDatabase
    from repro.geometry.circle import Circle
    from repro.geometry.point import Point
    from repro.query.spec import (
        AreaQuery, DifferenceQuery, IntersectionQuery, UnionQuery, WindowQuery,
    )

    coordinator = ClusterCoordinator([LocalShard(SpatialDatabase()) for _ in range(2)])
    coordinator.extend([(i * 37 % 101 / 101, i * 61 % 103 / 103) for i in range(400)])
    window = WindowQuery((0.1, 0.1, 0.6, 0.6))
    disc = AreaQuery(Circle(Point(0.5, 0.5), 0.3))
    for spec in (
        window,
        disc,
        UnionQuery((window, disc)),
        IntersectionQuery((window, disc)),
        DifferenceQuery((window, disc)),
    ):
        assert coordinator.query(spec)
    print("numpy.ma" in sys.modules)
    """
)


class TestServedProcessesImportNoNumpyMa:
    def test_region_reads_and_composites_import_no_numpy_ma(self):
        """numpy 2.4's ``np.unique`` imports ``numpy.ma`` (about 0.9 MiB)
        on its first call; the router's region merge and the composite
        merge use a sort and an adjacent difference instead."""
        source = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=source)
        result = subprocess.run(
            [sys.executable, "-c", _READS_WITHOUT_MA],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False"]
