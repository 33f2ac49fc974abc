"""The ``stats`` frame keeps every v1 counter key, retired ones included.

The engine no longer shares work between queries (no shared window
frontier, no seed-walk reuse), and the coalescer no longer holds reads
for an admission window (no window timer, no group commit).  The v1
stats frame still documents the counters that measured those mechanisms
and perfbench's served runs index some of them, so they must stay on
the wire as constant zeros, in a served frame and in a cluster-merged
one.
"""

import pytest

from repro.cluster import ClusterCoordinator, RemoteShard
from repro.core.database import SpatialDatabase
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.query.spec import AreaQuery, KnnQuery, UnionQuery, WindowQuery
from repro.server import QueryClient, ServerThread
from repro.server.protocol import validate_frame
from repro.workloads.generators import uniform_points

#: Written out rather than imported, so dropping one from a section
#: fails here: frame section -> its retired, always-zero counters.
RETIRED_KEYS = {
    "engine": (
        "shared_window_groups",
        "shared_window_queries",
        "seed_walk_reuses",
        "seed_index_lookups",
    ),
    "coalescer": ("complete_flushes", "window_flushes"),
}

#: Live coalescer counters that perfbench divides by.
COALESCER_DENOMINATORS = ("requests", "batches", "multi_client_batches")

#: Reads that the retired mechanisms used to count: near-coincident
#: windows, neighbouring Voronoi areas and kNN, and a composite.
READS = [
    WindowQuery((0.30, 0.30, 0.50, 0.50)),
    WindowQuery((0.31, 0.30, 0.50, 0.49)),
    AreaQuery(Circle(Point(0.40, 0.40), 0.05), method="voronoi"),
    AreaQuery(Circle(Point(0.42, 0.41), 0.05), method="voronoi"),
    KnnQuery(Point(0.45, 0.45), 5, method="voronoi"),
    KnnQuery(Point(0.46, 0.45), 5, method="voronoi"),
    UnionQuery(
        (
            AreaQuery(Circle(Point(0.6, 0.6), 0.04), method="voronoi"),
            AreaQuery(Circle(Point(0.62, 0.6), 0.04), method="voronoi"),
        )
    ),
]


def assert_retired_keys_are_zero(frame):
    validate_frame(frame)
    assert frame["engine"]["total_queries"] >= len(READS)
    for key in COALESCER_DENOMINATORS:
        assert key in frame["coalescer"], key
    assert frame["coalescer"]["requests"] >= len(READS)
    for section, keys in RETIRED_KEYS.items():
        for key in keys:
            assert key in frame[section], (section, key)
            assert frame[section][key] == 0, (section, key)


def test_served_frame_keeps_the_retired_keys():
    db = SpatialDatabase.from_points(uniform_points(800, seed=5)).prepare()
    with ServerThread(db) as server:
        with QueryClient(server.host, server.port) as client:
            for spec in READS:
                client.query(spec)
            assert_retired_keys_are_zero(client.stats())


@pytest.fixture()
def workers():
    threads = [ServerThread(SpatialDatabase()) for _ in range(2)]
    yield threads
    for thread in threads:
        thread.close()


def test_cluster_merged_frame_keeps_the_retired_keys(workers):
    shards = [RemoteShard(thread.host, thread.port) for thread in workers]
    coordinator = ClusterCoordinator(shards)
    try:
        coordinator.extend(
            [(p.x, p.y) for p in uniform_points(800, seed=6)]
        )
        for spec in READS:
            coordinator.query(spec)
        assert_retired_keys_are_zero(coordinator.stats_frame())
    finally:
        coordinator.close()
