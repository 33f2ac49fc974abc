"""Batch engine correctness: batching must never change any answer.

The anchor property is id-identity: for every region mix, every method
(fixed or planned), and intra-batch dedup, ``query_batch`` returns
exactly the ids the one-query-at-a-time loop returns, in submission
order.
"""

import pytest

from repro import SpatialDatabase
from repro.core.exceptions import EmptyDatabaseError, InvalidQueryAreaError
from repro.engine.order import hilbert_index
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.workloads.generators import uniform_points
from repro.workloads.queries import QueryWorkload
from repro.query.spec import AreaQuery


@pytest.fixture(scope="module")
def db():
    """1k uniform points, prepared, shared by the whole module."""
    return SpatialDatabase.from_points(
        uniform_points(1_000, seed=3)
    ).prepare()


@pytest.fixture(scope="module")
def mixed_regions():
    """Stars, rectangles, and a circle — every QueryRegion flavour."""
    regions = QueryWorkload(query_size=0.03, seed=21).areas(12)
    regions += QueryWorkload(
        query_size=0.05, shape="rectangle", seed=22
    ).areas(4)
    regions.append(Circle(Point(0.4, 0.6), 0.1))
    return regions


def area_specs(regions, method="auto"):
    return [AreaQuery(region, method=method) for region in regions]


@pytest.mark.parametrize("method", AreaQuery.methods)
def test_batch_ids_identical_to_loop(db, mixed_regions, method):
    loop = [
        db.query(AreaQuery(region, method="voronoi")).ids()
        for region in mixed_regions
    ]
    batch = db.query_batch(area_specs(mixed_regions, method), use_cache=False)
    assert len(batch) == len(mixed_regions)
    assert [result.ids() for result in batch] == loop


def test_batch_handles_duplicates_once(db, mixed_regions):
    trace = mixed_regions + mixed_regions + mixed_regions[:3]
    batch = db.query_batch(area_specs(trace, "voronoi"), use_cache=False)
    assert [r.ids() for r in batch] == [
        db.query(AreaQuery(region, method="voronoi")).ids() for region in trace
    ]
    assert batch.stats.duplicate_hits == len(mixed_regions) + 3
    assert batch.stats.executed == len(mixed_regions)


def test_batch_stats_record_sharing(db):
    # Overlapping rectangle windows at one hotspot: each runs once.
    overlapping = [
        Polygon.from_rect(
            Rect(0.3 + 0.01 * i, 0.3, 0.5 + 0.01 * i, 0.5)
        )
        for i in range(5)
    ]
    batch = db.query_batch(area_specs(overlapping, "traditional"), use_cache=False)
    assert batch.stats.executed == len(overlapping)
    assert batch.stats.method_counts == {"traditional": len(overlapping)}
    assert [r.ids() for r in batch] == [
        db.query(AreaQuery(region, method="traditional")).ids()
        for region in overlapping
    ]


def test_batch_result_is_a_sequence(db, mixed_regions):
    batch = db.query_batch(area_specs(mixed_regions[:4], "voronoi"))
    assert len(batch) == 4
    assert batch[0].ids() == list(batch)[0].ids()
    assert [r.ids() for r in batch[:2]] == [batch[0].ids(), batch[1].ids()]


def test_unknown_method_is_rejected_at_the_spec(mixed_regions):
    with pytest.raises(ValueError, match="unknown method"):
        AreaQuery(mixed_regions[0], method="fastest")


def test_batch_rejects_zero_area_region(db):
    degenerate = Circle(Point(0.5, 0.5), 1e-12)
    object.__setattr__(degenerate, "radius", 0.0)  # bypass ctor guard
    with pytest.raises(InvalidQueryAreaError):
        db.query_batch([AreaQuery(degenerate)])


def test_batch_on_empty_database_raises():
    empty = SpatialDatabase()
    with pytest.raises(EmptyDatabaseError):
        empty.query_batch(
            [AreaQuery(Polygon.from_rect(Rect(0.1, 0.1, 0.2, 0.2)))]
        )


def test_empty_batch_returns_empty_result(db):
    batch = db.query_batch([])
    assert len(batch) == 0
    assert batch.stats.total_queries == 0


def test_hilbert_index_is_locality_preserving():
    # Adjacent cells along the curve differ by exactly one grid step.
    side = 1 << 4
    positions = {}
    for xi in range(side):
        for yi in range(side):
            key = hilbert_index(
                (xi + 0.5) / side, (yi + 0.5) / side, order=4
            )
            positions[key] = (xi, yi)
    assert len(positions) == side * side
    for distance in range(side * side - 1):
        x1, y1 = positions[distance]
        x2, y2 = positions[distance + 1]
        assert abs(x1 - x2) + abs(y1 - y2) == 1


def test_sliding_tile_chains_do_not_snowball_into_one_group(db):
    """A sliding chain of tiles, each overlapping the next by half: every
    member runs once, on its own window, and answers like the loop."""
    chain = [
        Polygon.from_rect(Rect(0.05 + 0.1 * i, 0.4, 0.25 + 0.1 * i, 0.6))
        for i in range(7)  # each overlaps the next by half its width
    ]
    batch = db.query_batch(area_specs(chain, "traditional"), use_cache=False)
    assert batch.stats.executed == len(chain)
    assert [r.ids() for r in batch] == [
        db.query(AreaQuery(region, method="traditional")).ids() for region in chain
    ]
