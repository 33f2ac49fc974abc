"""The oracle's two halves must agree with each other before anything
else is compared against them: the textbook queue, the filter–refine
loop and the linear scan are three independent routes to one id set."""

import random

import pytest

from oracle import (
    ProtocolOnlyRegion,
    brute_force,
    live_rows,
    reference_traditional,
    reference_voronoi,
)
from repro.core.database import SpatialDatabase
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.random_shapes import random_query_polygon
from repro.query.spec import AreaQuery, DifferenceQuery, KnnQuery, NearestQuery, WindowQuery
from repro.workloads.generators import uniform_points


def _database(tombstones):
    db = SpatialDatabase.from_points(uniform_points(600, seed=881)).prepare()
    for row in random.Random(883).sample(range(600), tombstones):
        db.delete(row)
    return db


REGIONS = {
    "polygon": lambda: random_query_polygon(query_size=0.15, rng=random.Random(885)),
    "circle": lambda: Circle(Point(0.55, 0.4), 0.2),
    "custom": lambda: ProtocolOnlyRegion(Circle(Point(0.3, 0.7), 0.18)),
}


@pytest.mark.parametrize("tombstones", [0, 120], ids=["plain", "tombstones"])
@pytest.mark.parametrize("kind", sorted(REGIONS))
def test_queue_loop_and_scan_agree(kind, tombstones):
    db = _database(tombstones)
    region = REGIONS[kind]()
    scan = brute_force(AreaQuery(region), live_rows(db))
    queue = reference_voronoi(db, region)
    loop = reference_traditional(db, region)
    assert scan and queue.ids == loop.ids == scan
    for record in (queue, loop):
        stats = record.stats
        assert stats.validations == stats.candidates
        assert stats.redundant_validations == stats.candidates - len(
            _validated_inside(db, region, record)
        )


def _validated_inside(db, region, record):
    """Rows the reference validated as inside: the result plus, for the
    queue, the tombstones it expanded through."""
    inside = set(record.ids)
    if record.stats.method == "voronoi":
        inside |= {
            row
            for row in db.store.deleted_rows
            if region.contains_point(db.point(row))
        }
    return inside


def test_scan_semantics_of_options_and_point_kinds():
    rows = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0), 3: (0.0, 0.0), 4: (5.0, 5.0)}
    assert brute_force(KnnQuery((0.1, 0.0), 3), rows) == [0, 3, 1]  # ties by row id
    assert brute_force(KnnQuery((0.1, 0.0), None, limit=2), rows) == [0, 3]
    assert brute_force(NearestQuery((1.9, 0.0)), rows) == [2]
    assert brute_force(KnnQuery((0.1, 0.0), 2, predicate=lambda p: p.x > 0.5), rows) == [1, 2]
    window = WindowQuery((0.0, 0.0, 2.0, 1.0))
    assert brute_force(window, rows) == [0, 1, 2, 3]
    assert brute_force(window.with_limit(2), rows) == [0, 1]
    ring = DifferenceQuery((window, WindowQuery((0.0, 0.0, 0.5, 0.5))))
    assert brute_force(ring, rows) == [1, 2]
