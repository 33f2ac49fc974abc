"""Scalar predicates are lifted into the array path, not forked around it.

A region that implements only the ``QueryRegion`` protocol, and the
``contains=`` refinement hook, both run through the same bulk probe /
wave expansion as polygons and circles
(:func:`repro.geometry.kernels.region_kernels`).  Ids equal brute force,
the paper's counters equal the textbook queue, and the hook sees every
validated candidate exactly once in either wave regime.
"""

import random
import types

import pytest

from oracle import (
    ProtocolOnlyRegion,
    assert_paper_counters,
    brute_force,
    brute_force_classes,
    live_rows,
    reference_area,
)
from repro.core import voronoi_query
from repro.core.database import SpatialDatabase
from repro.core.traditional_query import traditional_area_query
from repro.core.voronoi_query import voronoi_area_query
from repro.geometry.circle import Circle
from repro.geometry.kernels import region_kernels
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.random_shapes import random_query_polygon
from repro.geometry.rectangle import Rect
from repro.query.spec import AreaQuery, WindowQuery
from repro.workloads.generators import uniform_points


@pytest.fixture(scope="module")
def db():
    return SpatialDatabase.from_points(uniform_points(2_000, seed=2201)).prepare()


@pytest.fixture(scope="module")
def tombstoned():
    database = SpatialDatabase.from_points(uniform_points(2_000, seed=2203)).prepare()
    for row in random.Random(2205).sample(range(2_000), 300):
        database.delete(row)
    return database


def custom_regions():
    rng = random.Random(2207)
    return [
        ProtocolOnlyRegion(random_query_polygon(query_size=0.2, rng=rng)),
        ProtocolOnlyRegion(random_query_polygon(query_size=0.005, rng=rng)),
        ProtocolOnlyRegion(Circle(Point(0.4, 0.6), 0.22)),
        ProtocolOnlyRegion(Polygon.from_rect(Rect(0.1, 0.2, 0.5, 0.9))),
    ]


def test_the_custom_region_offers_no_array_kernel():
    region = custom_regions()[0]
    assert not hasattr(region, "contains_many")
    assert not hasattr(region, "crosses_boundary_many")
    contains_many, crosses_many = region_kernels(region)
    assert callable(contains_many) and callable(crosses_many)


@pytest.mark.parametrize("fixture", ["db", "tombstoned"])
@pytest.mark.parametrize("method", ["voronoi", "traditional"])
def test_protocol_only_region_matches_oracle(request, fixture, method):
    database = request.getfixturevalue(fixture)
    rows = live_rows(database)
    for region in custom_regions():
        spec = AreaQuery(region, method=method)
        got = database.query(spec)
        assert got.ids() == brute_force(spec, rows), spec
        assert_paper_counters(got.stats, reference_area(database, spec).stats, spec)


def test_shared_window_group_of_custom_and_polygon_members(db):
    rows = live_rows(db)
    window = Rect(0.3, 0.3, 0.6, 0.6)
    members = [
        AreaQuery(ProtocolOnlyRegion(Polygon.from_rect(window)), method="traditional"),
        AreaQuery(Polygon.from_rect(Rect(0.31, 0.3, 0.6, 0.59)), method="traditional"),
        AreaQuery(ProtocolOnlyRegion(Circle(Point(0.45, 0.45), 0.15)), method="traditional"),
        WindowQuery(Rect(0.3, 0.31, 0.59, 0.6), method="index"),
    ]
    batch = db.query_batch(members, use_cache=False)
    assert batch.stats.executed == len(members)
    for spec, result in zip(members, batch):
        assert result.ids() == brute_force(spec, rows), spec
    for spec, result in zip(members[:3], batch):
        assert_paper_counters(result.stats, reference_area(db, spec).stats, spec)


def test_classify_against_custom_region(db):
    region = custom_regions()[0]
    assert db.classify_against(region) == brute_force_classes(db, region, live_rows(db))


@pytest.mark.parametrize("query_size", [0.004, 0.3], ids=["loop-waves", "array-waves"])
@pytest.mark.parametrize("method", ["voronoi", "traditional"])
def test_contains_hook_runs_once_per_validated_candidate(db, method, query_size):
    area = random_query_polygon(query_size=query_size, rng=random.Random(2209))
    seen = []

    def contains(region, p):
        assert region is area
        seen.append(p)
        return region.contains_point(p)

    if method == "voronoi":
        record = voronoi_area_query(db.index, db.backend, db.store, area, contains=contains)
    else:
        record = traditional_area_query(db.index, db.store, area, contains=contains)
    assert record.ids == brute_force(AreaQuery(area), live_rows(db))
    assert len(seen) == record.stats.validations == len(set(seen))
    assert_paper_counters(
        record.stats, reference_area(db, AreaQuery(area, method=method)).stats
    )
    if query_size > 0.1:  # fronts far wider than the loop regime's bound
        assert record.stats.result_size > 4 * voronoi_query._WAVE_MIN
    else:
        assert record.stats.validations < voronoi_query._WAVE_MIN


def test_a_deprecation_raised_inside_repro_fails_the_test():
    """pyproject's filter: no shim can come back behind an ignore."""
    shim = types.ModuleType("repro.some_future_shim")
    exec(
        "import warnings\n"
        "def old():\n"
        "    warnings.warn('use the spec API', DeprecationWarning)\n",
        shim.__dict__,
    )
    with pytest.raises(DeprecationWarning):
        shim.old()
