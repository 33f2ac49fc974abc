"""Unit tests for the traditional filter–refine area query."""


import pytest

from oracle import reference_traditional
from repro.core.database import SpatialDatabase
from repro.core.traditional_query import traditional_area_query
from repro.workloads.generators import uniform_points


@pytest.fixture(scope="module")
def indexed_points():
    points = uniform_points(500, seed=51)
    db = SpatialDatabase.from_points(points)
    return points, db


class TestCorrectness:
    def test_matches_brute_force(self, indexed_points, concave_polygon):
        points, db = indexed_points
        result = traditional_area_query(db.index, db.store, concave_polygon)
        expected = sorted(
            i
            for i, p in enumerate(points)
            if concave_polygon.contains_point(p)
        )
        assert result.ids == expected

    def test_result_sorted(self, indexed_points, concave_polygon):
        _, db = indexed_points
        result = traditional_area_query(db.index, db.store, concave_polygon)
        assert result.ids == sorted(result.ids)

    def test_triangle_query(self, indexed_points, triangle):
        points, db = indexed_points
        result = traditional_area_query(db.index, db.store, triangle)
        expected = sorted(
            i for i, p in enumerate(points) if triangle.contains_point(p)
        )
        assert result.ids == expected


class TestStats:
    def test_candidates_are_mbr_hits(self, indexed_points, concave_polygon):
        points, db = indexed_points
        result = traditional_area_query(db.index, db.store, concave_polygon)
        mbr_hits = sum(
            1 for p in points if concave_polygon.mbr.contains_point(p)
        )
        assert result.stats.candidates == mbr_hits

    def test_validations_equal_candidates(self, indexed_points, concave_polygon):
        _, db = indexed_points
        result = traditional_area_query(db.index, db.store, concave_polygon)
        assert result.stats.validations == result.stats.candidates

    def test_redundant_accounting(self, indexed_points, concave_polygon):
        _, db = indexed_points
        result = traditional_area_query(db.index, db.store, concave_polygon)
        assert (
            result.stats.redundant_validations
            == result.stats.candidates - result.stats.result_size
        )

    def test_method_label(self, indexed_points, concave_polygon):
        _, db = indexed_points
        assert (
            traditional_area_query(db.index, db.store, concave_polygon).stats.method
            == "traditional"
        )

    def test_time_positive(self, indexed_points, concave_polygon):
        _, db = indexed_points
        assert traditional_area_query(db.index, db.store, concave_polygon).stats.time_ms > 0

    def test_node_accesses_recorded(self, indexed_points, concave_polygon):
        _, db = indexed_points
        result = traditional_area_query(db.index, db.store, concave_polygon)
        assert result.stats.index_node_accesses > 0

    def test_l_shape_redundancy_matches_area_deficit(
        self, indexed_points, concave_polygon
    ):
        # The L-polygon covers 0.48/0.64 = 75 % of its MBR, so about a
        # quarter of the candidates should be redundant (uniform data).
        _, db = indexed_points
        result = traditional_area_query(db.index, db.store, concave_polygon)
        ratio = result.stats.redundant_validations / result.stats.candidates
        assert 0.15 < ratio < 0.4


class TestInjection:
    def test_contains_override(self, indexed_points, concave_polygon):
        _, db = indexed_points
        calls = []

        def fake_contains(area, p):
            calls.append(p)
            return False

        result = traditional_area_query(
            db.index, db.store, concave_polygon, contains=fake_contains
        )
        assert result.ids == []
        assert len(calls) == result.stats.candidates


class TestAgainstReferenceLoop:
    def test_matches_the_filter_refine_loop(self, indexed_points, concave_polygon):
        _, db = indexed_points
        loop = reference_traditional(db, concave_polygon)
        indexed = traditional_area_query(db.index, db.store, concave_polygon)
        assert loop.ids == indexed.ids
        assert loop.stats.candidates == indexed.stats.candidates
        assert loop.stats.redundant_validations == indexed.stats.redundant_validations
