"""Unit tests for segments and segment intersection."""

import pytest

from repro.geometry.point import Point
from repro.geometry.segment import (
    Segment,
    segments_intersect,
    segments_intersect_xy,
)


class TestSegmentBasics:
    def test_length(self):
        assert Segment(Point(0, 0), Point(3, 4)).length == 5.0

    def test_midpoint(self):
        assert Segment(Point(0, 0), Point(2, 4)).midpoint == Point(1, 2)

    def test_reversed(self):
        s = Segment(Point(1, 2), Point(3, 4))
        assert s.reversed() == Segment(Point(3, 4), Point(1, 2))


class TestContainsPoint:
    def test_interior_point(self):
        assert Segment(Point(0, 0), Point(2, 2)).contains_point(Point(1, 1))

    def test_endpoints(self):
        s = Segment(Point(0, 0), Point(2, 2))
        assert s.contains_point(Point(0, 0))
        assert s.contains_point(Point(2, 2))

    def test_collinear_but_beyond(self):
        assert not Segment(Point(0, 0), Point(2, 2)).contains_point(Point(3, 3))

    def test_off_line(self):
        assert not Segment(Point(0, 0), Point(2, 2)).contains_point(
            Point(1, 1.0001)
        )


class TestIntersection:
    def test_proper_crossing(self):
        s1 = Segment(Point(0, 0), Point(2, 2))
        s2 = Segment(Point(0, 2), Point(2, 0))
        assert s1.intersects(s2)

    def test_disjoint(self):
        s1 = Segment(Point(0, 0), Point(1, 0))
        s2 = Segment(Point(0, 1), Point(1, 1))
        assert not s1.intersects(s2)

    def test_shared_endpoint(self):
        s1 = Segment(Point(0, 0), Point(1, 1))
        s2 = Segment(Point(1, 1), Point(2, 0))
        assert s1.intersects(s2)

    def test_t_junction(self):
        # Endpoint of one segment in the interior of the other.
        s1 = Segment(Point(0, 0), Point(2, 0))
        s2 = Segment(Point(1, 0), Point(1, 1))
        assert s1.intersects(s2)

    def test_collinear_overlap(self):
        s1 = Segment(Point(0, 0), Point(2, 0))
        s2 = Segment(Point(1, 0), Point(3, 0))
        assert s1.intersects(s2)

    def test_collinear_disjoint(self):
        s1 = Segment(Point(0, 0), Point(1, 0))
        s2 = Segment(Point(2, 0), Point(3, 0))
        assert not s1.intersects(s2)

    def test_collinear_touching_at_endpoint(self):
        s1 = Segment(Point(0, 0), Point(1, 0))
        s2 = Segment(Point(1, 0), Point(2, 0))
        assert s1.intersects(s2)

    def test_parallel_non_collinear(self):
        s1 = Segment(Point(0, 0), Point(1, 1))
        s2 = Segment(Point(0, 0.5), Point(1, 1.5))
        assert not s1.intersects(s2)

    def test_intersection_is_symmetric(self):
        s1 = Segment(Point(0.1, 0.2), Point(0.8, 0.9))
        s2 = Segment(Point(0.1, 0.9), Point(0.8, 0.2))
        assert s1.intersects(s2) == s2.intersects(s1)

    def test_near_miss_resolved_exactly(self):
        # Segments that touch only in inexact arithmetic must be separated.
        s1 = Segment(Point(0, 0), Point(1, 1))
        s2 = Segment(Point(0, 1e-30), Point(-1, 1))
        assert not s1.intersects(s2)

    def test_xy_variant_agrees(self):
        cases = [
            (Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0)),
            (Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)),
            (Point(0, 0), Point(2, 0), Point(1, 0), Point(3, 0)),
            (Point(0, 0), Point(1, 1), Point(1, 1), Point(2, 0)),
        ]
        for a, b, c, d in cases:
            assert segments_intersect(a, b, c, d) == segments_intersect_xy(
                a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y
            )


class TestDistance:
    def test_distance_to_point_on_segment(self):
        assert Segment(Point(0, 0), Point(2, 0)).distance_to_point(
            Point(1, 0)
        ) == 0.0

    def test_perpendicular_distance(self):
        assert Segment(Point(0, 0), Point(2, 0)).distance_to_point(
            Point(1, 3)
        ) == pytest.approx(3.0)

    def test_distance_beyond_endpoint(self):
        assert Segment(Point(0, 0), Point(1, 0)).distance_to_point(
            Point(4, 4)
        ) == pytest.approx(5.0)

    def test_closest_point_clamps_to_endpoints(self):
        s = Segment(Point(0, 0), Point(1, 0))
        assert s.closest_point_to(Point(-5, 0)) == Point(0, 0)
        assert s.closest_point_to(Point(9, 0)) == Point(1, 0)

    def test_degenerate_segment(self):
        s = Segment(Point(1, 1), Point(1, 1))
        assert s.closest_point_to(Point(4, 5)) == Point(1, 1)
        assert s.distance_to_point(Point(4, 5)) == 5.0
