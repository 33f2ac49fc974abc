"""Unit tests for the Rect MBR algebra."""


import pytest

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect


class TestConstruction:
    def test_from_points(self):
        r = Rect.from_points([Point(1, 3), Point(0, 5), Point(2, 4)])
        assert r == Rect(0, 3, 2, 5)

    def test_from_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.from_points([])

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)
        with pytest.raises(ValueError):
            Rect(0, 1, 1, 0)

    def test_from_bounds(self):
        assert Rect.from_bounds((0, 1, 2, 3)) == Rect(0, 1, 2, 3)
        with pytest.raises(ValueError):
            Rect.from_bounds((0, 1, 2))


class TestMeasures:
    def test_dimensions(self):
        r = Rect(0, 0, 3, 2)
        assert r.width == 3
        assert r.height == 2
        assert r.area == 6

    def test_degenerate_area(self):
        assert Rect(1, 1, 1, 1).area == 0.0
        assert Rect(0, 1, 5, 1).area == 0.0

    def test_center(self):
        assert Rect(0, 0, 2, 4).center == Point(1, 2)

    def test_corners_ccw(self):
        corners = list(Rect(0, 0, 1, 1).corners())
        assert corners == [
            Point(0, 0),
            Point(1, 0),
            Point(1, 1),
            Point(0, 1),
        ]


class TestRelations:
    def test_contains_point_inclusive(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(Point(0.5, 0.5))
        assert r.contains_point(Point(0, 0))
        assert r.contains_point(Point(1, 1))
        assert not r.contains_point(Point(1.0001, 0.5))

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(1, 1, 2, 2))
        assert outer.contains_rect(outer)
        assert not outer.contains_rect(Rect(9, 9, 11, 11))

    def test_intersects(self):
        a = Rect(0, 0, 2, 2)
        assert a.intersects(Rect(1, 1, 3, 3))
        assert a.intersects(Rect(2, 2, 3, 3))  # corner touch counts
        assert not a.intersects(Rect(3, 3, 4, 4))


class TestDistance:
    def test_distance_to_inside_point_is_zero(self):
        assert Rect(0, 0, 1, 1).distance_to_point(Point(0.5, 0.5)) == 0.0

    def test_distance_to_side(self):
        assert Rect(0, 0, 1, 1).distance_to_point(Point(2, 0.5)) == 1.0

    def test_distance_to_corner(self):
        assert Rect(0, 0, 1, 1).distance_to_point(
            Point(4, 5)
        ) == pytest.approx(5.0)

    def test_squared_distance_consistent(self):
        r = Rect(0, 0, 1, 1)
        p = Point(3, -2)
        assert r.squared_distance_to_point(p) == pytest.approx(
            r.distance_to_point(p) ** 2
        )


class TestTransforms:
    def test_expanded(self):
        assert Rect(1, 1, 2, 2).expanded(0.5) == Rect(0.5, 0.5, 2.5, 2.5)

    def test_expanded_negative_shrinks(self):
        assert Rect(0, 0, 2, 2).expanded(-0.5) == Rect(0.5, 0.5, 1.5, 1.5)

    def test_as_tuple(self):
        assert Rect(0, 1, 2, 3).as_tuple() == (0, 1, 2, 3)
