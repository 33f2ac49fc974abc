"""Unit tests for repro.geometry.point."""

import pytest

from repro.geometry.point import Point, centroid, collinear


class TestPointBasics:
    def test_coordinates(self):
        p = Point(1.5, -2.0)
        assert p.x == 1.5
        assert p.y == -2.0

    def test_equality(self):
        assert Point(1.0, 2.0) == Point(1.0, 2.0)
        assert Point(1.0, 2.0) != Point(2.0, 1.0)

    def test_hashable(self):
        assert len({Point(0, 0), Point(0, 0), Point(1, 0)}) == 2

    def test_immutable(self):
        p = Point(0.0, 0.0)
        with pytest.raises(AttributeError):
            p.x = 1.0

    def test_unpacking(self):
        x, y = Point(3.0, 4.0)
        assert (x, y) == (3.0, 4.0)

    def test_as_tuple(self):
        assert Point(3.0, 4.0).as_tuple() == (3.0, 4.0)


class TestPointArithmetic:
    def test_addition(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)

    def test_subtraction(self):
        assert Point(3, 4) - Point(1, 2) == Point(2, 2)

    def test_scalar_multiplication(self):
        assert Point(1, 2) * 3 == Point(3, 6)
        assert 3 * Point(1, 2) == Point(3, 6)

    def test_scalar_division(self):
        assert Point(3, 6) / 3 == Point(1, 2)

    def test_negation(self):
        assert -Point(1, -2) == Point(-1, 2)

    def test_dot_product(self):
        assert Point(1, 2).dot(Point(3, 4)) == 11.0

    def test_cross_product_sign(self):
        assert Point(1, 0).cross(Point(0, 1)) == 1.0
        assert Point(0, 1).cross(Point(1, 0)) == -1.0

    def test_cross_of_parallel_vectors_is_zero(self):
        assert Point(2, 4).cross(Point(1, 2)) == 0.0


class TestDistances:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_squared_distance(self):
        assert Point(0, 0).squared_distance_to(Point(3, 4)) == 25.0

    def test_distance_is_symmetric(self):
        a, b = Point(1.1, 2.2), Point(-3.3, 4.4)
        assert a.distance_to(b) == b.distance_to(a)

    def test_norm(self):
        assert Point(3, 4).squared_norm() == 25.0

    def test_midpoint(self):
        assert Point(0, 0).midpoint(Point(2, 4)) == Point(1, 2)


class TestCentroid:
    def test_centroid_of_square_corners(self):
        points = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        assert centroid(points) == Point(0.5, 0.5)

    def test_centroid_of_single_point(self):
        assert centroid([Point(2, 3)]) == Point(2, 3)

    def test_centroid_of_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])


class TestCollinear:
    def test_collinear_points(self):
        assert collinear(Point(0, 0), Point(1, 1), Point(2, 2))

    def test_non_collinear_points(self):
        assert not collinear(Point(0, 0), Point(1, 1), Point(2, 2.01))

    def test_tolerance(self):
        assert collinear(
            Point(0, 0), Point(1, 1), Point(2, 2.01), tolerance=0.1
        )
