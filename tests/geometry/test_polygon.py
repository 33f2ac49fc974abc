"""Unit tests for simple polygons."""

import math

import pytest

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon, convex_hull
from repro.geometry.rectangle import Rect
from repro.geometry.segment import Segment


UNIT_SQUARE = Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])


class TestConstruction:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([Point(0, 0), Point(1, 1)])

    def test_accepts_tuples(self):
        p = Polygon([(0, 0), (1, 0), (0, 1)])
        assert p.vertices == (Point(0, 0), Point(1, 0), Point(0, 1))

    def test_closing_vertex_dropped(self):
        p = Polygon([Point(0, 0), Point(1, 0), Point(0, 1), Point(0, 0)])
        assert len(p) == 3

    def test_normalised_to_ccw(self):
        clockwise = Polygon([Point(0, 0), Point(0, 1), Point(1, 0)])
        assert clockwise.signed_area > 0.0

    def test_iteration(self):
        assert len(list(UNIT_SQUARE)) == 4

    def test_equality_and_hash(self):
        p1 = Polygon([(0, 0), (1, 0), (0, 1)])
        p2 = Polygon([(0, 0), (1, 0), (0, 1)])
        assert p1 == p2
        assert hash(p1) == hash(p2)


class TestMeasures:
    def test_unit_square_area(self):
        assert UNIT_SQUARE.area == 1.0

    def test_triangle_area(self):
        assert Polygon([(0, 0), (2, 0), (0, 2)]).area == 2.0

    def test_area_invariant_under_orientation(self):
        ccw = Polygon([(0, 0), (2, 0), (0, 2)])
        cw = Polygon([(0, 0), (0, 2), (2, 0)])
        assert ccw.area == cw.area

    def test_perimeter(self):
        assert UNIT_SQUARE.perimeter == 4.0

    def test_mbr(self):
        p = Polygon([(0.5, 0), (1, 0.7), (0.2, 1)])
        assert p.mbr == Rect(0.2, 0, 1, 1)

    def test_centroid_of_square(self):
        c = UNIT_SQUARE.centroid
        assert c.x == pytest.approx(0.5)
        assert c.y == pytest.approx(0.5)

    def test_edges_count_and_closure(self):
        edges = list(UNIT_SQUARE.edges())
        assert len(edges) == 4
        assert edges[-1].end == edges[0].start


class TestConvexity:
    def test_square_is_convex(self):
        assert UNIT_SQUARE.is_convex()

    def test_l_shape_is_concave(self, concave_polygon):
        assert not concave_polygon.is_convex()

    def test_regular_polygon_is_convex(self):
        assert Polygon.regular(7, Point(0, 0), 1.0).is_convex()


class TestSimplicity:
    def test_square_is_simple(self):
        assert UNIT_SQUARE.is_simple()

    def test_bowtie_is_not_simple(self):
        bowtie = Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])
        assert not bowtie.is_simple()

    def test_concave_is_simple(self, concave_polygon):
        assert concave_polygon.is_simple()


class TestContainsPoint:
    def test_interior(self):
        assert UNIT_SQUARE.contains_point(Point(0.5, 0.5))

    def test_exterior(self):
        assert not UNIT_SQUARE.contains_point(Point(1.5, 0.5))
        assert not UNIT_SQUARE.contains_point(Point(0.5, -0.1))

    def test_boundary_inclusive_by_default(self):
        assert UNIT_SQUARE.contains_point(Point(0, 0.5))
        assert UNIT_SQUARE.contains_point(Point(0.5, 1))
        assert UNIT_SQUARE.contains_point(Point(0, 0))  # vertex

    def test_boundary_excluded_on_request(self):
        assert not UNIT_SQUARE.contains_point(Point(0, 0.5), boundary=False)
        assert not UNIT_SQUARE.contains_point(Point(0, 0), boundary=False)
        assert UNIT_SQUARE.contains_point(Point(0.5, 0.5), boundary=False)

    def test_concave_notch_excluded(self, concave_polygon):
        # The notch of the L (upper-right quadrant) is outside.
        assert not concave_polygon.contains_point(Point(0.7, 0.7))
        assert concave_polygon.contains_point(Point(0.3, 0.3))
        assert concave_polygon.contains_point(Point(0.3, 0.7))
        assert concave_polygon.contains_point(Point(0.7, 0.3))

    def test_point_level_with_vertex(self):
        # Ray through a vertex must be counted exactly once.
        diamond = Polygon([(1, 0), (2, 1), (1, 2), (0, 1)])
        assert diamond.contains_point(Point(1, 1))
        assert not diamond.contains_point(Point(-0.5, 1))
        assert not diamond.contains_point(Point(2.5, 1))

    def test_point_level_with_horizontal_edge(self):
        p = Polygon([(0, 0), (2, 0), (2, 2), (1, 1), (0, 2)])
        assert p.contains_point(Point(1.0, 0.0))  # on bottom edge
        assert p.contains_point(Point(0.5, 1.2))
        assert not p.contains_point(Point(1.0, 1.5))  # inside the notch

    def test_winding_agrees_with_crossing(self, concave_polygon, rng):
        for _ in range(300):
            p = Point(rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2))
            assert concave_polygon.contains_point(
                p
            ) == concave_polygon.contains_point_winding(p)

    def test_point_on_boundary(self):
        assert UNIT_SQUARE.point_on_boundary(Point(0.5, 0))
        assert UNIT_SQUARE.point_on_boundary(Point(1, 1))
        assert not UNIT_SQUARE.point_on_boundary(Point(0.5, 0.5))
        assert not UNIT_SQUARE.point_on_boundary(Point(2, 2))


class TestSegmentInteraction:
    def test_segment_crossing_boundary(self):
        segment = Segment(Point(-0.5, 0.5), Point(0.5, 0.5))
        assert UNIT_SQUARE.intersects_segment(segment)
        assert UNIT_SQUARE.crosses_boundary_xy(-0.5, 0.5, 0.5, 0.5)

    def test_segment_fully_inside(self):
        segment = Segment(Point(0.2, 0.2), Point(0.8, 0.8))
        assert UNIT_SQUARE.intersects_segment(segment)
        assert not UNIT_SQUARE.crosses_boundary_xy(0.2, 0.2, 0.8, 0.8)

    def test_segment_fully_outside(self):
        segment = Segment(Point(2, 2), Point(3, 3))
        assert not UNIT_SQUARE.intersects_segment(segment)

    def test_segment_through_polygon(self):
        # Both endpoints outside, but the segment passes through.
        segment = Segment(Point(-1, 0.5), Point(2, 0.5))
        assert UNIT_SQUARE.intersects_segment(segment)

    def test_segment_touching_vertex(self):
        segment = Segment(Point(-1, 1), Point(1, -1))  # touches (0,0)
        assert UNIT_SQUARE.intersects_segment(segment)

    def test_segment_along_edge(self):
        segment = Segment(Point(0.2, 0), Point(0.8, 0))
        assert UNIT_SQUARE.intersects_segment(segment)

    def test_crosses_boundary_xy_matches(self, concave_polygon, rng):
        for _ in range(200):
            a = Point(rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3))
            b = Point(rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3))
            expected = any(
                edge.intersects(Segment(a, b))
                for edge in concave_polygon.edges()
            )
            assert (
                concave_polygon.crosses_boundary_xy(a.x, a.y, b.x, b.y)
                == expected
            )


class TestTransforms:
    def test_translated(self):
        moved = UNIT_SQUARE.translated(2, 3)
        assert moved.mbr == Rect(2, 3, 3, 4)
        assert moved.area == pytest.approx(1.0)

    def test_scaled_area(self):
        scaled = UNIT_SQUARE.scaled(2.0)
        assert scaled.area == pytest.approx(4.0)

    def test_scaled_preserves_centroid(self):
        scaled = UNIT_SQUARE.scaled(3.0)
        assert scaled.centroid.x == pytest.approx(0.5)
        assert scaled.centroid.y == pytest.approx(0.5)

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            UNIT_SQUARE.scaled(0.0)
        with pytest.raises(ValueError):
            UNIT_SQUARE.scaled(-1.0)

    def test_regular_polygon(self):
        hexagon = Polygon.regular(6, Point(0, 0), 1.0)
        assert len(hexagon) == 6
        # Area of a regular hexagon with circumradius 1.
        assert hexagon.area == pytest.approx(3 * math.sqrt(3) / 2)

    def test_regular_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Polygon.regular(2, Point(0, 0), 1.0)
        with pytest.raises(ValueError):
            Polygon.regular(5, Point(0, 0), 0.0)

    def test_from_rect(self):
        p = Polygon.from_rect(Rect(0, 0, 2, 1))
        assert p.area == pytest.approx(2.0)
        assert p.mbr == Rect(0, 0, 2, 1)


class TestConvexHull:
    def test_square_with_interior_points(self):
        points = [
            Point(0, 0),
            Point(1, 0),
            Point(1, 1),
            Point(0, 1),
            Point(0.5, 0.5),
            Point(0.2, 0.8),
        ]
        hull = convex_hull(points)
        assert set(hull) == {
            Point(0, 0),
            Point(1, 0),
            Point(1, 1),
            Point(0, 1),
        }

    def test_hull_is_ccw(self):
        hull = convex_hull(
            [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2), Point(1, 1)]
        )
        assert Polygon(hull).signed_area > 0.0

    def test_collinear_input(self):
        hull = convex_hull([Point(0, 0), Point(1, 1), Point(2, 2)])
        assert len(hull) == 2

    def test_duplicates_removed(self):
        hull = convex_hull([Point(0, 0), Point(0, 0), Point(1, 0)])
        assert len(hull) == 2

    def test_denormal_scale_hull_stays_convex(self):
        # Regression (ROADMAP, PR 1 hypothesis run): a CCW hull of exact
        # area ~1e-146 whose float shoelace sum is *negative*.  The old
        # ring normalisation trusted that sign and reversed the ring, so
        # Polygon(convex_hull(...)).is_convex() came back False.
        points = [
            Point(2.4479854537261012e-65, 5.475382532919865e-66),
            Point(3.135208606523928e-65, 4.578950069010331e-66),
            Point(3.8224317593217544e-65, 3.6825176051007995e-66),
        ]
        hull = convex_hull(points)
        assert len(hull) == 3
        polygon = Polygon(hull)
        assert polygon.vertices == tuple(hull)  # ring was not reversed
        assert polygon.is_convex()
        for p in points:
            assert polygon.contains_point(p)
