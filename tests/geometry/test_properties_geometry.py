"""Property-based tests (hypothesis) for the geometry kernel."""


from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon, convex_hull
from repro.geometry.predicates import (
    Orientation,
    incircle,
    orientation,
)
from repro.geometry.rectangle import Rect
from repro.geometry.segment import Segment, segments_intersect

coordinate = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coordinate, coordinate)
unit_coordinate = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
unit_points = st.builds(Point, unit_coordinate, unit_coordinate)


class TestOrientationProperties:
    @given(points, points, points)
    def test_antisymmetry(self, a, b, c):
        assert orientation(a, b, c).value == -orientation(b, a, c).value

    @given(points, points, points)
    def test_cyclic_invariance(self, a, b, c):
        assert orientation(a, b, c) is orientation(b, c, a)

    @given(points, points)
    def test_degenerate_pairs_collinear(self, a, b):
        assert orientation(a, a, b) is Orientation.COLLINEAR
        assert orientation(a, b, b) is Orientation.COLLINEAR
        assert orientation(a, b, a) is Orientation.COLLINEAR

    @given(points, points, st.floats(min_value=-2.0, max_value=3.0))
    def test_points_on_line_are_collinear(self, a, b, t):
        c = Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
        # c is constructed on the line through a and b up to rounding;
        # where the construction is exact it must be collinear.  t == 1
        # alone is not exact: a.y + (b.y - a.y) loses b.y when it is tiny
        # next to a.y (a=(0, 1), b=(1, 1.4e-120) gives c=(1, 0)).
        if c in (a, b):
            assert orientation(a, b, c) is Orientation.COLLINEAR


class TestIncircleProperties:
    @given(points, points, points, points)
    def test_incircle_antisymmetric_in_triangle_orientation(self, a, b, c, d):
        forward = incircle(a, b, c, d)
        swapped = incircle(a, c, b, d)
        # Swapping two triangle vertices flips triangle orientation and the
        # in-circle sign.
        if forward > 0:
            assert swapped < 0
        elif forward < 0:
            assert swapped > 0
        else:
            assert swapped == 0

    @given(points, points, points)
    def test_triangle_vertex_is_cocircular(self, a, b, c):
        assert incircle(a, b, c, a) == 0.0
        assert incircle(a, b, c, b) == 0.0
        assert incircle(a, b, c, c) == 0.0


class TestSegmentProperties:
    @given(points, points, points, points)
    def test_intersection_symmetric(self, a, b, c, d):
        assert segments_intersect(a, b, c, d) == segments_intersect(c, d, a, b)

    @given(points, points, points, points)
    def test_intersection_endpoint_order_invariant(self, a, b, c, d):
        assert segments_intersect(a, b, c, d) == segments_intersect(b, a, d, c)

    @given(points, points)
    def test_segment_intersects_itself(self, a, b):
        assert segments_intersect(a, b, a, b)

    @given(points, points, points)
    def test_shared_endpoint_always_intersects(self, a, b, c):
        assert segments_intersect(a, b, b, c)

    @given(points, points, st.floats(min_value=0.0, max_value=1.0))
    def test_closest_point_is_on_segment_line(self, a, b, t):
        assume(a != b)
        segment = Segment(a, b)
        p = Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
        closest = segment.closest_point_to(p)
        assert closest.distance_to(p) <= 1e-6 + min(
            a.distance_to(p), b.distance_to(p)
        )


class TestRectProperties:
    @given(st.lists(points, min_size=1, max_size=30))
    def test_mbr_contains_all_points(self, point_list):
        mbr = Rect.from_points(point_list)
        assert all(mbr.contains_point(p) for p in point_list)

    @given(st.lists(points, min_size=2, max_size=10), points)
    def test_distance_lower_bounds_member_distance(self, point_list, query):
        # MINDIST property: rect distance never exceeds the distance to any
        # point inside the rect — the correctness basis of best-first NN.
        mbr = Rect.from_points(point_list)
        for p in point_list:
            assert mbr.distance_to_point(query) <= query.distance_to(p) + 1e-9


class TestConvexHullProperties:
    @given(st.lists(unit_points, min_size=3, max_size=40))
    def test_hull_contains_all_points(self, point_list):
        hull = convex_hull(point_list)
        assume(len(hull) >= 3)
        polygon = Polygon(hull)
        assert polygon.is_convex()
        for p in point_list:
            assert polygon.contains_point(p)

    @given(st.lists(unit_points, min_size=3, max_size=25))
    def test_hull_vertices_are_input_points(self, point_list):
        hull = convex_hull(point_list)
        assert set(hull) <= set(point_list)


class TestPolygonContainmentProperties:
    @settings(max_examples=50)
    @given(st.lists(unit_points, min_size=3, max_size=20), unit_points)
    def test_crossing_equals_winding(self, point_list, probe):
        hull = convex_hull(point_list)
        assume(len(hull) >= 3)
        polygon = Polygon(hull)
        assert polygon.contains_point(probe) == polygon.contains_point_winding(
            probe
        )

    @settings(max_examples=50)
    @given(st.lists(unit_points, min_size=3, max_size=20))
    def test_vertices_are_contained(self, point_list):
        hull = convex_hull(point_list)
        assume(len(hull) >= 3)
        polygon = Polygon(hull)
        for v in polygon.vertices:
            assert polygon.contains_point(v)
            assert polygon.point_on_boundary(v)

    @settings(max_examples=50)
    @given(st.lists(unit_points, min_size=3, max_size=20))
    def test_centroid_of_convex_polygon_inside(self, point_list):
        hull = convex_hull(point_list)
        assume(len(hull) >= 3)
        polygon = Polygon(hull)
        assume(polygon.area > 1e-9)
        assert polygon.contains_point(polygon.centroid)

    @settings(max_examples=50)
    @given(st.lists(unit_points, min_size=3, max_size=15), unit_points)
    def test_outside_mbr_means_outside_polygon(self, point_list, probe):
        hull = convex_hull(point_list)
        assume(len(hull) >= 3)
        polygon = Polygon(hull)
        if not polygon.mbr.contains_point(probe):
            assert not polygon.contains_point(probe)
