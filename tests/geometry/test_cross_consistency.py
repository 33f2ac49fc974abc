"""Cross-operation consistency properties of the geometry kernel.

Different operations answer overlapping questions (e.g. a point on a
segment lies at distance zero from it; polygon containment relates to
MBR containment).  These tests pin the
relationships down so the kernel cannot drift into self-contradiction.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon, convex_hull
from repro.geometry.segment import Segment

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
unit_points = st.builds(Point, unit, unit)


class TestSegmentConsistency:
    @settings(max_examples=100)
    @given(unit_points, unit_points, unit_points)
    def test_contains_point_matches_distance(self, a, b, p):
        # contains_point is exact; distance goes through the (approximate)
        # closest-point projection, so containment implies distance ~ 0.
        assume(a != b)
        segment = Segment(a, b)
        if segment.contains_point(p):
            assert segment.distance_to_point(p) < 1e-9

    @settings(max_examples=100)
    @given(unit_points, unit_points, unit_points)
    def test_closest_point_is_contained(self, a, b, p):
        segment = Segment(a, b)
        closest = segment.closest_point_to(p)
        # The closest point lies on the closed segment up to rounding.
        assert segment.distance_to_point(closest) < 1e-9


class TestPolygonConsistency:
    @settings(max_examples=60)
    @given(st.lists(unit_points, min_size=3, max_size=15), unit_points)
    def test_containment_implies_mbr_containment(self, vertices, probe):
        hull = convex_hull(vertices)
        assume(len(hull) >= 3)
        polygon = Polygon(hull)
        if polygon.contains_point(probe):
            assert polygon.mbr.contains_point(probe)

    @settings(max_examples=60)
    @given(st.lists(unit_points, min_size=3, max_size=15))
    def test_boundary_points_are_contained(self, vertices):
        hull = convex_hull(vertices)
        assume(len(hull) >= 3)
        polygon = Polygon(hull)
        for edge in polygon.edges():
            midpoint = edge.midpoint
            if polygon.point_on_boundary(midpoint):
                assert polygon.contains_point(midpoint)
                assert not polygon.contains_point(midpoint, boundary=False)

    @settings(max_examples=60)
    @given(st.lists(unit_points, min_size=3, max_size=15))
    def test_area_never_exceeds_mbr_area(self, vertices):
        hull = convex_hull(vertices)
        assume(len(hull) >= 3)
        polygon = Polygon(hull)
        assert polygon.area <= polygon.mbr.area + 1e-12

    @settings(max_examples=40)
    @given(st.lists(unit_points, min_size=3, max_size=12), unit_points, unit_points)
    def test_crosses_boundary_consistent_with_containment(
        self, vertices, a, b
    ):
        """If exactly one endpoint of a segment is strictly inside and the
        other strictly outside, the segment must cross the boundary."""
        hull = convex_hull(vertices)
        assume(len(hull) >= 3)
        polygon = Polygon(hull)
        a_in = polygon.contains_point(a, boundary=False)
        b_in = polygon.contains_point(b, boundary=False)
        a_on = polygon.point_on_boundary(a)
        b_on = polygon.point_on_boundary(b)
        if a_in != b_in and not (a_on or b_on):
            assert polygon.crosses_boundary_xy(a.x, a.y, b.x, b.y)

    def test_triangulation_area_matches_shoelace(self):
        from repro.geometry.random_shapes import random_star_polygon
        from repro.geometry.triangulate import triangle_area

        for seed in range(25):
            polygon = random_star_polygon(9, random.Random(seed))
            total = sum(triangle_area(t) for t in polygon.triangulate())
            assert abs(total - polygon.area) < 1e-9


class TestCircleConsistency:
    @settings(max_examples=80)
    @given(
        unit_points,
        st.floats(min_value=0.01, max_value=0.5),
        unit_points,
    )
    def test_containment_implies_mbr_containment(self, center, radius, probe):
        disc = Circle(center, radius)
        if disc.contains_point(probe):
            assert disc.mbr.contains_point(probe)

    @settings(max_examples=80)
    @given(
        unit_points,
        st.floats(min_value=0.01, max_value=0.5),
        unit_points,
        unit_points,
    )
    def test_crossing_consistent_with_containment(
        self, center, radius, a, b
    ):
        disc = Circle(center, radius)
        a_in = disc.contains_point(a, boundary=False)
        b_in = disc.contains_point(b, boundary=False)
        if a_in != b_in and not (
            disc.point_on_boundary(a) or disc.point_on_boundary(b)
        ):
            assert disc.crosses_boundary_xy(a.x, a.y, b.x, b.y)

    @settings(max_examples=80)
    @given(unit_points, st.floats(min_value=0.01, max_value=0.5))
    def test_area_never_exceeds_mbr_area(self, center, radius):
        disc = Circle(center, radius)
        assert disc.area <= disc.mbr.area
