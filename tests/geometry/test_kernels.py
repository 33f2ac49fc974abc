"""Vectorized kernels vs scalar containment — bitwise-equality tests.

The whole columnar architecture rests on one contract: the array
kernels of :mod:`repro.geometry.kernels` answer *exactly* like the
scalar tests, point for point, including boundary touches, near-edge
rounding hazards, and denormal coordinate scales.  These tests attack
that contract directly; the end-to-end query equivalence suite
(``tests/core/test_columnar_equivalence.py``) covers the paths above.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.circle import Circle
from repro.geometry.kernels import region_kernels, squared_distances
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.random_shapes import random_simple_polygon, random_star_polygon
from repro.geometry.rectangle import Rect

finite = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def adversarial_points(polygon: Polygon, rng: random.Random, count=200):
    """Random points plus vertices, edge midpoints and near-edge nudges."""
    pts = [(rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)) for _ in range(count)]
    ring = polygon.vertices
    for a, b in zip(ring, ring[1:] + ring[:1]):
        pts.append((a.x, a.y))
        mx, my = (a.x + b.x) / 2.0, (a.y + b.y) / 2.0
        pts.append((mx, my))
        pts.append((np.nextafter(mx, 2.0), my))
        pts.append((mx, np.nextafter(my, -2.0)))
        pts.append((a.x, my))  # vertex-level horizontal-ray hazards
    return pts


class TestPolygonContainsMany:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("boundary", [True, False])
    def test_matches_scalar_on_adversarial_points(self, seed, boundary):
        rng = random.Random(seed)
        polygon = random_star_polygon(3 + rng.randrange(20), rng)
        pts = adversarial_points(polygon, rng)
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        mask = polygon.contains_many(xs, ys, boundary=boundary)
        scalar = [
            polygon.contains_point(Point(x, y), boundary=boundary)
            for x, y in pts
        ]
        assert mask.tolist() == scalar

    def test_rectangle_ring_with_horizontal_edges(self):
        polygon = Polygon.from_rect(Rect(0.25, 0.25, 0.75, 0.5))
        grid = np.linspace(0.0, 1.0, 41)
        xs, ys = np.meshgrid(grid, grid)
        xs, ys = xs.ravel(), ys.ravel()
        mask = polygon.contains_many(xs, ys)
        scalar = [
            polygon.contains_point(Point(x, y)) for x, y in zip(xs, ys)
        ]
        assert mask.tolist() == scalar

    def test_denormal_scale_polygon(self):
        tiny = Polygon([(0.0, 0.0), (1e-160, 0.0), (1e-160, 1e-160)])
        xs = np.array([0.0, 5e-161, 1e-200, 2e-161, 1e-160])
        ys = np.array([0.0, 5e-161, 1e-200, 1e-161, 1e-160])
        mask = tiny.contains_many(xs, ys)
        scalar = [tiny.contains_point(Point(x, y)) for x, y in zip(xs, ys)]
        assert mask.tolist() == scalar

    def test_empty_input(self):
        polygon = random_star_polygon(8, random.Random(1))
        assert polygon.contains_many(np.empty(0), np.empty(0)).shape == (0,)

    def test_block_boundary_exactness(self):
        """Inputs spanning multiple kernel blocks stay exact."""
        from repro.geometry import kernels

        polygon = random_star_polygon(12, random.Random(3))
        count = 3 * (kernels._BLOCK_CELLS // 12) + 17
        rng = random.Random(4)
        xs = np.array([rng.random() for _ in range(count)])
        ys = np.array([rng.random() for _ in range(count)])
        mask = polygon.contains_many(xs, ys)
        scalar = [
            polygon.contains_point(Point(x, y)) for x, y in zip(xs, ys)
        ]
        assert mask.tolist() == scalar


class TestRectCircleKernels:
    @given(
        st.lists(st.tuples(finite, finite), min_size=1, max_size=64),
        finite,
        finite,
        st.floats(min_value=1e-6, max_value=1e3),
    )
    @settings(max_examples=100)
    def test_circle_matches_scalar(self, pts, cx, cy, radius):
        circle = Circle(Point(cx, cy), radius)
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        for boundary in (True, False):
            mask = circle.contains_many(xs, ys, boundary=boundary)
            assert mask.tolist() == [
                circle.contains_point(Point(x, y), boundary=boundary)
                for x, y in pts
            ]

    @given(
        st.lists(st.tuples(finite, finite), min_size=1, max_size=64),
        finite,
        finite,
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=100)
    def test_rect_matches_scalar(self, pts, min_x, min_y, width, height):
        rect = Rect(min_x, min_y, min_x + width, min_y + height)
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        mask = rect.contains_many(xs, ys)
        assert mask.tolist() == [
            rect.contains_point(Point(x, y)) for x, y in pts
        ]

    @given(
        st.lists(st.tuples(finite, finite), min_size=1, max_size=64),
        finite,
        finite,
    )
    @settings(max_examples=100)
    def test_squared_distances_bitwise_equal(self, pts, qx, qy):
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        batched = squared_distances(xs, ys, qx, qy).tolist()
        scalar = [
            Point(x, y).squared_distance_to(Point(qx, qy)) for x, y in pts
        ]
        assert batched == scalar  # exact float equality, not approx


def _polygon_of(kind: str, seed: int) -> Polygon:
    rng = random.Random(seed)
    if kind == "convex":
        return Polygon.regular(
            3 + rng.randrange(12), Point(0.5, 0.5), 0.1 + 0.3 * rng.random(), rng.random()
        )
    if kind == "concave":
        return random_simple_polygon(4 + rng.randrange(12), rng)
    return random_star_polygon(3 + rng.randrange(20), rng)


def adversarial_segments(polygon: Polygon, rng: random.Random):
    """Segments built to land on the scalar test's special cases."""
    ring = polygon.vertices
    box = polygon.mbr
    far = (box.max_x + 1.0, box.max_y + 1.0)
    segments = []
    for a, b in zip(ring, ring[1:] + ring[:1]):
        mid = ((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
        segments += [
            (far[0], far[1], a.x, a.y),  # ends exactly on a vertex
            (a.x, a.y, far[0], far[1]),  # starts exactly on a vertex
            (a.x, a.y, b.x, b.y),  # is the edge
            (a.x, a.y, mid[0], mid[1]),  # overlaps half the edge
            (2 * a.x - b.x, 2 * a.y - b.y, b.x, b.y),  # collinear, longer
            (2 * b.x - a.x, 2 * b.y - a.y, 3 * b.x - 2 * a.x, 3 * b.y - 2 * a.y),
            (a.x, a.y, a.x, a.y),  # zero length, on a vertex
            (mid[0], mid[1], mid[0], mid[1]),  # zero length, on (or by) an edge
            (a.x, box.min_y - 1.0, a.x, box.max_y + 1.0),  # through a vertex
            (box.min_x - 1.0, a.y, box.max_x + 1.0, a.y),
            (mid[0], mid[1], far[0], far[1]),  # touches the edge at one point
        ]
    inside = polygon.interior_point()
    segments += [
        (inside.x, inside.y, inside.x, inside.y),  # zero length, inside
        (inside.x, inside.y, np.nextafter(inside.x, 9.0), inside.y),
        (far[0], far[1], far[0] + 1.0, far[1]),  # wholly outside the MBR
        (far[0], far[1], far[0], far[1]),
        (box.min_x - 1.0, box.min_y - 1.0, box.max_x + 1.0, box.max_y + 1.0),
    ]
    for _ in range(60):  # short segments, like Delaunay edges, inside the MBR
        x = rng.uniform(box.min_x, box.max_x)
        y = rng.uniform(box.min_y, box.max_y)
        segments.append((x, y, x + rng.gauss(0, 0.02), y + rng.gauss(0, 0.02)))
    return segments


def _assert_crossings_match(polygon: Polygon, segments) -> None:
    columns = [np.array(column, dtype=np.float64) for column in zip(*segments)]
    got = polygon.crosses_boundary_many(*columns)
    assert got.dtype == bool
    assert got.tolist() == [polygon.crosses_boundary_xy(*s) for s in segments]


class TestCrossesBoundaryMany:
    @given(
        st.sampled_from(["convex", "concave", "star"]),
        st.integers(min_value=0, max_value=10_000),
        st.lists(
            st.tuples(*[st.floats(min_value=-0.5, max_value=1.5)] * 4),
            max_size=48,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_element_for_element(self, kind, seed, free):
        polygon = _polygon_of(kind, seed)
        segments = free + adversarial_segments(polygon, random.Random(seed))
        _assert_crossings_match(polygon, segments)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e150])
    def test_extreme_coordinate_scales(self, scale):
        ring = [(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (2.0, 1.0), (0.0, 3.0)]
        polygon = Polygon([(x * scale, y * scale) for x, y in ring])
        unit = adversarial_segments(Polygon(ring), random.Random(5))
        _assert_crossings_match(
            polygon, [tuple(v * scale for v in segment) for segment in unit]
        )

    def test_empty_input_and_block_boundaries(self):
        from repro.geometry import kernels

        polygon = random_star_polygon(12, random.Random(3))
        none = np.empty(0)
        assert polygon.crosses_boundary_many(none, none, none, none).shape == (0,)
        count = 2 * (kernels._BLOCK_CELLS // 12) + 5
        rng = np.random.default_rng(4)
        sx, sy = rng.random(count), rng.random(count)
        ex, ey = sx + rng.normal(0, 0.05, count), sy + rng.normal(0, 0.05, count)
        _assert_crossings_match(polygon, list(zip(sx, sy, ex, ey)))

    def test_deferred_share_is_reported(self, record_property):
        """How often the float filter gives up, on the workload the
        expansion produces (short segments near the boundary) and on the
        adversarial set.  Reported, not asserted: exactness never depends
        on it, only speed."""
        from repro.geometry.kernels import _crossing_decisions

        polygon = random_star_polygon(14, random.Random(8))
        rng = np.random.default_rng(9)
        count = 20_000
        sx, sy = rng.random(count), rng.random(count)
        ex, ey = sx + rng.normal(0, 0.01, count), sy + rng.normal(0, 0.01, count)
        _, unclear = _crossing_decisions(polygon, sx, sy, ex, ey)
        hard = [
            np.array(column)
            for column in zip(*adversarial_segments(polygon, random.Random(8)))
        ]
        _, unclear_hard = _crossing_decisions(polygon, *hard)
        shares = {
            "deferred_share_random_short_segments": float(unclear.mean()),
            "deferred_share_adversarial": float(unclear_hard.mean()),
        }
        for name, share in shares.items():
            record_property(name, share)
            print(f"{name}: {share:.5f}")
        assert unclear.shape == (count,)


class _ScalarOnly:
    """The protocol's two scalar predicates and nothing else."""

    def __init__(self, inner):
        self.contains_point = inner.contains_point
        self.crosses_boundary_xy = inner.crosses_boundary_xy


class TestRegionKernels:
    """One helper hands every query path a region's two array predicates."""

    def _columns(self, count=300, seed=11):
        rng = np.random.default_rng(seed)
        return rng.random(count), rng.random(count), rng.random(count), rng.random(count)

    def test_a_regions_own_kernels_are_returned_as_they_are(self):
        polygon = Polygon([(0.2, 0.2), (0.8, 0.3), (0.5, 0.5), (0.7, 0.9), (0.1, 0.6)])
        contains_many, crosses_many = region_kernels(polygon)
        assert contains_many == polygon.contains_many
        assert crosses_many == polygon.crosses_boundary_many
        circle = Circle(Point(0.5, 0.5), 0.3)
        assert region_kernels(circle)[0] == circle.contains_many

    @pytest.mark.parametrize(
        "inner",
        [
            Polygon([(0.2, 0.2), (0.8, 0.3), (0.5, 0.5), (0.7, 0.9), (0.1, 0.6)]),
            Circle(Point(0.5, 0.5), 0.3),
        ],
        ids=["polygon", "circle"],
    )
    def test_missing_kernels_are_the_scalar_tests_mapped_over_the_columns(self, inner):
        sx, sy, ex, ey = self._columns()
        contains_many, crosses_many = region_kernels(_ScalarOnly(inner))
        inside = contains_many(sx, sy)
        crossing = crosses_many(sx, sy, ex, ey)
        assert inside.dtype == bool and crossing.dtype == bool
        assert inside.tolist() == [
            inner.contains_point(Point(x, y)) for x, y in zip(sx.tolist(), sy.tolist())
        ]
        assert crossing.tolist() == [
            inner.crosses_boundary_xy(*segment)
            for segment in zip(sx.tolist(), sy.tolist(), ex.tolist(), ey.tolist())
        ]
        empty = np.empty(0)
        assert contains_many(empty, empty).shape == (0,)
        assert crosses_many(empty, empty, empty, empty).shape == (0,)

    def test_the_contains_hook_replaces_even_an_array_kernel(self):
        polygon = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        xs, ys, _, _ = self._columns(count=50)
        calls = []

        def contains(region, p):
            calls.append((region, p))
            return p.x < 0.5

        contains_many, crosses_many = region_kernels(polygon, contains)
        assert contains_many(xs, ys).tolist() == (xs < 0.5).tolist()
        assert [p for _, p in calls] == [Point(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        assert all(region is polygon for region, _ in calls)
        assert crosses_many == polygon.crosses_boundary_many  # the hook is refinement only
