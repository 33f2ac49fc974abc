"""Point location starts next to its target: walk lengths, counted.

``DelaunayTriangulation.locate_steps`` counts triangle-to-triangle moves,
so these tests are deterministic — no clock.  The bounds are about 1.5x
what the inputs below measure: bulk build 2.3–2.7 steps per insert on all
four; live inserts 3.0–4.4, and 11.8 on the clustered input, whose dense
cells hold ~40 points where the uniform hint grid aims at four.  A walk
that started from an unrelated triangle takes ~70 at these sizes.
"""

import random

import pytest

from repro import SpatialDatabase
from repro.delaunay.triangulation import DelaunayTriangulation
from repro.geometry.point import Point
from repro.workloads.generators import clustered_points, uniform_points

BUILD_STEPS_MAX = 4.0
INSERT_STEPS_MAX = 8.0
CLUSTERED_INSERT_STEPS_MAX = 18.0


def _clustered():
    rows = clustered_points(5500, seed=3, clusters=5)
    random.Random(5).shuffle(rows)
    return rows[:5000], rows[5000:]


#: name -> (5 000 build rows, 500 later inserts from the same distribution)
INPUTS = {
    "uniform": lambda: (uniform_points(5000, seed=3), uniform_points(500, seed=4)),
    "clustered": _clustered,
    # integer coordinates: every cell's corners exactly cocircular, every
    # row and column exactly collinear
    "exact-grid": lambda: (
        [Point(float(i), float(j)) for i in range(71) for j in range(71)],
        [Point(70.0 * p.x, 70.0 * p.y) for p in uniform_points(500, seed=6)],
    ),
    "x-sorted": lambda: (
        sorted(uniform_points(5000, seed=7), key=lambda p: p.x),
        uniform_points(500, seed=8),
    ),
}


def corners(dt, slot):
    return tuple(dt._tri[3 * slot : 3 * slot + 3])


def assert_hints_live(dt):
    """Every remembered triangle is finite and has a vertex in its cell
    (every slot of the arrays is a live triangle between inserts)."""
    for cell, slot in enumerate(dt._hint):
        if slot == -1:
            continue
        assert min(corners(dt, slot)) >= 0, (cell, slot)
        assert cell in {
            dt._hint_cell(dt._xs[v], dt._ys[v]) for v in corners(dt, slot)
        }


def assert_symmetric_and_self_free(dt):
    for i in range(len(dt)):
        neighbors = dt.neighbors(i)
        assert i not in neighbors
        for j in neighbors:
            assert i in dt.neighbors(j)


def assert_same_neighbor_sets(dt, reference):
    assert len(dt) == len(reference)
    for i in range(len(dt)):
        assert set(dt.neighbors(i)) == set(reference.neighbors(i)), i


@pytest.mark.parametrize("case", sorted(INPUTS))
def test_walks_are_short_in_the_build_and_after_it(case):
    rows, later = INPUTS[case]()
    dt = DelaunayTriangulation(rows)
    build_steps = dt.locate_steps
    assert build_steps / len(rows) <= BUILD_STEPS_MAX
    for p in later:
        dt.add_point(p)
    bound = CLUSTERED_INSERT_STEPS_MAX if case == "clustered" else INSERT_STEPS_MAX
    assert (dt.locate_steps - build_steps) / len(later) <= bound
    assert_hints_live(dt)


def test_far_outliers_do_not_lengthen_the_build_walks():
    # The cluster is a ten-millionth of the bounding box wide; the curve
    # must still tell its points apart.
    rng = random.Random(10)
    rows = [
        Point(0.5 + rng.gauss(0.0, 1e-7), 0.5 + rng.gauss(0.0, 1e-7))
        for _ in range(3000)
    ] + [Point(0.0, 0.0), Point(1.0, 1.0)]
    dt = DelaunayTriangulation(rows)
    assert dt.locate_steps / len(rows) <= BUILD_STEPS_MAX


def test_extend_into_a_built_database_walks_from_hints():
    points = uniform_points(10_000, seed=9)
    db = SpatialDatabase.from_points(points[:8000], backend_kind="pure").prepare()
    backend = db.backend
    before = backend.triangulation.locate_steps
    db.extend(points[8000:])
    assert db.backend is backend  # maintained, not rebuilt
    assert backend.size == 10_000
    steps = backend.triangulation.locate_steps - before
    assert steps / 2000 <= INSERT_STEPS_MAX


class TestWhatAHintCanGetWrong:
    def test_the_hinted_triangle_dies_in_the_next_cavity(self):
        # Each insert goes to the centroid of the triangle one cell
        # remembers, so its cavity deletes exactly that triangle, and the
        # cell must come out of the re-fan pointing at a live one.
        base = uniform_points(2000, seed=11)
        dt = DelaunayTriangulation(base)
        cell = dt._hint_cell(0.5, 0.5)
        added = []
        before = dt.locate_steps
        for _ in range(20):
            remembered = dt._hint[cell]
            triangle = corners(dt, remembered)
            added.append(
                Point(
                    sum(dt._xs[v] for v in triangle) / 3.0,
                    sum(dt._ys[v] for v in triangle) / 3.0,
                )
            )
            dt.add_point(added[-1])
            # the slot may be refilled, never with the dead triangle
            assert corners(dt, remembered) != triangle
            assert_hints_live(dt)
        assert (dt.locate_steps - before) / len(added) <= INSERT_STEPS_MAX
        assert_same_neighbor_sets(dt, DelaunayTriangulation(base + added))

    def test_a_hint_changes_the_walk_not_the_result(self):
        base = uniform_points(1500, seed=13)
        later = uniform_points(200, seed=14)
        hinted = DelaunayTriangulation(base)
        unhinted = DelaunayTriangulation(base)
        for p in later:
            unhinted._hint = [-1] * len(unhinted._hint)  # always "missing"
            hinted.add_point(p)
            unhinted.add_point(p)
        assert_same_neighbor_sets(hinted, unhinted)
        assert hinted.locate_steps < unhinted.locate_steps

    def test_points_outside_the_build_extent(self):
        # Border cells answer for everything outside the grid.
        base = uniform_points(400, seed=15)
        outside = [
            Point(3.0, 3.0),
            Point(-2.0, 0.5),
            Point(0.5, -4.0),
            Point(1.5, -0.5),
            Point(3.1, 2.9),
        ]
        dt = DelaunayTriangulation(base)
        for p in outside:
            dt.add_point(p)
            assert_hints_live(dt)
        assert_same_neighbor_sets(dt, DelaunayTriangulation(base + outside))
        # and back inside afterwards
        inside = uniform_points(50, seed=16)
        for p in inside:
            dt.add_point(p)
        assert_same_neighbor_sets(
            dt, DelaunayTriangulation(base + outside + inside)
        )

    def test_far_outside(self):
        base = uniform_points(300, seed=17)
        far = [
            Point(2.0e4, -1.0e4),
            Point(-9.0e5, 9.0e5),
            Point(0.5, 5.0e5),
            Point(-5.0e6, 0.5),
            Point(1.0e15, 1.0e15),
        ]
        dt = DelaunayTriangulation(base)
        for p in far:
            assert dt.neighbors(dt.add_point(p))
        dt.check_delaunay_property()
        assert_symmetric_and_self_free(dt)
        assert_hints_live(dt)
        assert_same_neighbor_sets(dt, DelaunayTriangulation(base + far))

    def test_a_duplicate_location_changes_no_triangle(self):
        base = uniform_points(300, seed=19)
        dt = DelaunayTriangulation(base)
        triangles, hints = list(dt._tri), list(dt._hint)
        index = dt.add_point(base[41])
        assert dt.alias_of[index] == 41
        assert (list(dt._tri), list(dt._hint)) == (triangles, hints)
        assert_same_neighbor_sets(dt, DelaunayTriangulation(base + [base[41]]))

    def test_chain_to_first_triangle(self):
        # A collinear build has a zero-height extent and no finite
        # triangle; the first point off the line creates them all.
        line = [Point(i / 16.0, 0.25) for i in range(17)]
        dt = DelaunayTriangulation(line)
        assert list(dt.triangles()) == []
        assert_hints_live(dt)
        extra = [Point(0.5, 0.75), Point(0.25, -0.5), Point(0.51, 0.76)]
        for p in extra:
            dt.add_point(p)
            assert_hints_live(dt)
        dt.check_delaunay_property()
        assert_same_neighbor_sets(dt, DelaunayTriangulation(line + extra))

    def test_a_single_point_grows_into_a_triangulation(self):
        points = uniform_points(40, seed=20)
        dt = DelaunayTriangulation(points[:1])
        for p in points[1:]:
            dt.add_point(p)
            assert_hints_live(dt)
        assert_same_neighbor_sets(dt, DelaunayTriangulation(points))
