"""Tests for incremental point insertion into the triangulation."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.delaunay.backends import DelaunayBackend
from repro.delaunay.triangulation import DelaunayTriangulation
from repro.workloads.generators import uniform_points


def _rows(dt):
    return [dt.neighbors(i) for i in range(len(dt))]


class TestAddPoint:
    def test_returns_new_index(self):
        dt = DelaunayTriangulation(uniform_points(20, seed=211))
        index = dt.add_point(Point(0.5, 0.5))
        assert index == 20 and len(dt) == 21
        assert all(20 in dt.neighbors(j) for j in dt.neighbors(20))

    def test_matches_batch_rebuild(self):
        base = uniform_points(100, seed=213)
        extra = uniform_points(50, seed=214)
        incremental = DelaunayTriangulation(base)
        for p in extra:
            incremental.add_point(p)
        batch = DelaunayTriangulation(base + extra)
        for i in range(150):
            assert set(incremental.neighbors(i)) == set(batch.neighbors(i)), i

    def test_delaunay_property_preserved(self):
        dt = DelaunayTriangulation(uniform_points(60, seed=215))
        for p in uniform_points(30, seed=216):
            dt.add_point(p)
        dt.check_delaunay_property()

    def test_only_the_new_points_neighbours_change(self):
        """Rows outside the cavity's boundary keep their exact neighbours."""
        dt = DelaunayTriangulation(uniform_points(120, seed=217))
        before = _rows(dt)
        index = dt.add_point(Point(0.31, 0.77))
        changed = {i for i in range(120) if dt.neighbors(i) != before[i]}
        assert changed == set(dt.neighbors(index))

    def test_an_insert_is_local(self):
        """A single insert into uniform data touches O(1) rows."""
        dt = DelaunayTriangulation(uniform_points(500, seed=219))
        before = _rows(dt)
        dt.add_point(Point(0.5, 0.5))
        assert sum(dt.neighbors(i) != before[i] for i in range(500)) < 30

    def test_duplicate_insert(self):
        base = uniform_points(40, seed=221)
        dt = DelaunayTriangulation(base)
        index = dt.add_point(base[7])
        assert dt.alias_of[index] == 7
        assert 7 in dt.neighbors(index)
        assert index in dt.neighbors(7)
        batch = DelaunayTriangulation(base + [base[7]])
        for i in range(41):
            assert set(dt.neighbors(i)) == set(batch.neighbors(i)), i

    def test_insert_escaping_collinear_chain(self):
        line = [Point(float(i), 0.0) for i in range(5)]
        dt = DelaunayTriangulation(line)
        dt.add_point(Point(2.0, 3.0))
        batch = DelaunayTriangulation(line + [Point(2.0, 3.0)])
        for i in range(6):
            assert set(dt.neighbors(i)) == set(batch.neighbors(i)), i

    def test_insert_extending_collinear_chain(self):
        line = [Point(float(i), 0.0) for i in range(5)]
        dt = DelaunayTriangulation(line)
        dt.add_point(Point(7.0, 0.0))  # still collinear
        assert set(dt.neighbors(4)) == {3, 5}
        assert dt.neighbors(5) == (4,)

    def test_far_outside_point_is_inserted(self):
        # Ghost triangles on the hull: no insert is too far outside.
        base = uniform_points(20, seed=223)
        dt = DelaunayTriangulation(base)
        dt.add_point(Point(1e12, 0.0))
        dt.check_delaunay_property()
        batch = DelaunayTriangulation(base + [Point(1e12, 0.0)])
        assert _rows(dt) == _rows(batch)

    def test_point_on_hull_outside(self):
        dt = DelaunayTriangulation(uniform_points(50, seed=225))
        dt.add_point(Point(3.0, 3.0))
        batch = DelaunayTriangulation(
            uniform_points(50, seed=225) + [Point(3.0, 3.0)]
        )
        for i in range(51):
            assert set(dt.neighbors(i)) == set(batch.neighbors(i)), i

    def test_point_on_a_hull_edge(self):
        # exactly on the edge between two hull corners: the hull edge splits
        square = [Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0)]
        dt = DelaunayTriangulation(square + [Point(0.25, 0.5)])
        dt.add_point(Point(0.5, 0.0))
        dt.check_delaunay_property()
        assert {0, 1} <= set(dt.neighbors(5))
        assert 1 not in dt.neighbors(0)

    # width=32: adversarial coordinates (0.0, ~1e-45 tiny values) without
    # the denormal-product underflow that sits outside the predicates'
    # documented validity domain (see repro.geometry.predicates).
    @settings(max_examples=20, deadline=None)
    @given(
        base_seed=st.integers(0, 500),
        n=st.integers(3, 60),
        inserts=st.lists(
            st.tuples(
                st.floats(
                    min_value=0.0, max_value=1.0, allow_nan=False, width=32
                ),
                st.floats(
                    min_value=0.0, max_value=1.0, allow_nan=False, width=32
                ),
            ),
            min_size=1,
            max_size=15,
        ),
    )
    def test_incremental_equals_batch_property(self, base_seed, n, inserts):
        base = uniform_points(n, seed=base_seed)
        extra = [Point(x, y) for x, y in inserts]
        incremental = DelaunayTriangulation(base)
        for p in extra:
            incremental.add_point(p)
        incremental.check_delaunay_property()
        batch = DelaunayTriangulation(base + extra)
        for i in range(n + len(extra)):
            assert set(incremental.neighbors(i)) == set(batch.neighbors(i))


class TestBackendIncremental:
    def test_neighbor_table_patched(self):
        backend = DelaunayBackend(uniform_points(80, seed=227))
        new_index = backend.add_point(Point(0.4, 0.4))
        table_after = backend.neighbor_table()
        assert len(table_after) == 81
        assert backend.size == 81
        # Patched rows match fresh neighbour reads everywhere.
        for i in range(81):
            assert table_after[i] == backend.neighbors(i), i
        # And the new point really is wired in.
        assert table_after[new_index]

    def test_a_frozen_prefix_keeps_its_graph(self):
        """``table[:bound]`` before writes reads the same rows after them,
        through rewrites of those rows and re-packs of the storage."""
        backend = DelaunayBackend(uniform_points(200, seed=229))
        backend.add_point(Point(0.2, 0.9))  # the triangles now exist
        frozen = backend.neighbor_table()[:201]
        before = list(frozen)
        for p in uniform_points(500, seed=230):
            backend.add_point(p)
            if backend.size % 100 == 0:
                backend.neighbor_csr()  # packs the rows into new arrays
        assert list(frozen) == before
        assert backend.neighbor_table()[:201] != before

    def test_the_csr_follows_the_writes(self):
        points = uniform_points(300, seed=231)
        backend = DelaunayBackend(points[:100])
        first = backend.neighbor_csr()
        for p in points[100:]:
            backend.add_point(p)
        assert backend.neighbor_csr() is not first
        reference = DelaunayTriangulation(points).csr()
        for ours, theirs in zip(backend.neighbor_csr(), reference):
            assert ours.tolist() == theirs.tolist()
