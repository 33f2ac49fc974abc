"""Property-based tests for the Delaunay/Voronoi substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from graph_oracle import is_connected
from repro.geometry.point import Point
from repro.delaunay.backends import DelaunayBackend
from repro.delaunay.triangulation import DelaunayTriangulation

# Coarse-grid coordinates provoke many exact collinear/cocircular
# configurations — the adversarial regime for a triangulator.
grid_coordinate = st.integers(min_value=0, max_value=8).map(lambda v: v / 8.0)
grid_points_strategy = st.lists(
    st.builds(Point, grid_coordinate, grid_coordinate),
    min_size=1,
    max_size=25,
)

# width=32 keeps coordinates inside the robust predicates' documented
# validity domain (no denormal-product underflow) while still generating
# adversarial values like exact zeros and ~1e-45 epsilons.
continuous_points = st.lists(
    st.builds(
        Point,
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32),
    ),
    min_size=1,
    max_size=40,
)


class TestTriangulationProperties:
    @settings(max_examples=50, deadline=None)
    @given(continuous_points)
    def test_empty_circumcircle(self, points):
        dt = DelaunayTriangulation(points)
        dt.check_delaunay_property()

    @settings(max_examples=50, deadline=None)
    @given(grid_points_strategy)
    def test_empty_circumcircle_degenerate_grid(self, points):
        dt = DelaunayTriangulation(points)
        dt.check_delaunay_property()

    @settings(max_examples=50, deadline=None)
    @given(continuous_points)
    def test_adjacency_symmetric(self, points):
        dt = DelaunayTriangulation(points)
        for i in range(len(points)):
            for j in dt.neighbors(i):
                assert i in dt.neighbors(j)

    @settings(max_examples=50, deadline=None)
    @given(grid_points_strategy)
    def test_connected(self, points):
        """Property 5 of the paper on adversarial inputs."""
        backend = DelaunayBackend(points)
        assert is_connected(backend)

    @settings(max_examples=30, deadline=None)
    @given(continuous_points)
    def test_nearest_neighbor_is_voronoi_neighbor(self, points):
        """Property 2: each point's nearest other point is a Voronoi
        neighbour (via Property 6: the NN-graph is a Delaunay subgraph)."""
        distinct = list(dict.fromkeys(points))
        if len(distinct) < 2:
            return
        dt = DelaunayTriangulation(distinct)
        for i, p in enumerate(distinct):
            nearest = min(
                (j for j in range(len(distinct)) if j != i),
                key=lambda j: distinct[j].squared_distance_to(p),
            )
            nearest_distance = distinct[nearest].squared_distance_to(p)
            neighbor_distances = [
                distinct[j].squared_distance_to(p) for j in dt.neighbors(i)
            ]
            assert min(neighbor_distances) == nearest_distance


class TestBackendEquivalenceProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(3, 60))
    def test_backend_equals_from_scratch_general_position(self, seed, n):
        """For points in general position the Delaunay triangulation is
        unique (paper Property 1), so the backend's bulk build (the
        compiled insert where it loads) must agree with the interpreted one.
        Uniform random points are in general position with probability 1;
        exact cocircular degeneracies (where both stay valid but may pick
        different diagonals) are covered by the validity test below.
        """
        from repro.workloads.generators import uniform_points

        points = uniform_points(n, seed=seed)
        backend = DelaunayBackend(points)
        reference = DelaunayTriangulation(points)
        for i in range(len(points)):
            assert set(backend.neighbors(i)) == set(reference.neighbors(i))

    @settings(max_examples=30, deadline=None)
    @given(grid_points_strategy, grid_points_strategy)
    def test_valid_on_degenerate_input_and_after_writes(self, points, more):
        """On cocircular grids the triangulations may differ, but every
        one must stay a valid neighbour structure: symmetric, connected,
        and Delaunay — also after inserting more grid points."""
        backend = DelaunayBackend(points)
        for p in more:
            backend.add_point(p)
        backend.triangulation.check_delaunay_property()
        assert is_connected(backend)
        for i in range(backend.size):
            for j in backend.neighbors(i):
                assert i in backend.neighbors(j)
