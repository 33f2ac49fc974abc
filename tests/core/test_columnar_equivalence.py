"""The array-native execution against the oracle, on every query kind.

A database runs one execution of each algorithm: bulk index probes,
array refinement kernels, the CSR wave BFS, batched kNN distances.  This
suite drives *random traces of every query kind* — area (both methods),
window (index and voronoi), kNN (index/voronoi, bounded and ``k=None``
streaming), nearest, and nested composites — through it and asserts the
ids equal ``tests/oracle.py``'s brute-force scan (and the distances the
exact floats that follow from them) on the single-query path, the batch
path and the streaming path; for area queries the counters the paper
reports equal the oracle's textbook queue and filter–refine loop.
"""

import gc
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    assert_paper_counters,
    brute_force,
    brute_force_classes,
    live_rows,
    reference_area,
)
from repro.core import voronoi_query
from repro.core.database import SpatialDatabase
from repro.delaunay.backends import CsrRows
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.random_shapes import random_query_polygon
from repro.geometry.rectangle import Rect
from repro.query.spec import (
    AreaQuery,
    DifferenceQuery,
    IntersectionQuery,
    KnnQuery,
    NearestQuery,
    UnionQuery,
    WindowQuery,
)


N_POINTS = 500

_SHARED = {}


def database():
    """One prepared database and the ``{row: (x, y)}`` model of its rows."""
    if not _SHARED:
        rng = random.Random(20200417)
        points = [Point(rng.random(), rng.random()) for _ in range(N_POINTS)]
        db = SpatialDatabase.from_points(points, backend_kind="scipy").prepare()
        _SHARED["db"] = db
        _SHARED["rows"] = live_rows(db)
    return _SHARED["db"], _SHARED["rows"]


# -- spec strategies ----------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**20)
coords = st.floats(min_value=-0.2, max_value=1.2)
area_methods = st.sampled_from(["auto", "traditional", "voronoi"])


@st.composite
def polygons(draw):
    rng = random.Random(draw(seeds))
    query_size = rng.choice([0.005, 0.02, 0.08, 0.3])
    return random_query_polygon(query_size=query_size, rng=rng)


@st.composite
def regions(draw):
    if draw(st.booleans()):
        return draw(polygons())
    return Circle(
        Point(draw(coords), draw(coords)),
        draw(st.floats(min_value=0.01, max_value=0.4)),
    )


@st.composite
def rects(draw, within=coords):
    x1, x2 = sorted((draw(within), draw(within)))
    y1, y2 = sorted((draw(within), draw(within)))
    return Rect(x1, y1, x2 + 1e-3, y2 + 1e-3)


# Windows that Algorithm 1 may execute stay inside the data's convex
# hull: a sliver lying along the outside of the hull is the one shape the
# expansion is known to lose rows on (pinned below).
hull_interior = st.floats(min_value=0.05, max_value=0.95)


limits = st.one_of(st.none(), st.integers(min_value=0, max_value=40))


@st.composite
def area_specs(draw):
    return AreaQuery(
        draw(regions()), method=draw(area_methods), limit=draw(limits)
    )


@st.composite
def window_specs(draw):
    method = draw(st.sampled_from(["auto", "index", "voronoi"]))
    rect = draw(rects() if method == "index" else rects(within=hull_interior))
    return WindowQuery(rect, method=method, limit=draw(limits))


@st.composite
def knn_specs(draw):
    k = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=30)))
    return KnnQuery(
        Point(draw(coords), draw(coords)),
        k,
        method=draw(st.sampled_from(["auto", "index", "voronoi"])),
        limit=draw(limits) if k is not None else draw(
            st.integers(min_value=0, max_value=40)
        ),
    )


@st.composite
def nearest_specs(draw):
    return NearestQuery(Point(draw(coords), draw(coords)))


region_leaves = st.one_of(area_specs(), window_specs())


@st.composite
def composite_specs(draw, children=region_leaves):
    kind = draw(
        st.sampled_from([UnionQuery, IntersectionQuery, DifferenceQuery])
    )
    parts = draw(st.lists(children, min_size=2, max_size=3))
    return kind(tuple(parts), limit=draw(limits))


nested_composites = st.one_of(
    composite_specs(),
    composite_specs(children=st.one_of(region_leaves, composite_specs())),
)

any_spec = st.one_of(
    area_specs(),
    window_specs(),
    knn_specs(),
    nearest_specs(),
    nested_composites,
)


def assert_matches_oracle(spec, result, rows):
    expected = brute_force(spec, rows)
    assert result.ids() == expected, spec
    anchor = getattr(spec, "point", None)
    if anchor is not None:
        # exact float equality: a distance is a function of the row alone
        assert result.distances() == [
            anchor.distance_to(Point(*rows[row])) for row in expected
        ], spec


# -- the suite ----------------------------------------------------------------


class TestColumnarEquivalence:
    @given(trace=st.lists(any_spec, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_single_and_batch_paths_agree(self, trace):
        db, rows = database()
        for spec in trace:
            assert_matches_oracle(spec, db.query(spec), rows)
        for spec, result in zip(trace, db.query_batch(trace)):
            assert_matches_oracle(spec, result, rows)

    @given(
        qx=coords,
        qy=coords,
        n=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_streaming_knn_agrees(self, qx, qy, n):
        db, rows = database()
        spec = KnnQuery((qx, qy), None)
        assert db.query(spec).first(n) == brute_force(spec, rows)[:n]

    @given(spec=nested_composites, n=st.integers(min_value=0, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_streaming_composites_agree(self, spec, n):
        db, rows = database()
        assert db.query(spec).first(n) == brute_force(spec, rows)[:n]

    @given(region=regions())
    @settings(max_examples=30, deadline=None)
    def test_predicate_filtering_agrees(self, region):
        db, rows = database()
        spec = AreaQuery(region, predicate=lambda p: p.x < 0.5)
        assert db.query(spec).ids() == brute_force(spec, rows)

    def test_classify_against_agrees(self):
        db, rows = database()
        rng = random.Random(5)
        for _ in range(5):
            area = random_query_polygon(query_size=0.1, rng=rng)
            assert db.classify_against(area) == brute_force_classes(db, area, rows)


class TestEquivalenceAcrossMutation:
    def test_inserts_keep_the_paths_identical(self):
        rng = random.Random(99)
        points = [Point(rng.random(), rng.random()) for _ in range(300)]
        db = SpatialDatabase.from_points(points)
        area = random_query_polygon(query_size=0.2, rng=rng)
        spec = AreaQuery(area)
        assert db.query(spec).ids() == brute_force(spec, live_rows(db))
        fresh = [Point(rng.random(), rng.random()) for _ in range(50)]
        for offset, p in enumerate(fresh[:10]):
            assert db.insert(p) == 300 + offset
        db.extend(fresh[10:])
        rows = live_rows(db)
        assert len(rows) == 350
        for method in ("traditional", "voronoi"):
            spec = AreaQuery(area, method=method)
            assert db.query(spec).ids() == brute_force(spec, rows)
        spec = KnnQuery((0.4, 0.6), 12, method="voronoi")
        assert db.query(spec).ids() == brute_force(spec, rows)


@pytest.mark.xfail(
    strict=True,
    reason="Algorithm 1 expands along Delaunay edges and there are none "
    "outside the convex hull: a sliver lying along the hull's outside "
    "strands the expansion at its seed.  Found when this suite was "
    "re-targeted from the scalar twin (which agreed on the wrong answer) "
    "to brute force; not fixed here.",
)
def test_sliver_along_the_outside_of_the_hull():
    db, rows = database()
    spec = WindowQuery(Rect(0.0, 0.0, 0.001, 1.126), method="voronoi")
    assert brute_force(spec, rows) == [398, 477]
    assert db.query(spec).ids() == [398, 477]


def test_there_is_no_execution_switch():
    """``vectorized=`` is gone and is not swallowed as an index option."""
    with pytest.raises(TypeError):
        SpatialDatabase(vectorized=False)
    with pytest.raises(TypeError):
        SpatialDatabase.from_points([Point(0.1, 0.2)], vectorized=False)
    with pytest.raises(TypeError):
        SpatialDatabase.from_arrays([0.1], [0.2], vectorized=False)
    assert not hasattr(database()[0], "vectorized")


# -- no Python object per row -------------------------------------------------


def _object_free_columns(kind):
    rng = np.random.default_rng(77)
    if kind == "duplicates":  # 900 locations, 3 to 4 rows on each
        xs = rng.integers(0, 30, 3000) / 30.0
        ys = rng.integers(0, 30, 3000) / 30.0
    else:
        xs, ys = rng.random(3000), rng.random(3000)
    return xs, ys


def _object_free_specs():
    rng = random.Random(78)
    regions = [random_query_polygon(query_size=size, rng=rng) for size in (0.3, 0.02)]
    regions += [
        Polygon.from_rect(Rect(0.2, 0.3, 0.7, 0.8)),
        Circle(Point(0.45, 0.55), 0.25),
        Circle(Point(0.9, 0.1), 0.05),
    ]
    return [
        AreaQuery(region, method=method)
        for region in regions
        for method in ("voronoi", "traditional")
    ]


class TestObjectFreeReadPath:
    """A prepared database answers area queries off the
    store's columns, the index's leaf arrays and the CSR graph alone."""

    @pytest.mark.parametrize("kind", ["plain", "tombstones", "duplicates"])
    def test_no_point_and_no_table_yet_the_reference_answers(self, kind):
        xs, ys = _object_free_columns(kind)
        db = SpatialDatabase.from_arrays(xs, ys, backend_kind="scipy").prepare()
        # The reference queue reads Points and the neighbour table: it
        # runs on a twin, so the assertions below are about ``db`` alone.
        twin = SpatialDatabase.from_arrays(xs, ys, backend_kind="scipy").prepare()
        if kind == "tombstones":
            for row in random.Random(79).sample(range(3000), 400):
                db.delete(row)
                twin.delete(row)
        rows = live_rows(twin)
        widest = 0
        for spec in _object_free_specs():
            got = db.query(spec)
            assert got.ids() == brute_force(spec, rows), spec
            assert_paper_counters(got.stats, reference_area(twin, spec).stats, spec)
            widest = max(widest, got.stats.result_size)
        # results in the hundreds: the expansion left the small-wave loop
        assert widest > 4 * voronoi_query._WAVE_MIN
        assert db.store._materialized == []
        assert db.backend._triangulation is None  # reads build no triangles

    def test_index_and_graph_fit_the_per_row_budget(self, requires_compiled):
        """105 B a row is the line; measured 64 (index) + 28 (graph), where an
        int64 graph (56) made 120."""
        rows = 50_000
        rng = np.random.default_rng(80)
        xs, ys = rng.random(rows), rng.random(rows)
        gc.collect()
        tracemalloc.start()
        try:
            db = SpatialDatabase.from_arrays(xs, ys, backend_kind="scipy").prepare()
            gc.collect()
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        store = db.store
        columns = store._xs.nbytes + store._ys.nbytes + store._dead.nbytes
        assert (traced - columns) / rows <= 105

    def test_the_graph_build_peaks_at_most_96_bytes_a_row(self, requires_compiled):
        """96 B a row is the line; measured 72.1: the compiled build's int32
        ``tri`` and ``adj`` (24 B a row each, about two slots a row), ``mark``,
        ``by_start``, ``chain`` and the int64 insertion order.  The same
        arrays in int64 peaked at 136.1."""
        rows = 50_000
        rng = np.random.default_rng(82)
        db = SpatialDatabase.from_arrays(rng.random(rows), rng.random(rows))
        gc.collect()
        tracemalloc.start()
        try:
            db.prepare()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert db.backend.size == rows
        assert peak / rows <= 96

    def test_vertex_at_a_time_reads_hold_one_graph_and_no_table(self, requires_compiled):
        """The kNN walks and a batch of Voronoi reads use the CSR through a
        view: the per-row budget of the test above still holds after them."""
        rows = 50_000
        rng = np.random.default_rng(81)
        xs, ys = rng.random(rows), rng.random(rows)
        model = dict(enumerate(zip(xs.tolist(), ys.tolist())))
        walked = [
            KnnQuery(Point(0.4 + 0.004 * i, 0.6), 9, method="voronoi")
            for i in range(8)
        ] + [
            AreaQuery(Circle(Point(0.41 + 0.004 * i, 0.61), 0.01), method="voronoi")
            for i in range(4)
        ]
        streamed = KnnQuery(Point(0.7, 0.2), None)
        gc.collect()
        tracemalloc.start()
        try:
            db = SpatialDatabase.from_arrays(xs, ys, backend_kind="scipy").prepare()
            answers = [db.query(spec).ids() for spec in walked[:2]]
            first = db.query(streamed).first(25)  # under a store snapshot
            batch = db.query_batch(walked, use_cache=False)
            answers += [result.ids() for result in batch]
            del batch
            gc.collect()
            traced = tracemalloc.get_traced_memory()[0]
            table = db.backend.neighbor_table()
            before = tracemalloc.get_traced_memory()[0]
            prefix = table[: rows - 7]
            prefix_bytes = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert answers == [brute_force(spec, model) for spec in walked[:2] + walked]
        assert first == brute_force(streamed, model)[:25]
        assert isinstance(table, CsrRows) and not isinstance(table, list)
        assert db.backend._triangulation is None
        store = db.store
        columns = store._xs.nbytes + store._ys.nbytes + store._dead.nbytes
        assert (traced - columns) / rows <= 105
        # the streamed read's frozen graph is a view of the same arrays
        assert isinstance(prefix, CsrRows) and len(prefix) == rows - 7
        assert prefix_bytes < 1024
        assert prefix[rows - 8] == table[rows - 8] == db.backend.neighbors(rows - 8)
        with pytest.raises(IndexError):
            prefix[rows - 7]
