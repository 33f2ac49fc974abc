"""Columnar vs scalar execution — exact equivalence on every query kind.

``SpatialDatabase(vectorized=True)`` (the default) runs the columnar
hot paths: bulk index probes, array refinement kernels, CSR wave BFS,
batched kNN distances.  ``vectorized=False`` runs the original scalar
per-point loops, kept as the oracle.  This suite drives *random traces
of every query kind* — area (both methods), window (index and voronoi),
kNN (index/voronoi, bounded and ``k=None`` streaming), nearest, and
nested composites — through both databases and asserts the results are
**byte-identical**: same ids, same distances (exact float equality, not
approximate), on the single-query path, the batch path, and the
streaming path.

Everything runs under ``simplefilter("error", DeprecationWarning)``:
the columnar paths must not touch any deprecated surface.
"""

import gc
import random
import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import voronoi_query
from repro.core.database import SpatialDatabase
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

pytestmark = pytest.mark.usefixtures("requires_scipy")

N_POINTS = 500

_PAIR = {}


def database_pair():
    """One vectorized database and its scalar twin over the same rows."""
    if not _PAIR:
        rng = random.Random(20200417)
        points = [Point(rng.random(), rng.random()) for _ in range(N_POINTS)]
        _PAIR["vec"] = SpatialDatabase.from_points(
            points, backend_kind="scipy"
        ).prepare()
        _PAIR["scalar"] = SpatialDatabase.from_points(
            points, backend_kind="scipy", vectorized=False
        ).prepare()
    return _PAIR["vec"], _PAIR["scalar"]


@contextmanager
def deprecations_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


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
def rects(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return Rect(x1, y1, x2 + 1e-3, y2 + 1e-3)


limits = st.one_of(st.none(), st.integers(min_value=0, max_value=40))


@st.composite
def area_specs(draw):
    return AreaQuery(
        draw(regions()), method=draw(area_methods), limit=draw(limits)
    )


@st.composite
def window_specs(draw):
    return WindowQuery(
        draw(rects()),
        method=draw(st.sampled_from(["auto", "index", "voronoi"])),
        limit=draw(limits),
    )


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


def assert_same_result(spec, vec_result, scalar_result):
    assert vec_result.ids() == scalar_result.ids(), spec
    anchor = getattr(spec, "point", None)
    if anchor is not None:
        # exact float equality: the batched distance kernels perform the
        # scalar operations bit for bit
        assert vec_result.distances() == scalar_result.distances(), spec


# -- the suite ----------------------------------------------------------------


class TestColumnarEquivalence:
    @given(trace=st.lists(any_spec, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_single_and_batch_paths_agree(self, trace):
        db_vec, db_scalar = database_pair()
        with deprecations_are_errors():
            for spec in trace:
                assert_same_result(
                    spec, db_vec.query(spec), db_scalar.query(spec)
                )
            vec_batch = db_vec.query_batch(trace)
            scalar_batch = db_scalar.query_batch(trace)
            for spec, vec_result, scalar_result in zip(
                trace, vec_batch, scalar_batch
            ):
                assert_same_result(spec, vec_result, scalar_result)

    @given(
        qx=coords,
        qy=coords,
        n=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_streaming_knn_agrees(self, qx, qy, n):
        db_vec, db_scalar = database_pair()
        spec = KnnQuery((qx, qy), None)
        with deprecations_are_errors():
            assert (
                db_vec.query(spec).first(n) == db_scalar.query(spec).first(n)
            )

    @given(spec=nested_composites, n=st.integers(min_value=0, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_streaming_composites_agree(self, spec, n):
        db_vec, db_scalar = database_pair()
        with deprecations_are_errors():
            assert (
                db_vec.query(spec).first(n) == db_scalar.query(spec).first(n)
            )

    @given(region=regions())
    @settings(max_examples=30, deadline=None)
    def test_predicate_filtering_agrees(self, region):
        db_vec, db_scalar = database_pair()
        spec = AreaQuery(region, predicate=lambda p: p.x < 0.5)
        with deprecations_are_errors():
            assert db_vec.query(spec).ids() == db_scalar.query(spec).ids()

    def test_classify_against_agrees(self):
        db_vec, db_scalar = database_pair()
        rng = random.Random(5)
        with deprecations_are_errors():
            for _ in range(5):
                area = random_query_polygon(query_size=0.1, rng=rng)
                assert db_vec.classify_against(
                    area
                ) == db_scalar.classify_against(area)


class TestEquivalenceAcrossMutation:
    def test_inserts_keep_the_paths_identical(self):
        rng = random.Random(99)
        points = [Point(rng.random(), rng.random()) for _ in range(300)]
        with deprecations_are_errors():
            db_vec = SpatialDatabase.from_points(points)
            db_scalar = SpatialDatabase.from_points(
                points, vectorized=False
            )
            area = random_query_polygon(query_size=0.2, rng=rng)
            before_vec = db_vec.query(AreaQuery(area)).ids()
            assert before_vec == db_scalar.query(AreaQuery(area)).ids()
            fresh = [Point(rng.random(), rng.random()) for _ in range(50)]
            for p in fresh[:10]:
                assert db_vec.insert(p) == db_scalar.insert(p)
            db_vec.extend(fresh[10:])
            db_scalar.extend(fresh[10:])
            for method in ("traditional", "voronoi"):
                assert (
                    db_vec.query(AreaQuery(area, method=method)).ids()
                    == db_scalar.query(AreaQuery(area, method=method)).ids()
                )
            spec = KnnQuery((0.4, 0.6), 12, method="voronoi")
            assert db_vec.query(spec).ids() == db_scalar.query(spec).ids()


def test_scalar_twin_reports_vectorized_off():
    db_vec, db_scalar = database_pair()
    assert db_vec.vectorized and not db_scalar.vectorized
    assert db_vec.points == db_scalar.points


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
    """A prepared, scipy-backed database answers area queries off the
    store's columns, the index's leaf arrays and the CSR graph alone."""

    @pytest.mark.parametrize("kind", ["plain", "tombstones", "duplicates"])
    def test_no_point_and_no_table_yet_the_scalar_answers(self, kind):
        xs, ys = _object_free_columns(kind)
        db_vec = SpatialDatabase.from_arrays(xs, ys, backend_kind="scipy").prepare()
        db_scalar = SpatialDatabase.from_arrays(
            xs, ys, backend_kind="scipy", vectorized=False
        ).prepare()
        if kind == "tombstones":
            for row in random.Random(79).sample(range(3000), 400):
                db_vec.delete(row)
                db_scalar.delete(row)
        widest = 0
        with deprecations_are_errors():
            for spec in _object_free_specs():
                got, expected = db_vec.query(spec), db_scalar.query(spec)
                assert got.ids() == expected.ids(), spec
                for counter in ("candidates", "validations", "redundant_validations"):
                    assert getattr(got.stats, counter) == getattr(
                        expected.stats, counter
                    ), (spec, counter)
                widest = max(widest, got.stats.result_size)
        # results in the hundreds: the expansion left the small-wave loop
        assert widest > 4 * voronoi_query._WAVE_MIN
        assert db_vec.store._materialized == []
        assert getattr(db_vec.backend, "_neighbor_table", None) is None

    def test_index_and_graph_fit_the_per_row_budget(self):
        """160 B a row is the line; measured 63 (index) + 56 (graph)."""
        import scipy.spatial  # noqa: F401  (its import is not the database's)

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
        assert (traced - columns) / rows <= 150
