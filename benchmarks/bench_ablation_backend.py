"""The Delaunay backend's build, adoption and insert costs.

The Voronoi neighbour graph is a build-time structure (the paper treats it
as part of the database) that this repository also keeps current under
writes.  ``test_build`` times the bulk build (the compiled exact insert)
at two sizes and the agreement test re-asserts that the graph is the
interpreted triangulation's.

``test_bulk_build_rates`` is the in-repo record of set-up speed and size:
a 100 000-row columnar load (STR-packed R-tree) and a 100 000-point graph
built by the compiled insert (``compiled_rows_per_s``), in rows per second
and in traced bytes per row (the ``bulk_build`` line under the pytest
summary), with the seconds at 1E4, 1E5 and 2E5 rows beside them.
Beside the compiled build's seconds sits what a boot pays instead:
``snapshot_load_s``, ``load_database`` of a graph-carrying 1E5-row
snapshot (no build, R-tree packing included), and
``served_graph_bytes_per_row``, what the adopted graph holds once a
Voronoi kNN has read it row by row (the CSR pair: there is no table).
Then the write side: ``first_write_s``, the first insert into the 1E5-row
graph (it derives the triangle arrays), the microseconds of one
``add_point`` into 1E4- and 1E5-row graphs, and
``interpreted_rows_per_s``, the bulk build where the compiled insert does
not load (as under ``CC=false``: the same inserts in Python) at 1E4 rows.
"""

import gc
import time
import tracemalloc

import numpy as np
import pytest

from benchmarks.conftest import record_benchmark
from repro.delaunay import compiled
from repro.delaunay.backends import DelaunayBackend
from repro.delaunay.triangulation import DelaunayTriangulation
from repro.core.database import SpatialDatabase
from repro.core.store import PointStore
from repro.geometry.point import Point
from repro.io.persist import load_database, save_database
from repro.workloads.generators import uniform_points
from repro.query.spec import KnnQuery

BUILD_SIZES = (1_000, 5_000)
BULK_ROWS = 100_000
BULK_SIZES = (10_000, BULK_ROWS, 200_000)
INSERT_SIZES = (10_000, BULK_ROWS)
INSERTS = 1_000


@pytest.mark.parametrize("n", BUILD_SIZES)
def test_build(benchmark, n):
    points = uniform_points(n, seed=7)
    benchmark(DelaunayBackend, points)


def test_graph_is_the_exact_triangulations():
    points = uniform_points(2_000, seed=9)
    backend = DelaunayBackend(points)
    reference = DelaunayTriangulation(points)
    for i in range(len(points)):
        assert set(backend.neighbors(i)) == set(reference.neighbors(i))


def _bulk_build(rows: int):
    """Seconds for columns -> index and for index -> CSR graph."""
    xy = np.random.default_rng(17).random((rows, 2))
    started = time.perf_counter()
    db = SpatialDatabase.from_arrays(xy[:, 0], xy[:, 1])
    index_s = time.perf_counter() - started
    started = time.perf_counter()
    db.prepare()  # the compiled build's graph, in the form area queries read
    delaunay_s = time.perf_counter() - started

    db.index.check_invariants()
    indptr, indices = db.backend.neighbor_csr()
    assert len(indptr) == rows + 1 and int(indptr[-1]) == len(indices)
    assert int(np.diff(indptr).min()) >= 2  # a triangulated vertex has >= 2
    # what a prepared database holds: columns, leaf arrays, CSR — no
    # Point and no neighbour table
    assert db.store._materialized == []
    assert db.backend._triangulation is None
    return index_s, delaunay_s


def _bulk_bytes(rows: int):
    """Traced bytes per row of the index and of the graph (store excluded)."""
    xy = np.random.default_rng(17).random((rows, 2))
    gc.collect()
    tracemalloc.start()
    try:
        db = SpatialDatabase.from_arrays(xy[:, 0], xy[:, 1])
        gc.collect()
        loaded = tracemalloc.get_traced_memory()[0]
        db.prepare()
        gc.collect()
        prepared = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    store = db.store
    columns = store._xs.nbytes + store._ys.nbytes + store._dead.nbytes
    return (loaded - columns) / rows, (prepared - loaded) / rows


def _snapshot_boot(rows: int, directory, index_bytes: float):
    """Seconds to load a graph-carrying snapshot; graph bytes per row served.

    The load is what ``serve --load`` runs: columns to a packed R-tree
    plus the adopted CSR pair, no build.  The bytes are traced over that
    load and a Voronoi kNN read — the consumer that used to copy the
    graph into a table — less the store's columns and the index's
    ``index_bytes`` per row.
    """
    xy = np.random.default_rng(17).random((rows, 2))
    built = SpatialDatabase.from_arrays(xy[:, 0], xy[:, 1])
    written = save_database(directory / "bulk", built)
    started = time.perf_counter()
    db = load_database(written, prepare=True)
    load_s = time.perf_counter() - started
    for ours, theirs in zip(db.backend.neighbor_csr(), built.backend.neighbor_csr()):
        assert np.array_equal(ours, theirs)
    del db, built

    gc.collect()
    tracemalloc.start()
    try:
        db = load_database(written)
        ids = db.query(KnnQuery(Point(0.5, 0.5), 10, method="voronoi")).ids()
        gc.collect()
        served = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(ids) == 10 and not isinstance(db.backend.neighbor_table(), list)
    store = db.store
    columns = store._xs.nbytes + store._ys.nbytes + store._dead.nbytes
    return load_s, (served - columns) / rows - index_bytes


def _writes(rows: int):
    """Seconds of the first insert into a ``rows``-row built graph (it
    derives the triangle arrays), and seconds per later insert."""
    xy = np.random.default_rng(19).random((rows, 2))
    db = SpatialDatabase.from_arrays(xy[:, 0], xy[:, 1]).prepare()
    started = time.perf_counter()
    db.insert((0.5, 0.5))
    first_s = time.perf_counter() - started
    backend = db.backend
    points = uniform_points(INSERTS, seed=23)
    started = time.perf_counter()
    for p in points:
        backend.add_point(p)
    add_point_s = (time.perf_counter() - started) / INSERTS
    assert backend.size == len(backend.neighbor_table()) == rows + 1 + INSERTS
    return first_s, add_point_s


def _interpreted_build(rows: int, monkeypatch) -> float:
    """Seconds for the bulk build where the compiled insert does not load."""
    store = PointStore()
    store.extend_array(*np.random.default_rng(29).random((2, rows)))
    with monkeypatch.context() as patched:
        patched.setattr(compiled, "library", lambda: None)
        started = time.perf_counter()
        DelaunayBackend(store.view())
        return time.perf_counter() - started


def test_bulk_build_rates(tmp_path, monkeypatch):
    """Columns to a query-ready database, both structures.

    The gated numbers are the rates at ``BULK_ROWS``; the seconds at
    every size ride along for the build-time table in docs/BENCHMARKS.md.
    """
    if compiled.library() is None:
        pytest.skip("compiled_rows_per_s needs the compiled insert (a C compiler)")
    _bulk_build(1_000)  # loading (or compiling) the insert is not build time
    seconds = {rows: _bulk_build(rows) for rows in BULK_SIZES}
    index_s, delaunay_s = seconds[BULK_ROWS]
    index_bytes, graph_bytes = _bulk_bytes(BULK_ROWS)
    snapshot_load_s, served_graph_bytes = _snapshot_boot(
        BULK_ROWS, tmp_path, index_bytes
    )
    (_, small_add_s), (first_write_s, large_add_s) = map(_writes, INSERT_SIZES)
    interpreted_s = _interpreted_build(INSERT_SIZES[0], monkeypatch)
    record_benchmark(
        "bulk_build",
        rows=BULK_ROWS,
        index_rows_per_s=round(BULK_ROWS / index_s),
        compiled_rows_per_s=round(BULK_ROWS / delaunay_s),
        index_bytes_per_row=round(index_bytes, 1),
        graph_bytes_per_row=round(graph_bytes, 1),
        snapshot_load_s=round(snapshot_load_s, 3),
        served_graph_bytes_per_row=round(served_graph_bytes, 1),
        first_write_s=round(first_write_s, 3),
        add_point_us=round(small_add_s * 1e6, 1),
        add_point_1e5_us=round(large_add_s * 1e6, 1),
        interpreted_rows_per_s=round(INSERT_SIZES[0] / interpreted_s),
        seconds={
            str(rows): {"index": round(index, 3), "delaunay": round(delaunay, 3)}
            for rows, (index, delaunay) in seconds.items()
        },
    )
