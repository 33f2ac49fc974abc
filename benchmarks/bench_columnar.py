"""Columnar store + vectorized hot paths — the acceptance speedups.

Not a paper artefact: this bench gates the columnar refactor — the
:class:`~repro.core.store.PointStore` coordinate columns, the bulk index
probes (:meth:`~repro.index.base.SpatialIndex.window_ids_array`), and
the vectorized refinement kernels (:mod:`repro.geometry.kernels`) —
against the scalar per-point fallbacks (``SpatialDatabase(
vectorized=False)``), which remain in the tree as the equivalence
oracle.

The workload is the paper's worst case for refinement cost: **large
concave polygons over 100k points**.  The MBR of an irregular star
polygon is mostly *outside* the polygon, so the traditional method's
filter step hands the refinement a candidate set dominated by redundant
validations — exactly where a per-candidate Python test hurts most and
one array kernel pays off.

Acceptance assertions, results recorded in ``BENCH_pr.json`` and
``docs/BENCHMARKS.md``:

* ``test_columnar_refinement_speedup`` — the vectorized traditional
  path answers the refinement-heavy trace at least **2x** faster than
  the scalar path, with byte-identical ids.
* ``test_columnar_voronoi_speedup`` — the wave-vectorized Algorithm 1
  (kernel refinement per BFS generation + CSR neighbour gathers) beats
  the scalar queue on the same trace (>= 1.3x), ids identical.  The
  win is smaller by design: Algorithm 1's candidate set is already
  output-proportional, so there is less redundant work to vectorize
  away — the same asymmetry the paper's Figs. 4-7 measure.

* ``test_wave_threshold_sweep`` — where ``voronoi_query._WAVE_MIN`` comes
  from: the expansion timed at every threshold from "always arrays" to
  "always the candidate loop", on result sizes from tens to tens of
  thousands of rows.  The table is recorded; asserted is only what makes
  two regimes worth having (the loop wins small results, arrays win
  large ones, and the shipped constant gets both).

All tests time their alternatives *interleaved* (round per strategy,
min of rounds) so load spikes hit every side equally.
"""

import time
from typing import List

import pytest

from benchmarks.conftest import record_benchmark
from repro.core import voronoi_query
from repro.core.database import SpatialDatabase
from repro.query.spec import AreaQuery
from repro.workloads.generators import uniform_points
from repro.workloads.queries import QueryWorkload

DATA_SIZE = 100_000
#: large concave areas: MBR fraction 0.16 of the unit square
QUERY_SIZE = 0.16
#: star polygons with this many vertices (edge count = kernel width)
N_VERTICES = 20
TRACE_LEN = 8
ROUNDS = 3

_DB_PAIR = {}


@pytest.fixture(scope="module", autouse=True)
def _release_databases():
    """Drop the two 100k-point databases once this module finishes.

    They (plus their indexes and Voronoi backends) are the biggest
    allocations of the whole bench session; keeping them resident would
    add cache/allocator pressure to every bench that runs after this
    file in ``make bench-smoke``.
    """
    yield
    _DB_PAIR.clear()


def _database_pair():
    """The vectorized database and its scalar twin (built once)."""
    if not _DB_PAIR:
        points = uniform_points(DATA_SIZE, seed=2020)
        _DB_PAIR["vectorized"] = SpatialDatabase.from_points(
            points, backend_kind="scipy"
        ).prepare()
        _DB_PAIR["scalar"] = SpatialDatabase.from_points(
            points, backend_kind="scipy", vectorized=False
        ).prepare()
    return _DB_PAIR["vectorized"], _DB_PAIR["scalar"]


def _trace():
    """The refinement-heavy trace: large irregular star polygons."""
    return QueryWorkload(
        query_size=QUERY_SIZE, n_vertices=N_VERTICES, seed=77
    ).areas(TRACE_LEN)


def _run(db: SpatialDatabase, areas, method: str):
    """One pass over the trace; returns (elapsed seconds, id lists)."""
    started = time.perf_counter()
    ids: List[List[int]] = [
        db.query(AreaQuery(area, method=method)).ids() for area in areas
    ]
    return time.perf_counter() - started, ids


def _interleaved_speedup(method: str):
    """min-of-rounds scalar/vectorized times, interleaved, ids checked."""
    db_vec, db_scalar = _database_pair()
    areas = _trace()
    _run(db_vec, areas, method)  # warm caches/kernels on both sides
    _run(db_scalar, areas, method)
    best = {"vectorized": float("inf"), "scalar": float("inf")}
    ids = {}
    for _ in range(ROUNDS):
        for label, db in (("vectorized", db_vec), ("scalar", db_scalar)):
            elapsed, ids[label] = _run(db, areas, method)
            best[label] = min(best[label], elapsed)
    assert ids["vectorized"] == ids["scalar"], (
        "vectorized and scalar paths disagree — the equivalence "
        "contract is broken"
    )
    return best["scalar"], best["vectorized"]


def test_columnar_refinement_speedup():
    """Vectorized filter-refine >= 2x the scalar path on the
    refinement-heavy trace (the acceptance bar), ids byte-identical."""
    scalar_s, vector_s = _interleaved_speedup("traditional")
    speedup = scalar_s / vector_s
    record_benchmark(
        "columnar_refinement_speedup",
        speedup=round(speedup, 3),
        threshold=2.0,
        scalar_ms=round(scalar_s * 1e3, 3),
        vectorized_ms=round(vector_s * 1e3, 3),
        data_size=DATA_SIZE,
        query_size=QUERY_SIZE,
        n_vertices=N_VERTICES,
        requests=TRACE_LEN,
    )
    assert speedup >= 2.0, (
        f"columnar refinement only {speedup:.2f}x the scalar path "
        f"(scalar {scalar_s * 1e3:.1f} ms vs vectorized "
        f"{vector_s * 1e3:.1f} ms)"
    )


def test_columnar_voronoi_speedup():
    """Wave-vectorized Algorithm 1 >= 1.3x the scalar queue on the same
    trace, ids byte-identical."""
    scalar_s, vector_s = _interleaved_speedup("voronoi")
    speedup = scalar_s / vector_s
    record_benchmark(
        "columnar_voronoi_speedup",
        speedup=round(speedup, 3),
        threshold=1.3,
        scalar_ms=round(scalar_s * 1e3, 3),
        vectorized_ms=round(vector_s * 1e3, 3),
        data_size=DATA_SIZE,
        query_size=QUERY_SIZE,
        n_vertices=N_VERTICES,
        requests=TRACE_LEN,
    )
    assert speedup >= 1.3, (
        f"wave-vectorized voronoi only {speedup:.2f}x the scalar queue "
        f"(scalar {scalar_s * 1e3:.1f} ms vs vectorized "
        f"{vector_s * 1e3:.1f} ms)"
    )


#: thresholds swept: 0 = every wave as arrays, the last = never
WAVE_THRESHOLDS = (0, 8, 16, 32, 48, 64, 96, 128, 256, 10**9)
#: (label, MBR share of the unit square, polygons): results of about
#: 30, 550 and 9 000 rows at 100k points
WAVE_SIZES = (("small", 0.0005, 40), ("medium", 0.01, 24), ("large", 0.16, 8))


def test_wave_threshold_sweep():
    """Time Algorithm 1 per (``_WAVE_MIN``, result size); ids never move."""
    db, _ = _database_pair()
    shipped = voronoi_query._WAVE_MIN
    assert shipped in WAVE_THRESHOLDS
    traces = {
        label: [
            AreaQuery(area, method="voronoi")
            for area in QueryWorkload(
                query_size=size, n_vertices=N_VERTICES, seed=91
            ).areas(count)
        ]
        for label, size, count in WAVE_SIZES
    }
    expected = {
        label: [db.query(spec).ids() for spec in specs]
        for label, specs in traces.items()
    }
    best = {
        (threshold, label): float("inf")
        for threshold in WAVE_THRESHOLDS
        for label in traces
    }
    try:
        for _ in range(ROUNDS):
            for threshold in WAVE_THRESHOLDS:
                voronoi_query._WAVE_MIN = threshold
                for label, specs in traces.items():
                    started = time.perf_counter()
                    ids = [db.query(spec).ids() for spec in specs]
                    elapsed = (time.perf_counter() - started) / len(specs)
                    assert ids == expected[label], (threshold, label)
                    best[threshold, label] = min(best[threshold, label], elapsed)
    finally:
        voronoi_query._WAVE_MIN = shipped
    arrays_only, loop_only = WAVE_THRESHOLDS[0], WAVE_THRESHOLDS[-1]
    record_benchmark(
        "wave_threshold_sweep",
        wave_min=shipped,
        data_size=DATA_SIZE,
        n_vertices=N_VERTICES,
        small_ms=round(best[shipped, "small"] * 1e3, 3),
        medium_ms=round(best[shipped, "medium"] * 1e3, 3),
        large_ms=round(best[shipped, "large"] * 1e3, 3),
        ms_per_query={
            str(threshold): {
                label: round(best[threshold, label] * 1e3, 3) for label in traces
            }
            for threshold in WAVE_THRESHOLDS
        },
    )
    assert best[shipped, "small"] < best[arrays_only, "small"], (
        "array waves no longer lose on small results: drop _WAVE_MIN"
    )
    assert best[shipped, "large"] < best[loop_only, "large"], (
        "the candidate loop no longer loses on large results"
    )
