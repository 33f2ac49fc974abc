"""Where ``voronoi_query._WAVE_MIN`` comes from.

Not a paper artefact.  Algorithm 1 runs one execution with two regimes
(``repro.core.voronoi_query``): a frontier generation of ``_WAVE_MIN``
rows or more is processed as arrays, a smaller one candidate by
candidate over the same columns.  ``test_wave_threshold_sweep`` times the
expansion at every threshold from "always arrays" to "always the
candidate loop", on result sizes from tens to tens of thousands of rows
over 100k points.  The table is printed under the pytest summary and
recorded in ``docs/BENCHMARKS.md``; asserted is only what makes two regimes worth
having (the loop wins small results, arrays win large ones, and the
shipped constant gets both).  Thresholds are timed *interleaved* (round
per threshold, min of rounds) so load spikes hit every side equally.

(The PR 5 / PR 19 speedup benches against the scalar twin lived here;
the twin left the tree in 1.2 and ids are checked against
``tests/oracle.py`` instead.)
"""

import time
import pytest

from benchmarks.conftest import record_benchmark
from repro.core import voronoi_query
from repro.core.database import SpatialDatabase
from repro.query.spec import AreaQuery
from repro.workloads.generators import uniform_points
from repro.workloads.queries import QueryWorkload

DATA_SIZE = 100_000
#: star polygons with this many vertices (edge count = kernel width)
N_VERTICES = 20
ROUNDS = 3

_DATABASE = {}


@pytest.fixture(scope="module", autouse=True)
def _release_database():
    """Drop the 100k-point database once this module finishes.

    It (plus its index and Voronoi backend) is among the biggest
    allocations of the whole bench session; keeping it resident would
    add cache/allocator pressure to every bench that runs after this
    file in ``make bench-smoke``.
    """
    yield
    _DATABASE.clear()


def _database():
    if not _DATABASE:
        _DATABASE["db"] = SpatialDatabase.from_points(
            uniform_points(DATA_SIZE, seed=2020)
        ).prepare()
    return _DATABASE["db"]


#: thresholds swept: 0 = every wave as arrays, the last = never
WAVE_THRESHOLDS = (0, 8, 16, 32, 48, 64, 96, 128, 256, 10**9)
#: (label, MBR share of the unit square, polygons): results of about
#: 30, 550 and 9 000 rows at 100k points
WAVE_SIZES = (("small", 0.0005, 40), ("medium", 0.01, 24), ("large", 0.16, 8))


def test_wave_threshold_sweep():
    """Time Algorithm 1 per (``_WAVE_MIN``, result size); ids never move."""
    db = _database()
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
