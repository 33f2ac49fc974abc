"""Ablation — how per-validation cost moves the time crossover.

The paper's experiments ran against a database where refinement "requires
geometric information loading" (IO) on top of the point-in-polygon test, so
each validation was far more expensive than our in-memory ``contains``.
Our measured time savings at 1 % query size are therefore smaller than the
paper's, even though the candidate savings match (see EXPERIMENTS.md).

This bench makes that relationship explicit: it injects a synthetic
per-validation penalty (emulating a record fetch of increasing weight) into
*both* methods and shows the Voronoi method's time saving converging toward
its candidate saving as validations dominate — the regime the paper
measured.
"""

import pytest

from repro.core.traditional_query import traditional_area_query
from repro.core.voronoi_query import voronoi_area_query
from benchmarks.conftest import (
    FIXED_DATA_SIZE,
    get_database,
    get_query_areas,
)

QUERY_SIZE = 0.01
#: Iterations of the dummy fetch loop per validation.
COST_LEVELS = (0, 8, 32, 128)


def _costly_contains(weight: int):
    """The exact refinement plus a synthetic record-fetch penalty."""

    def contains(area, p):
        # Emulate deserialising a fetched record: arithmetic on the
        # coordinates that the optimiser cannot skip.
        checksum = 0.0
        for i in range(weight):
            checksum += (p.x * i - p.y) * 1e-9
        if checksum > 1e18:  # never true; keeps the loop observable
            return False
        return area.contains_point(p)

    return contains


def _run(db, areas, method, weight):
    contains = _costly_contains(weight)
    results = []
    for area in areas:
        if method == "voronoi":
            results.append(
                voronoi_area_query(
                    db.index, db.backend, db.store, area, contains=contains
                )
            )
        else:
            results.append(
                traditional_area_query(db.index, db.store, area, contains=contains)
            )
    return results


@pytest.mark.parametrize("weight", COST_LEVELS)
@pytest.mark.parametrize("method", ["voronoi", "traditional"])
def test_iocost_query_time(benchmark, weight, method):
    db = get_database(FIXED_DATA_SIZE)
    areas = get_query_areas(QUERY_SIZE, count=5)

    benchmark(_run, db, areas, method, weight)

    benchmark.extra_info["validation_weight"] = weight


def test_iocost_shape():
    """Time saving grows monotonically-ish with per-validation cost and
    approaches the candidate saving at the heavy end."""
    import time

    db = get_database(FIXED_DATA_SIZE)
    areas = get_query_areas(QUERY_SIZE, count=15)

    savings = []
    for weight in COST_LEVELS:
        timings = {}
        for method in ("voronoi", "traditional"):
            started = time.perf_counter()
            results = _run(db, areas, method, weight)
            timings[method] = time.perf_counter() - started
        savings.append(1 - timings["voronoi"] / timings["traditional"])

    candidate_saving = 1 - (
        sum(r.stats.candidates for r in _run(db, areas, "voronoi", 0))
        / sum(r.stats.candidates for r in _run(db, areas, "traditional", 0))
    )

    # Heavier validations favour the method with fewer candidates.
    assert savings[-1] > savings[0]
    # At the heavy end the time saving must be within reach of the
    # candidate saving (the asymptotic limit).
    assert savings[-1] > candidate_saving * 0.55
