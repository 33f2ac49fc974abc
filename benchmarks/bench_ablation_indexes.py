"""Ablation — does a better index fix the traditional method?

The paper attributes the traditional method's cost to its candidate set,
not to the index producing it.  This bench runs the traditional pipeline
over both index kinds — the paper's R-tree and the better-shaped R*-tree —
and the Voronoi method beside them: both traditional variants validate
identical candidate sets; the Voronoi method's is structurally smaller
whichever tree seeds it.
"""

import pytest

from repro.core.database import SpatialDatabase
from repro.workloads.generators import uniform_points
from benchmarks.conftest import get_query_areas, run_batch, summarize

INDEX_KINDS = ["rtree", "rstar"]
N_POINTS = 30_000
QUERY_SIZE = 0.04

_dbs = {}


def _db(index_kind: str) -> SpatialDatabase:
    if index_kind not in _dbs:
        db = SpatialDatabase.from_points(
            uniform_points(N_POINTS, seed=2020),
            index_kind=index_kind,
        )
        _dbs[index_kind] = db
    return _dbs[index_kind]


@pytest.mark.parametrize("index_kind", INDEX_KINDS)
def test_traditional_per_index(benchmark, index_kind):
    """Traditional filter–refine on each index structure."""
    db = _db(index_kind)
    areas = get_query_areas(QUERY_SIZE, count=5)

    results = benchmark(run_batch, db, areas, "traditional")

    stats = summarize(results)
    benchmark.extra_info["index"] = index_kind
    benchmark.extra_info["avg_candidates"] = stats["candidates"]


@pytest.mark.parametrize("index_kind", INDEX_KINDS)
def test_voronoi_per_seed_index(benchmark, index_kind):
    """The Voronoi method, seeded via each index's NN search."""
    db = _db(index_kind)
    db.prepare()
    areas = get_query_areas(QUERY_SIZE, count=5)

    results = benchmark(run_batch, db, areas, "voronoi")

    stats = summarize(results)
    benchmark.extra_info["index"] = index_kind
    benchmark.extra_info["avg_candidates"] = stats["candidates"]


def test_ablation_shape():
    """Index choice cannot shrink the traditional candidate set."""
    areas = get_query_areas(QUERY_SIZE)
    candidate_counts = {}
    voronoi_counts = {}
    reference = None
    for index_kind in INDEX_KINDS:
        db = _db(index_kind)
        db.prepare()
        traditional = run_batch(db, areas, "traditional")
        voronoi = run_batch(db, areas, "voronoi")
        for v, t in zip(voronoi, traditional):
            assert v.ids == t.ids
            if reference is None:
                reference = t.ids
        candidate_counts[index_kind] = summarize(traditional)["candidates"]
        voronoi_counts[index_kind] = summarize(voronoi)["candidates"]

    # Every index produces the *same* traditional candidate set (it is
    # defined by the MBR, not the structure).
    values = list(candidate_counts.values())
    assert max(values) == min(values)

    # The Voronoi candidate count is index-independent too, and smaller.
    v_values = list(voronoi_counts.values())
    assert max(v_values) == min(v_values)
    assert v_values[0] < values[0]
