"""Ablation — kNN over the Voronoi graph vs best-first R-tree descent.

Beyond the paper: once the database maintains Voronoi adjacency for area
queries, kNN queries can ride the same structure (the VoR-tree idea the
paper cites as [8]).  This bench compares the two kNN implementations the
library ships and checks the structural advantage: the Voronoi expansion
evaluates O(k) candidates independent of n, while the R-tree walk pays the
tree descent.
"""

import random

import pytest

from repro.geometry.point import Point
from repro.core.knn_query import voronoi_knn_query
from benchmarks.conftest import FIXED_DATA_SIZE, get_database

K_VALUES = (1, 10, 100)


def _queries(count=50):
    rng = random.Random(2021)
    return [Point(rng.random(), rng.random()) for _ in range(count)]


@pytest.mark.parametrize("k", K_VALUES)
def test_knn_voronoi(benchmark, k):
    db = get_database(FIXED_DATA_SIZE)
    queries = _queries()

    def run():
        return [
            voronoi_knn_query(db.index, db.backend, db.store, q, k)
            for q in queries
        ]

    results = benchmark(run)
    benchmark.extra_info["avg_candidates"] = sum(
        r.stats.candidates for r in results
    ) / len(results)


@pytest.mark.parametrize("k", K_VALUES)
def test_knn_rtree(benchmark, k):
    db = get_database(FIXED_DATA_SIZE)
    queries = _queries()

    benchmark(lambda: [db.index.k_nearest_neighbors(q, k) for q in queries])


def test_knn_equivalence_and_locality():
    db = get_database(FIXED_DATA_SIZE)
    for q in _queries(20):
        for k in K_VALUES:
            voronoi = voronoi_knn_query(db.index, db.backend, db.store, q, k)
            rtree = [i for _, i in db.index.k_nearest_neighbors(q, k)]
            assert voronoi.ids == rtree
            # Candidate locality: O(k) evaluations, nowhere near O(n).
            assert voronoi.stats.candidates <= 10 * k + 20
