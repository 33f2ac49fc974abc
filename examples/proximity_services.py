#!/usr/bin/env python3
"""Proximity services: circular range queries and k-nearest-neighbour search.

Beyond the paper's polygon experiments, the same Voronoi structure answers
the other classic proximity questions a location service needs:

* *"every station within 2 km"* — a **circular area query**: any
  :class:`~repro.geometry.region.QueryRegion` plugs into both area-query
  methods, and a disc covers only pi/4 of its bounding square, so the
  traditional MBR filter wastes ~21 % of its candidates in the corners;
* *"the 10 closest stations"* — **Voronoi kNN**: confirmed results expand
  through their Voronoi neighbours, evaluating O(k) candidates however
  large the database is (the VoR-tree idea the paper builds on).

Run with::

    python examples/proximity_services.py
"""

import random
import time

from repro import AreaQuery, KnnQuery, SpatialDatabase
from repro.geometry import Circle, Point
from repro.core.knn_query import voronoi_knn_query
from repro.workloads.generators import clustered_points


def main() -> None:
    print("Charging stations: 30,000 clustered locations...")
    stations = clustered_points(30_000, seed=31, clusters=12, spread=0.06)
    db = SpatialDatabase.from_points(stations).prepare()

    # --- circular range query -------------------------------------------
    here = Point(0.42, 0.58)
    radius = 0.08
    disc = Circle(here, radius)
    print(
        f"\n[1] Stations within r={radius} of {here.as_tuple()} "
        f"(disc fills {disc.area / disc.mbr.area:.0%} of its MBR):"
    )

    voronoi = db.query(AreaQuery(disc, method="voronoi"))
    traditional = db.query(AreaQuery(disc, method="traditional"))
    assert voronoi.ids() == traditional.ids()
    print(f"    {len(voronoi):,} stations found by both methods")
    print(
        f"    voronoi:     {voronoi.stats.candidates:>6,} candidates "
        f"({voronoi.stats.redundant_validations:,} redundant)"
    )
    print(
        f"    traditional: {traditional.stats.candidates:>6,} candidates "
        f"({traditional.stats.redundant_validations:,} redundant)"
    )

    # --- k nearest neighbours ---------------------------------------------
    print("\n[2] The 10 nearest stations (Voronoi expansion vs R-tree):")
    knn = voronoi_knn_query(db.index, db.backend, db.store, here, 10)
    rtree_ids = db.query(KnnQuery(here, 10, method="index")).ids()
    assert knn.ids == rtree_ids
    for rank, row in enumerate(knn.ids, start=1):
        distance = db.point(row).distance_to(here)
        print(f"    #{rank:<2} station {row:>6}  at distance {distance:.4f}")
    print(
        f"    Voronoi kNN evaluated just {knn.stats.candidates} candidate "
        f"distances out of {len(db):,} stations."
    )

    # --- throughput comparison --------------------------------------------
    print("\n[3] Throughput over 200 random positions (k=10):")
    rng = random.Random(33)
    queries = [Point(rng.random(), rng.random()) for _ in range(200)]

    started = time.perf_counter()
    for q in queries:
        voronoi_knn_query(db.index, db.backend, db.store, q, 10)
    voronoi_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for q in queries:
        db.index.k_nearest_neighbors(q, 10)
    rtree_seconds = time.perf_counter() - started

    print(
        f"    voronoi kNN: {len(queries) / voronoi_seconds:7.0f} queries/s   "
        f"r-tree kNN: {len(queries) / rtree_seconds:7.0f} queries/s"
    )


if __name__ == "__main__":
    main()
