#!/usr/bin/env python3
"""Quickstart: build a spatial database and run both area-query methods.

This is the one-minute tour of the library:

1. generate a synthetic point database (100k points would match the paper;
   20k keeps the quickstart snappy),
2. build the two access structures both methods share (R-tree + Voronoi
   neighbour graph),
3. issue one irregular polygon area query with each method,
4. confirm they return identical results and compare their work counters.

Run with::

    python examples/quickstart.py
"""

import random
import time

from repro import AreaQuery, SpatialDatabase, random_query_polygon


def main() -> None:
    rng = random.Random(2020)

    print("Generating 20,000 uniform points in the unit square...")
    points = [(rng.random(), rng.random()) for _ in range(20_000)]

    print("Building the database (R-tree + Voronoi neighbour graph)...")
    started = time.perf_counter()
    db = SpatialDatabase.from_points(points).prepare()
    print(f"  built in {time.perf_counter() - started:.2f} s")

    # The paper's workload: a random 10-vertex polygon whose MBR covers 1 %
    # of the space.  It is usually concave — exactly the case where the
    # traditional method wastes refinement work.
    area = random_query_polygon(query_size=0.01, rng=rng)
    print(
        f"\nQuery area: 10-gon, own area {area.area:.4f}, "
        f"MBR area {area.mbr.area:.4f} "
        f"(polygon fills {area.area / area.mbr.area:.0%} of its MBR)"
    )

    # One logical query, two execution methods: the spec object carries
    # the method, the database has a single query() entry point.
    voronoi = db.query(AreaQuery(area, method="voronoi"))
    traditional = db.query(AreaQuery(area, method="traditional"))

    assert voronoi.ids() == traditional.ids(), "methods must agree!"
    print(f"\nBoth methods found the same {len(voronoi)} points.\n")

    header = f"{'':24} {'voronoi':>10} {'traditional':>12}"
    print(header)
    print("-" * len(header))
    for label, attribute in [
        ("candidates", "candidates"),
        ("exact validations", "validations"),
        ("redundant validations", "redundant_validations"),
        ("index node accesses", "index_node_accesses"),
    ]:
        v = getattr(voronoi.stats, attribute)
        t = getattr(traditional.stats, attribute)
        print(f"{label:24} {v:>10} {t:>12}")
    print(
        f"{'time (ms)':24} {voronoi.stats.time_ms:>10.2f} "
        f"{traditional.stats.time_ms:>12.2f}"
    )

    saved = 1 - voronoi.stats.candidates / traditional.stats.candidates
    print(
        f"\nThe Voronoi method generated {saved:.0%} fewer candidates "
        "(the paper reports ~35-45 % at its scales)."
    )

    print("\nPlanner view — method='auto' routes via this cost table:")
    print(db.query(AreaQuery(area)).explain().render())


if __name__ == "__main__":
    main()
