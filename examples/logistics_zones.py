#!/usr/bin/env python3
"""Logistics scenario: assigning customers to concave delivery zones.

A delivery company partitions its service region into zones drawn around
road networks — irregular, frequently concave polygons.  Nightly it must
re-assign every customer to its zone: dozens of area queries over one
static customer table.  That access pattern is the sweet spot of the
paper's method: the Voronoi neighbour graph is built once and amortised
over all queries.

The example also demonstrates query-level statistics aggregation: total
candidates and redundant validations across the whole batch, method by
method.

Run with::

    python examples/logistics_zones.py
"""

import random
import time

from repro import AreaQuery, SpatialDatabase
from repro.core.stats import QueryStats
from repro.geometry.random_shapes import random_query_polygon
from repro.workloads.generators import uniform_points


N_CUSTOMERS = 40_000
N_ZONES = 24


def main() -> None:
    print(f"Customer table: {N_CUSTOMERS:,} delivery addresses...")
    customers = uniform_points(N_CUSTOMERS, seed=99)

    started = time.perf_counter()
    db = SpatialDatabase.from_points(customers).prepare()
    print(f"Access structures built in {time.perf_counter() - started:.2f} s.")

    # Zones: random concave polygons of varying size (0.5 % to 8 % of the
    # region each).  Real zones would come from a file; shape statistics
    # are what matters here.
    rng = random.Random(17)
    zones = [
        random_query_polygon(
            query_size=rng.choice([0.005, 0.01, 0.02, 0.04, 0.08]),
            n_vertices=rng.randint(8, 14),
            rng=rng,
        )
        for _ in range(N_ZONES)
    ]

    totals = {"voronoi": QueryStats(), "traditional": QueryStats()}
    assignments: dict[int, list[int]] = {}
    for zone_id, zone in enumerate(zones):
        voronoi = db.query(AreaQuery(zone, method="voronoi"))
        traditional = db.query(AreaQuery(zone, method="traditional"))
        assert voronoi.ids() == traditional.ids(), f"zone {zone_id} disagreement"
        assignments[zone_id] = voronoi.ids()
        totals["voronoi"] = totals["voronoi"].merge(voronoi.stats)
        totals["traditional"] = totals["traditional"].merge(traditional.stats)

    assigned = sum(len(ids) for ids in assignments.values())
    print(
        f"\nAssigned {assigned:,} customer-zone pairs across "
        f"{N_ZONES} zones (zones may overlap)."
    )

    print(f"\n{'batch totals':26} {'voronoi':>12} {'traditional':>12}")
    print("-" * 52)
    for label, attribute in [
        ("candidates", "candidates"),
        ("redundant validations", "redundant_validations"),
    ]:
        v = getattr(totals["voronoi"], attribute)
        t = getattr(totals["traditional"], attribute)
        print(f"{label:26} {v:>12,} {t:>12,}")
    print(
        f"{'time (ms)':26} {totals['voronoi'].time_ms:>12.1f} "
        f"{totals['traditional'].time_ms:>12.1f}"
    )

    saved = 1 - totals["voronoi"].candidates / totals["traditional"].candidates
    saved_time = (
        1 - totals["voronoi"].time_ms / totals["traditional"].time_ms
    )
    print(
        f"\nBatch summary: {saved:.0%} fewer candidates, "
        f"{saved_time:.0%} less query time with the Voronoi method."
    )


if __name__ == "__main__":
    main()
