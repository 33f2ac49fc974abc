#!/usr/bin/env python3
"""Urban-planning scenario: points of interest inside an irregular district.

The paper's introduction motivates area queries with GIS workloads — e.g.
"find every facility inside this district", where the district boundary is
an irregular, concave polygon (administrative borders follow rivers and
roads, not rectangles).

This example builds a synthetic city:

* POIs are *clustered* (dense downtown cores, sparse suburbs), not uniform,
  demonstrating that the method is distribution-free;
* the district is a hand-drawn concave polygon that fills only ~40 % of its
  bounding box — the regime where MBR filtering wastes most of its work.

Run with::

    python examples/city_poi_analysis.py
"""

import time

from repro import AreaQuery, Polygon, SpatialDatabase
from repro.workloads.generators import clustered_points

# An irregular "district" hugging a river bend: concave, 12 vertices.
DISTRICT = Polygon(
    [
        (0.15, 0.20),
        (0.45, 0.12),
        (0.58, 0.25),
        (0.52, 0.42),
        (0.68, 0.55),
        (0.82, 0.48),
        (0.88, 0.70),
        (0.65, 0.85),
        (0.42, 0.78),
        (0.45, 0.55),
        (0.28, 0.60),
        (0.12, 0.45),
    ]
)


def main() -> None:
    print("City: 50,000 clustered POIs (8 density cores)...")
    pois = clustered_points(50_000, seed=7, clusters=8, spread=0.08)

    started = time.perf_counter()
    db = SpatialDatabase.from_points(pois).prepare()
    print(f"Database ready in {time.perf_counter() - started:.2f} s.")

    fill = DISTRICT.area / DISTRICT.mbr.area
    print(
        f"\nDistrict polygon: {len(DISTRICT)} vertices, "
        f"fills {fill:.0%} of its bounding box."
    )

    voronoi = db.query(AreaQuery(DISTRICT, method="voronoi"))
    traditional = db.query(AreaQuery(DISTRICT, method="traditional"))
    assert voronoi.ids() == traditional.ids()

    print(f"\nPOIs inside the district: {len(voronoi):,}")
    print(
        f"  Voronoi method:     {voronoi.stats.candidates:>7,} candidates, "
        f"{voronoi.stats.redundant_validations:>6,} redundant, "
        f"{voronoi.stats.time_ms:7.1f} ms"
    )
    print(
        f"  Traditional method: {traditional.stats.candidates:>7,} candidates, "
        f"{traditional.stats.redundant_validations:>6,} redundant, "
        f"{traditional.stats.time_ms:7.1f} ms"
    )

    saved_candidates = (
        1 - voronoi.stats.candidates / traditional.stats.candidates
    )
    saved_time = 1 - voronoi.stats.time_ms / traditional.stats.time_ms
    print(
        f"\nVoronoi expansion touched {saved_candidates:.0%} fewer candidates "
        f"and saved {saved_time:.0%} of the query time."
    )

    # The three point classes of the paper, for insight into *why*:
    classes = db.classify_against(DISTRICT)
    print(
        f"\nPoint classes (paper Section III): "
        f"{len(classes['internal']):,} internal, "
        f"{len(classes['boundary']):,} boundary (the shell the Voronoi "
        f"method also validates), {len(classes['external']):,} external "
        f"(never touched by the Voronoi method)."
    )


if __name__ == "__main__":
    main()
