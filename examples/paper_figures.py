#!/usr/bin/env python3
"""Regenerate the paper's illustrative figures as SVG files.

* **Fig. 2** — result set (black) and candidate set (green) of the same
  area query under the traditional method (left: candidates fill the MBR)
  and the Voronoi method (right: candidates hug the polygon boundary).
* **Fig. 3** — the Voronoi diagram and the Delaunay triangulation of a
  small point set, side by side.

Outputs ``fig2.svg`` and ``fig3.svg`` into the working directory (or a
directory given as the first argument).  Open them in any browser.

Run with::

    python examples/paper_figures.py [output_dir]
"""

import pathlib
import random
import sys

from repro import AreaQuery, SpatialDatabase, random_query_polygon
from repro.viz.figures import (
    render_candidate_comparison,
    render_voronoi_delaunay,
)
from repro.workloads.generators import uniform_points


def main() -> None:
    out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    # Fig. 2: a density and query size chosen so the candidate clouds are
    # clearly visible, like the paper's illustration.
    print("Rendering Fig. 2 (candidate sets of both methods)...")
    db = SpatialDatabase.from_points(uniform_points(4000, seed=2)).prepare()
    area = random_query_polygon(0.12, rng=random.Random(5))
    fig2 = render_candidate_comparison(db, area)
    (out_dir / "fig2.svg").write_text(fig2, encoding="utf-8")

    voronoi = db.query(AreaQuery(area, method="voronoi"))
    traditional = db.query(AreaQuery(area, method="traditional"))
    print(
        f"  traditional: {traditional.stats.candidates} candidates | "
        f"voronoi: {voronoi.stats.candidates} candidates | "
        f"results: {len(voronoi)}"
    )

    # Fig. 3: a small point set so cells and triangles are readable.
    print("Rendering Fig. 3 (Voronoi diagram + Delaunay triangulation)...")
    fig3 = render_voronoi_delaunay(uniform_points(60, seed=9))
    (out_dir / "fig3.svg").write_text(fig3, encoding="utf-8")

    print(f"\nWrote {out_dir / 'fig2.svg'} and {out_dir / 'fig3.svg'}.")


if __name__ == "__main__":
    main()
