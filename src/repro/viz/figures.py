"""Figure renderers for the library's objects.

Three renderers, each returning a complete SVG document string:

* :func:`render_query_result` — one database + one query region, results
  highlighted.
* :func:`render_candidate_comparison` — the paper's **Fig. 2**: the same
  query executed with the traditional and the Voronoi method side by side,
  candidates (green) vs results (black), showing the MBR-shaped candidate
  cloud of the baseline against the thin shell of the Voronoi method.
* :func:`render_voronoi_delaunay` — the paper's **Fig. 3**: the Voronoi
  diagram and the Delaunay triangulation of a point set side by side.
"""

from __future__ import annotations

from typing import Optional

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.core.database import SpatialDatabase
from repro.core.traditional_query import traditional_area_query
from repro.core.voronoi_query import voronoi_area_query
from repro.query.spec import AreaQuery
from repro.viz.svg import SvgCanvas, side_by_side

_RESULT_COLOR = "black"
_CANDIDATE_COLOR = "#2ca02c"  # green, as in the paper's Fig. 2
_BACKGROUND_COLOR = "#c8c8c8"
_AREA_COLOR = "black"
_MBR_COLOR = "#d62728"


def _world_of(db: SpatialDatabase, margin: float = 0.02) -> Rect:
    bounds = db.index.bounds
    if bounds is None:
        raise ValueError("cannot render an empty database")
    pad = margin * max(bounds.width, bounds.height, 1e-9)
    return bounds.expanded(pad)


def render_query_result(
    db: SpatialDatabase,
    area: Polygon,
    *,
    method: str = "voronoi",
    width: int = 640,
    dot_px: float = 1.6,
) -> str:
    """One query, results highlighted over the full point cloud."""
    canvas = SvgCanvas(_world_of(db), width=width)
    result = db.query(AreaQuery(area, method=method))
    result_set = set(result.ids())
    for row, p in enumerate(db.points):
        canvas.circle(
            p,
            dot_px,
            fill=_RESULT_COLOR if row in result_set else _BACKGROUND_COLOR,
        )
    canvas.polygon(
        list(area.vertices), stroke=_AREA_COLOR, stroke_width=2.0
    )
    canvas.text(
        Point(canvas.world.min_x, canvas.world.max_y),
        f"{method}: {len(result)} results",
    )
    return canvas.to_svg()


def _candidate_panel(
    db: SpatialDatabase,
    area: Polygon,
    method: str,
    width: int,
    dot_px: float,
    show_mbr: bool,
) -> SvgCanvas:
    canvas = SvgCanvas(_world_of(db), width=width)

    validated = []

    def tracking_contains(region, p):
        validated.append(p)
        return region.contains_point(p)

    if method == "traditional":
        result = traditional_area_query(
            db.index, db.store, area, contains=tracking_contains
        )
    else:
        result = voronoi_area_query(
            db.index, db.backend, db.store, area, contains=tracking_contains
        )
    result_points = {db.point(row) for row in result}
    candidate_points = set(validated) - result_points

    for p in db.points:
        if p in result_points or p in candidate_points:
            continue
        canvas.circle(p, dot_px, fill=_BACKGROUND_COLOR)
    for p in candidate_points:
        canvas.circle(p, dot_px * 1.6, fill=_CANDIDATE_COLOR)
    for p in result_points:
        canvas.circle(p, dot_px * 1.6, fill=_RESULT_COLOR)

    if show_mbr and method == "traditional":
        canvas.polygon(
            list(area.mbr.corners()),
            stroke=_MBR_COLOR,
            stroke_width=1.0,
            opacity=0.8,
        )
    canvas.polygon(list(area.vertices), stroke=_AREA_COLOR, stroke_width=2.0)
    canvas.text(
        Point(canvas.world.min_x, canvas.world.max_y),
        f"{method}: {result.stats.candidates} candidates, "
        f"{result.stats.result_size} results",
    )
    return canvas


def render_candidate_comparison(
    db: SpatialDatabase,
    area: Polygon,
    *,
    width: int = 480,
    dot_px: float = 1.4,
    show_mbr: bool = True,
) -> str:
    """The paper's Fig. 2: candidate sets of both methods, side by side.

    Left panel: traditional (candidates fill the MBR).  Right panel:
    Voronoi (candidates hug the polygon boundary).  Black dots are results,
    green dots are redundant candidates, grey dots were never touched.
    """
    left = _candidate_panel(db, area, "traditional", width, dot_px, show_mbr)
    right = _candidate_panel(db, area, "voronoi", width, dot_px, show_mbr)
    return side_by_side([left, right])


def render_voronoi_delaunay(
    points,
    *,
    clip: Optional[Rect] = None,
    width: int = 480,
    dot_px: float = 2.5,
) -> str:
    """The paper's Fig. 3: Voronoi diagram (a) and Delaunay dual (b)."""
    from repro.delaunay.triangulation import DelaunayTriangulation
    from repro.delaunay.voronoi import VoronoiDiagram

    points = list(points)
    triangulation = DelaunayTriangulation(points)
    clip_box = (
        clip
        if clip is not None
        else Rect.from_points(points).expanded(
            0.1 * max(Rect.from_points(points).width, 1e-9)
        )
    )
    diagram = VoronoiDiagram(points, clip=clip_box, triangulation=triangulation)

    voronoi_canvas = SvgCanvas(clip_box, width=width)
    for cell in diagram.cells():
        if cell.polygon is not None:
            voronoi_canvas.polygon(
                list(cell.polygon.vertices),
                stroke="#1f77b4",
                stroke_width=1.0,
            )
    for p in points:
        voronoi_canvas.circle(p, dot_px, fill="black")
    voronoi_canvas.text(
        Point(clip_box.min_x, clip_box.max_y), "a) Voronoi diagram"
    )

    delaunay_canvas = SvgCanvas(clip_box, width=width)
    for i, j in triangulation.edges():
        delaunay_canvas.line(
            points[i], points[j], stroke="#ff7f0e", stroke_width=1.0
        )
    for p in points:
        delaunay_canvas.circle(p, dot_px, fill="black")
    delaunay_canvas.text(
        Point(clip_box.min_x, clip_box.max_y), "b) Delaunay triangulation"
    )
    return side_by_side([voronoi_canvas, delaunay_canvas])
