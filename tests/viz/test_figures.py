"""Tests for the paper-figure renderers."""

import xml.etree.ElementTree as ET

import pytest

from repro.core.database import SpatialDatabase
from repro.geometry.random_shapes import random_query_polygon
from repro.viz.figures import (
    render_candidate_comparison,
    render_query_result,
    render_voronoi_delaunay,
)
from repro.workloads.generators import uniform_points

NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def db():
    return SpatialDatabase.from_points(uniform_points(300, seed=281)).prepare()


@pytest.fixture(scope="module")
def area():
    import random

    return random_query_polygon(0.08, rng=random.Random(283))


class TestQueryResult:
    def test_valid_svg_with_all_points(self, db, area):
        svg = render_query_result(db, area)
        root = ET.fromstring(svg)
        circles = root.findall(f"{NS}circle")
        assert len(circles) == 300
        polygons = root.findall(f"{NS}polygon")
        assert len(polygons) == 1

    def test_results_colored_distinctly(self, db, area):
        svg = render_query_result(db, area)
        root = ET.fromstring(svg)
        fills = {c.get("fill") for c in root.findall(f"{NS}circle")}
        assert "black" in fills  # results
        assert len(fills) == 2  # results + background


class TestCandidateComparison:
    def test_two_panels(self, db, area):
        svg = render_candidate_comparison(db, area)
        root = ET.fromstring(svg)
        panels = root.findall(f"{NS}svg")
        assert len(panels) == 2

    def test_candidate_counts_in_labels(self, db, area):
        svg = render_candidate_comparison(db, area)
        root = ET.fromstring(svg)
        labels = [
            t.text
            for panel in root.findall(f"{NS}svg")
            for t in panel.findall(f"{NS}text")
        ]
        assert any("traditional" in label for label in labels)
        assert any("voronoi" in label for label in labels)

    def test_green_candidates_present(self, db, area):
        svg = render_candidate_comparison(db, area)
        assert "#2ca02c" in svg  # the paper's green candidate dots

    def test_voronoi_panel_has_fewer_green_dots(self, db):
        # A big irregular area at decent density: the Voronoi panel must
        # show fewer redundant (green) candidates than the traditional one.
        import random

        dense = SpatialDatabase.from_points(
            uniform_points(3000, seed=285), backend_kind="scipy"
        ).prepare()
        area = random_query_polygon(0.15, rng=random.Random(287))
        svg = render_candidate_comparison(dense, area)
        root = ET.fromstring(svg)
        panels = root.findall(f"{NS}svg")
        green_counts = [
            sum(
                1
                for c in panel.findall(f"{NS}circle")
                if c.get("fill") == "#2ca02c"
            )
            for panel in panels
        ]
        traditional_green, voronoi_green = green_counts
        assert voronoi_green < traditional_green


class TestVoronoiDelaunay:
    def test_two_panels_with_cells_and_edges(self):
        points = uniform_points(40, seed=289)
        svg = render_voronoi_delaunay(points)
        root = ET.fromstring(svg)
        panels = root.findall(f"{NS}svg")
        assert len(panels) == 2
        voronoi_panel, delaunay_panel = panels
        assert len(voronoi_panel.findall(f"{NS}polygon")) == 40  # cells
        assert len(delaunay_panel.findall(f"{NS}line")) > 40  # edges
        # 40 generator dots on each panel.
        assert len(voronoi_panel.findall(f"{NS}circle")) == 40
        assert len(delaunay_panel.findall(f"{NS}circle")) == 40
