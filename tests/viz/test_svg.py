"""Tests for the SVG canvas (well-formedness and coordinate transform)."""

import xml.etree.ElementTree as ET

import pytest

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.viz.svg import SvgCanvas, side_by_side

NS = "{http://www.w3.org/2000/svg}"


def _parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestCanvas:
    def test_empty_document_is_valid_xml(self):
        canvas = SvgCanvas(Rect(0, 0, 1, 1))
        root = _parse(canvas.to_svg())
        assert root.tag == f"{NS}svg"

    def test_rejects_degenerate_world(self):
        with pytest.raises(ValueError):
            SvgCanvas(Rect(0, 0, 0, 1))

    def test_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            SvgCanvas(Rect(0, 0, 1, 1), width=10, padding=8)

    def test_aspect_ratio_preserved(self):
        canvas = SvgCanvas(Rect(0, 0, 2, 1), width=640, padding=0)
        assert canvas.height == 320

    def test_to_pixel_corners(self):
        canvas = SvgCanvas(Rect(0, 0, 1, 1), width=100, padding=10)
        # World origin maps to bottom-left (y flipped).
        assert canvas.to_pixel(Point(0, 0)) == (10.0, canvas.height - 10.0)
        assert canvas.to_pixel(Point(1, 1)) == (90.0, 10.0)

    def test_y_axis_flipped(self):
        canvas = SvgCanvas(Rect(0, 0, 1, 1))
        _, y_low = canvas.to_pixel(Point(0.5, 0.1))
        _, y_high = canvas.to_pixel(Point(0.5, 0.9))
        assert y_high < y_low


class TestElements:
    def test_circle_element(self):
        canvas = SvgCanvas(Rect(0, 0, 1, 1))
        canvas.circle(Point(0.5, 0.5), 3, fill="red")
        root = _parse(canvas.to_svg())
        circles = root.findall(f"{NS}circle")
        assert len(circles) == 1
        assert circles[0].get("fill") == "red"

    def test_polygon_element(self):
        canvas = SvgCanvas(Rect(0, 0, 1, 1))
        canvas.polygon([Point(0, 0), Point(1, 0), Point(0, 1)], stroke="blue")
        root = _parse(canvas.to_svg())
        polygons = root.findall(f"{NS}polygon")
        assert len(polygons) == 1
        assert len(polygons[0].get("points").split()) == 3

    def test_line_element(self):
        canvas = SvgCanvas(Rect(0, 0, 1, 1))
        canvas.line(Point(0, 0), Point(1, 1))
        root = _parse(canvas.to_svg())
        assert len(root.findall(f"{NS}line")) == 1

    def test_text_escaped(self):
        canvas = SvgCanvas(Rect(0, 0, 1, 1))
        canvas.text(Point(0.5, 0.5), "a < b & c")
        root = _parse(canvas.to_svg())  # parse fails if not escaped
        assert root.findall(f"{NS}text")[0].text == "a < b & c"

    def test_save(self, tmp_path):
        canvas = SvgCanvas(Rect(0, 0, 1, 1))
        canvas.circle(Point(0.5, 0.5), 2)
        path = tmp_path / "figure.svg"
        canvas.save(path)
        assert _parse(path.read_text()).tag == f"{NS}svg"


class TestSideBySide:
    def test_compose_two(self):
        a = SvgCanvas(Rect(0, 0, 1, 1), width=100)
        b = SvgCanvas(Rect(0, 0, 1, 1), width=100)
        a.circle(Point(0.5, 0.5), 2)
        b.circle(Point(0.5, 0.5), 2)
        root = _parse(side_by_side([a, b]))
        nested = root.findall(f"{NS}svg")
        assert len(nested) == 2
        assert int(root.get("width")) == 216  # 100 + 16 + 100

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            side_by_side([])
