"""A minimal SVG document builder (standard library only).

Just enough SVG for the figure renderers: a canvas with a world-to-pixel
transform, primitive shapes, and text.  Output is a self-contained
``<svg>`` document string (or file).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple
from xml.sax.saxutils import escape, quoteattr

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect


class SvgCanvas:
    """An SVG drawing surface mapping world coordinates to pixels.

    Parameters
    ----------
    world:
        The world-coordinate rectangle shown on the canvas.
    width:
        Pixel width; height follows from the world aspect ratio.
    padding:
        Pixel padding around the drawn world area.

    The y axis is flipped (world y grows upward, SVG y grows downward), so
    figures look like the paper's plots, not mirror images.
    """

    def __init__(
        self,
        world: Rect,
        width: int = 640,
        padding: int = 12,
    ) -> None:
        if world.width <= 0 or world.height <= 0:
            raise ValueError("world rectangle must have positive area")
        if width <= 2 * padding:
            raise ValueError("width must exceed twice the padding")
        self.world = world
        self.width = width
        self.padding = padding
        inner = width - 2 * padding
        self._scale = inner / world.width
        self.height = int(round(world.height * self._scale)) + 2 * padding
        self._elements: List[str] = []

    # -- coordinate transform ---------------------------------------------

    def to_pixel(self, p: Point) -> Tuple[float, float]:
        """World point -> pixel coordinates (y flipped)."""
        x = self.padding + (p.x - self.world.min_x) * self._scale
        y = (
            self.height
            - self.padding
            - (p.y - self.world.min_y) * self._scale
        )
        return (round(x, 2), round(y, 2))

    # -- primitives ----------------------------------------------------------

    def circle(
        self,
        center: Point,
        radius_px: float,
        *,
        fill: str = "black",
        stroke: str = "none",
        stroke_width: float = 1.0,
        opacity: float = 1.0,
    ) -> None:
        """A dot of fixed pixel radius at a world position."""
        cx, cy = self.to_pixel(center)
        self._elements.append(
            f'<circle cx="{cx}" cy="{cy}" r="{radius_px}" '
            f'fill={quoteattr(fill)} stroke={quoteattr(stroke)} '
            f'stroke-width="{stroke_width}" opacity="{opacity}"/>'
        )

    def polygon(
        self,
        vertices: Sequence[Point],
        *,
        fill: str = "none",
        stroke: str = "black",
        stroke_width: float = 1.5,
        opacity: float = 1.0,
    ) -> None:
        """A closed polygon."""
        pixel_pairs = " ".join(
            f"{x},{y}" for x, y in (self.to_pixel(v) for v in vertices)
        )
        self._elements.append(
            f'<polygon points="{pixel_pairs}" fill={quoteattr(fill)} '
            f'stroke={quoteattr(stroke)} stroke-width="{stroke_width}" '
            f'opacity="{opacity}"/>'
        )

    def line(
        self,
        start: Point,
        end: Point,
        *,
        stroke: str = "black",
        stroke_width: float = 1.0,
        opacity: float = 1.0,
    ) -> None:
        """A straight segment."""
        x1, y1 = self.to_pixel(start)
        x2, y2 = self.to_pixel(end)
        self._elements.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke={quoteattr(stroke)} stroke-width="{stroke_width}" '
            f'opacity="{opacity}"/>'
        )

    def text(
        self,
        anchor: Point,
        content: str,
        *,
        size_px: int = 14,
        fill: str = "black",
        anchor_mode: str = "start",
    ) -> None:
        """A text label anchored at a world position."""
        x, y = self.to_pixel(anchor)
        self._elements.append(
            f'<text x="{x}" y="{y}" font-size="{size_px}" '
            f'font-family="sans-serif" fill={quoteattr(fill)} '
            f'text-anchor={quoteattr(anchor_mode)}>'
            f"{escape(content)}</text>"
        )

    # -- output -----------------------------------------------------------------

    def to_svg(self) -> str:
        """The complete SVG document."""
        body = "\n  ".join(self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">\n'
            f'  <rect width="{self.width}" height="{self.height}" '
            f'fill="white"/>\n'
            f"  {body}\n"
            f"</svg>\n"
        )

    def save(self, path) -> None:
        """Write the document to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_svg())


def side_by_side(canvases: Iterable[SvgCanvas], gap: int = 16) -> str:
    """Compose canvases horizontally into one SVG document (Fig. 2 layout)."""
    canvases = list(canvases)
    if not canvases:
        raise ValueError("need at least one canvas")
    total_width = sum(c.width for c in canvases) + gap * (len(canvases) - 1)
    total_height = max(c.height for c in canvases)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_width}" '
        f'height="{total_height}" viewBox="0 0 {total_width} '
        f'{total_height}">'
    ]
    offset = 0
    for canvas in canvases:
        inner = canvas.to_svg()
        # Strip the outer <svg> wrapper and re-nest with an x offset.
        body = inner.split(">", 1)[1].rsplit("</svg>", 1)[0]
        parts.append(
            f'<svg x="{offset}" y="0" width="{canvas.width}" '
            f'height="{canvas.height}">{body}</svg>'
        )
        offset += canvas.width + gap
    parts.append("</svg>")
    return "\n".join(parts)
