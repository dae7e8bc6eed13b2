"""Static SVG depiction of a configuration.

Occupied cells are circles laid out by the axial-to-cartesian embedding;
directed edges get an arrowhead, undirected edges are dashed, conflict
edges carry a head at both ends, and sinks are highlighted.  Output is
deterministic for a given configuration.
"""

from __future__ import annotations

import math

from .config import Configuration, EdgeOrientation
from .rules import sinks

_SCALE = 46.0
_RADIUS = 13.0
_MARGIN = 40.0

_STYLE = """
  circle.cell { fill: #e8e8e8; stroke: #444; stroke-width: 1.5; }
  circle.cell.sink { fill: #ffd24d; stroke: #b8860b; stroke-width: 3; }
  line.edge { stroke: #333; stroke-width: 2; }
  line.edge.undirected { stroke-dasharray: 6 5; stroke: #888; }
  line.edge.conflict { stroke: #c0392b; }
"""


def _xy(q: int, r: int) -> tuple[float, float]:
    return (_SCALE * (q + r / 2.0), -_SCALE * (r * math.sqrt(3.0) / 2.0))


def render_svg(config: Configuration) -> str:
    pts = {c: _xy(c.q, c.r) for c in config.support}
    xs = [p[0] for p in pts.values()]
    ys = [p[1] for p in pts.values()]
    x0, y0 = min(xs) - _MARGIN, min(ys) - _MARGIN
    width = max(xs) - min(xs) + 2 * _MARGIN
    height = max(ys) - min(ys) + 2 * _MARGIN

    def fmt(v: float) -> str:
        return f"{v:.2f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt(x0)} {fmt(y0)} {fmt(width)} {fmt(height)}">',
        "<defs>",
        '<marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="7" markerHeight="7" orient="auto-start-reverse">',
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#333"/>',
        "</marker>",
        "</defs>",
        f"<style>{_STYLE}</style>",
    ]

    for a, b in config.support.edges():
        xa, ya = pts[a]
        xb, yb = pts[b]
        dx, dy = xb - xa, yb - ya
        norm = math.hypot(dx, dy)
        ux, uy = dx / norm, dy / norm
        trim = _RADIUS + 2.0
        xa2, ya2 = xa + ux * trim, ya + uy * trim
        xb2, yb2 = xb - ux * trim, yb - uy * trim
        o = config.orientation(a, b)
        if o is EdgeOrientation.UNDIRECTED:
            attrs = 'class="edge undirected"'
        elif o is EdgeOrientation.CONFLICT:
            attrs = 'class="edge conflict" marker-start="url(#arrow)" marker-end="url(#arrow)"'
        elif o is EdgeOrientation.A_TO_B:
            attrs = 'class="edge directed" marker-end="url(#arrow)"'
        else:
            xa2, ya2, xb2, yb2 = xb2, yb2, xa2, ya2
            attrs = 'class="edge directed" marker-end="url(#arrow)"'
        lines.append(
            f'<line {attrs} x1="{fmt(xa2)}" y1="{fmt(ya2)}" x2="{fmt(xb2)}" y2="{fmt(yb2)}"/>'
        )

    sink_cells = sinks(config)
    for c in config.support:
        x, y = pts[c]
        cls = "cell sink" if c in sink_cells else "cell"
        lines.append(f'<circle class="{cls}" cx="{fmt(x)}" cy="{fmt(y)}" r="{_RADIUS}"/>')
        lines.append(
            f'<text x="{fmt(x)}" y="{fmt(y + 4)}" font-size="9" text-anchor="middle" fill="#555">{c.q},{c.r}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
