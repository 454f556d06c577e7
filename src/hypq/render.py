"""Poincare-disc renderings as standalone SVG documents.

A scene is a dict with the four keys ``tiles``, ``geodesics``,
``sectors`` and ``labels`` (each a list, all optional) whose points are
the disc's own ``complex`` values: a tile entry's ``points`` is the
tile's ``vertices`` tuple, and ``a``, ``b``, ``vertex`` and ``at`` are
single points.  Builders at the bottom of the module produce scenes
from the geometric objects; ``render_svg`` only turns a scene into text,
in one fixed style.  A sector wall is drawn from its ray's origin to the
ideal endpoint the ray itself names (``sectors.Ray.ideal_endpoint``).

Geodesic segments become single circular-arc path commands: the circle
through two disc points orthogonal to the unit circle is solved by
``disc._arc``, the solve behind ``geodesic_through``, without building a
``Geodesic``, and the arc is always the minor one.  One loop writes both
segments and polygons; it reads each point's (|z|^2 + 1)/2 once, for
both arcs that meet there.  The output
is deterministic: fixed 6-decimal coordinates, items emitted in input
order, no dependence on anything outside the scene dict.
The vertical axis is flipped on emission so the mathematical
orientation (counter-clockwise positive) is preserved on screen.

Each path is one printf template, its commands joined, and a flat list
of numbers, formatted with a single ``%``.  Every number is a %.6f
token between spaces, so a negative value that rounds to zero is
normalised by one replace of ``-0.000000`` with ``0.000000`` over the
whole path; it cannot match any other token.
"""

from __future__ import annotations

from collections.abc import Sequence
from xml.sax.saxutils import escape

from .disc import _arc, base_tile
from .errors import PrecisionExhausted
from .lines import h_midpoint_line, zigzag_line
from .schlafli import SchlafliPair, Scheme
from .sectors import SectorBoundary, cover
from .tiling import tessellate

# The one style: colours, and widths and sizes in disc units, written
# as they appear in the document.
_SIZE = 600
_DISC_STROKE = "#202020"
_TILE_STROKE = "#3a3a3a"
_TILE_FILL = "none"
_GEODESIC_STROKE = "#2c6fb3"
_SECTOR_STROKE = "#c0392b"
_LABEL_COLOR = "#111111"
_STROKE_WIDTH = "0.004000"
_ACCENT_WIDTH = "0.007000"
_LABEL_SIZE = "0.060000"
_DOT_RADIUS = "0.012000"

_VIEWBOX = "-1.05 -1.05 2.1 2.1"

# Endpoints closer than this are dropped rather than drawn as a
# zero-length arc, which some viewers reject.
_DEGENERATE = 1e-9


def _fmt(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


# Path commands as printf pieces; user space is y-down, so each point
# is given as (x, -y), which keeps the math orientation on screen.
_MOVE = "M %.6f %.6f"
_LINE = "L %.6f %.6f"
# Positive cross = counter-clockwise about the center in math
# coordinates, which the y-flip turns into SVG sweep 0.
_ARC_CCW = "A %.6f %.6f 0 0 0 %.6f %.6f"
_ARC_CW = "A %.6f %.6f 0 0 1 %.6f %.6f"


def _path(points: Sequence[complex], close: bool) -> str:
    """The path through at least two points along their geodesics, back
    to the first point when close; a step shorter than _DEGENERATE is
    dropped.

    Each arc is solved by disc._arc, so a drawn arc is its geodesic to
    the bit, and each point's m = (|z|^2 + 1)/2 is computed once for the
    two arcs that meet there.
    """
    halves = [(abs(z) ** 2 + 1.0) / 2.0 for z in points]
    a, ma = points[0], halves[0]
    x1, y1 = a.real, a.imag
    values = [x1, -y1]
    pieces = [_MOVE]
    if close:
        ends = zip(points[1:] + points[:1], halves[1:] + halves[:1])
    else:
        ends = zip(points[1:], halves[1:])
    for b, mb in ends:
        x2, y2 = b.real, b.imag
        if not abs(a - b) < _DEGENERATE:
            try:
                arc = _arc(a, ma, b, mb)
            except PrecisionExhausted:
                # both endpoints hug the boundary; at that scale the
                # chord is indistinguishable from the arc
                arc = None
            if arc is None:  # a diameter is drawn as its chord
                values += (x2, -y2)
                pieces.append(_LINE)
            else:
                c, r = arc
                cx, cy = c.real, c.imag
                values += (r, r, x2, -y2)
                # Im(conj(a - c) (b - c)), the turn about the center
                cross = (x1 - cx) * (y2 - cy) - (y1 - cy) * (x2 - cx)
                pieces.append(_ARC_CCW if cross > 0 else _ARC_CW)
        a, ma, x1, y1 = b, mb, x2, y2
    if close:
        pieces.append("Z")
    return (" ".join(pieces) % tuple(values)).replace("-0.000000", "0.000000")


def _segment_path(a: complex, b: complex) -> str | None:
    if abs(a - b) < _DEGENERATE:
        return None
    return _path([a, b], close=False)


def _polygon_path(points: Sequence[complex]) -> str | None:
    if len(points) < 2:
        return None
    return _path(points, close=True)


def render_svg(scene: dict) -> str:
    """Serialize a scene dict to an SVG 1.1 document.

    The unit disc maps to a square viewBox with a small margin; an
    empty scene still yields a valid document showing the disc border.
    Identical scene dicts produce byte-identical output.
    """
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="{_VIEWBOX}">',
        f'<circle cx="0" cy="0" r="1" fill="none" '
        f'stroke="{_DISC_STROKE}" stroke-width="{_STROKE_WIDTH}"/>',
    ]

    tiles = scene.get("tiles") or []
    if tiles:
        out.append('<g class="tiles">')
        for item in tiles:
            d = _polygon_path(item["points"])
            if d is None:
                continue
            fill = item.get("fill", _TILE_FILL)
            out.append(
                f'<path d="{d}" fill="{fill}" stroke="{_TILE_STROKE}" '
                f'stroke-width="{_STROKE_WIDTH}"/>'
            )
        out.append("</g>")

    geodesics = scene.get("geodesics") or []
    if geodesics:
        out.append('<g class="geodesics">')
        for item in geodesics:
            d = _segment_path(item["a"], item["b"])
            if d is None:
                continue
            out.append(
                f'<path d="{d}" fill="none" stroke="{_GEODESIC_STROKE}" '
                f'stroke-width="{_ACCENT_WIDTH}"/>'
            )
        out.append("</g>")

    sectors = scene.get("sectors") or []
    if sectors:
        out.append('<g class="sectors">')
        for item in sectors:
            for arc in item.get("arcs", []):
                d = _segment_path(arc["a"], arc["b"])
                if d is None:
                    continue
                out.append(
                    f'<path d="{d}" fill="none" '
                    f'stroke="{_SECTOR_STROKE}" stroke-width="{_ACCENT_WIDTH}"/>'
                )
            v = item["vertex"]
            out.append(
                f'<circle cx="{_fmt(v.real)}" cy="{_fmt(-v.imag)}" '
                f'r="{_DOT_RADIUS}" fill="{_SECTOR_STROKE}"/>'
            )
        out.append("</g>")

    labels = scene.get("labels") or []
    if labels:
        out.append('<g class="labels">')
        for item in labels:
            at = item["at"]
            text = escape(str(item["text"]))
            out.append(
                f'<text x="{_fmt(at.real)}" y="{_fmt(-at.imag)}" '
                f'font-size="{_LABEL_SIZE}" text-anchor="middle" '
                f'dominant-baseline="middle" '
                f'fill="{_LABEL_COLOR}">{text}</text>'
            )
        out.append("</g>")

    out.append("</svg>")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# Scene builders

#: Walk lengths of the figure lines.
_MIDLINE_STEPS = 4
_ZIGZAG_STEPS = 8


def _sector_entry(sb: SectorBoundary) -> dict:
    arcs = [
        {"a": r.origin, "b": r.ideal_endpoint()} for r in sb.rays
    ]
    return {"vertex": sb.vertex, "arcs": arcs}


def tessellation_scene(pair: SchlafliPair, generations: int = 3) -> dict:
    """All tiles of the reflection closure, nothing else."""
    tess = tessellate(pair, generations)
    return {
        "tiles": [{"points": t.vertices} for t in tess.tiles],
        "geodesics": [],
        "sectors": [],
        "labels": [],
    }


def sector_scene(
    pair: SchlafliPair, scheme: Scheme, generations: int = 3
) -> dict:
    """Tessellation with the scheme's sector cover drawn on top.

    The even scheme and the first odd scheme show the q head-bearing
    sectors; the second odd scheme shows its 2q-sector cover.  Each
    apex is marked and numbered by copy index.
    """
    scene = tessellation_scene(pair, generations)
    boundaries = cover(pair, scheme, scheme.head)
    scene["sectors"] = [_sector_entry(sb) for sb in boundaries]
    scene["labels"] = [
        {"at": sb.witness, "text": str(sb.copy_index)}
        for sb in boundaries
    ]
    return scene


def midlines_scene(pair: SchlafliPair, generations: int = 3) -> dict:
    """Tessellation with one mid-point line per base-tile edge.

    Each line is drawn in full, ideal point to ideal point, the walked
    mid-points marked as labels.
    """
    scene = tessellation_scene(pair, generations)
    base = base_tile(pair)
    for i in range(base.p):
        ml = h_midpoint_line(pair, base.edge(i), steps=_MIDLINE_STEPS)
        e1, e2 = ml.supporting.ideal_endpoints()
        scene["geodesics"].append({"a": e1, "b": e2})
        scene["labels"].extend(
            {"at": m, "text": "."} for m in ml.midpoints
        )
    return scene


def zigzag_scene(pair: SchlafliPair, generations: int = 3) -> dict:
    """Tessellation with one zig-zag edge walk drawn on top."""
    scene = tessellation_scene(pair, generations)
    path = zigzag_line(pair, steps=_ZIGZAG_STEPS)
    scene["geodesics"] = [{"a": a, "b": b} for a, b in path.edges]
    return scene
