"""SVG output: document shape, determinism, and arc geometry fidelity."""

import cmath
import hashlib
import math
import re
from xml.dom import minidom

import pytest

import geometry_oracle
from hypq.disc import geodesic_through
from hypq.dual import dual_scene
from hypq.errors import PrecisionExhausted
from hypq.render import (
    _polygon_path,
    _segment_path,
    midlines_scene,
    render_svg,
    sector_scene,
    tessellation_scene,
    zigzag_scene,
)
from hypq.schlafli import Scheme, validate


def test_empty_scene_is_a_valid_document():
    svg = render_svg({})
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert svg.rstrip().endswith("</svg>")
    assert '<circle cx="0" cy="0" r="1"' in svg  # the disc border
    assert "<g" not in svg  # no empty groups
    minidom.parseString(svg)


ALL_SCENES = [
    tessellation_scene(validate(5, 4), 2),
    tessellation_scene(validate(4, 5), 2),
    sector_scene(validate(5, 4), Scheme.EVEN_Q, 2),
    sector_scene(validate(5, 7), Scheme.ODD_V1, 2),
    sector_scene(validate(5, 7), Scheme.ODD_V2, 2),
    midlines_scene(validate(4, 5), 2),
    zigzag_scene(validate(5, 7), 2),
    dual_scene(2),
]


@pytest.mark.parametrize("scene", ALL_SCENES, ids=range(len(ALL_SCENES)))
def test_scenes_render_well_formed(scene):
    svg = render_svg(scene)
    minidom.parseString(svg)
    assert "-0.000000" not in svg
    # every stroke coordinate stays inside the viewBox square
    for x, y in re.findall(r'[ML] (-?\d+\.\d+) (-?\d+\.\d+)', svg):
        assert abs(float(x)) <= 1.05 and abs(float(y)) <= 1.05


def test_rendering_is_deterministic():
    for build in (
        lambda: tessellation_scene(validate(5, 4), 2),
        lambda: sector_scene(validate(5, 7), Scheme.ODD_V1, 2),
        lambda: dual_scene(2),
    ):
        assert render_svg(build()) == render_svg(build())


def test_labels_are_escaped():
    svg = render_svg({"labels": [{"at": 0j, "text": "<&>"}]})
    assert "&lt;&amp;&gt;" in svg
    assert "<&>" not in svg


def test_sector_scene_marks_the_copies():
    scene = sector_scene(validate(5, 7), Scheme.ODD_V1, 2)
    assert len(scene["sectors"]) == 7
    labels = {item["text"] for item in scene["labels"]}
    assert labels == {str(k) for k in range(7)}
    scene2 = sector_scene(validate(5, 7), Scheme.ODD_V2, 2)
    assert len(scene2["sectors"]) == 14


def test_tessellation_scene_tile_counts():
    from hypq.tiling import tessellate

    scene = tessellation_scene(validate(5, 4), 2)
    tess = tessellate(validate(5, 4), 2)
    assert len(scene["tiles"]) == len(tess) == 21
    # a tile's points are its own vertex tuple, not a copy in another format
    points = [item["points"] for item in scene["tiles"]]
    assert points == [t.vertices for t in tess.tiles]
    for item in scene["tiles"]:
        assert type(item["points"]) is tuple and len(item["points"]) == 5


_ARC = re.compile(
    r"(-?\d+\.\d+) (-?\d+\.\d+) A (\d+\.\d+) \d+\.\d+ 0 0 ([01]) "
    r"(-?\d+\.\d+) (-?\d+\.\d+)"
)


def _recover_center(x1, y1, r, sweep, x2, y2):
    """Arc-endpoint to center conversion for equal radii, no rotation.

    Straight from the implementation notes of the SVG spec (F.6.5),
    with large-arc always 0 here.
    """
    mx, my = (x1 - x2) / 2, (y1 - y2) / 2
    d2 = mx * mx + my * my
    s2 = max(0.0, (r * r - d2) / d2)
    sign = 1.0 if sweep == 1 else -1.0  # + when large-arc differs from sweep
    cxp = sign * math.sqrt(s2) * my
    cyp = -sign * math.sqrt(s2) * mx
    return cxp + (x1 + x2) / 2, cyp + (y1 + y2) / 2


def test_arc_commands_encode_the_right_circles():
    # decode every emitted arc and recover its center; it must match the
    # geodesic through the two endpoints (in math coordinates, so the
    # y-flip is undone first)
    svg = render_svg(tessellation_scene(validate(5, 4), 2))
    arcs = _ARC.findall(svg)
    assert len(arcs) > 30
    for x1, y1, r, sweep, x2, y2 in arcs:
        x1, y1, r, x2, y2 = map(float, (x1, y1, r, x2, y2))
        cx, cy = _recover_center(x1, y1, r, int(sweep), x2, y2)
        a = complex(x1, -y1)
        b = complex(x2, -y2)
        geo = geodesic_through(a, b)
        assert abs(complex(cx, -cy) - geo.center) < 1e-4, (a, b)
        # endpoints are rounded to 6 decimals, which perturbs the
        # recomputed circle more for flatter arcs
        assert abs(r - geo.radius) < 1e-4 * max(1.0, geo.radius)


def test_midline_scene_has_ideal_geodesics():
    scene = midlines_scene(validate(4, 5), 2)
    assert scene["geodesics"]
    for item in scene["geodesics"]:
        for key in ("a", "b"):
            assert abs(abs(item[key]) - 1.0) < 1e-9  # ideal endpoints


# SHA-256 of render_svg output, pinned so that float drift between
# versions shows up, not only between reruns in one process.  Taken with
# CPython 3.11 on x86-64 Linux (glibc libm); a libm that rounds tanh or
# exp differently in the last bit could move a printed digit.
PINNED_SVGS = [
    (
        lambda: tessellation_scene(validate(7, 3), 5),
        "c3f0a52561d1fc998efa5d696e664502a5a456dc257c4dbb667e29940c28bbb4",
    ),
    (
        lambda: midlines_scene(validate(4, 5), 5),
        "4a0b6c4b7e1380a9392b63971e9c2a5193a8cdcb78dae139e062bc5c48cdf088",
    ),
    (
        lambda: zigzag_scene(validate(4, 5), 5),
        "0fd7be67d05b3397fe79874b79c8cf5fde24f52d2585a6aa431d4f00682b3283",
    ),
    (
        lambda: sector_scene(validate(5, 7), Scheme.ODD_V2, 3),
        "a8e9d53f468db0095f313fe597616f20faa44cd091980ea4e553cd44d04a3640",
    ),
    (
        lambda: sector_scene(validate(8, 8), Scheme.EVEN_Q, 4),
        "7bdfde33d181ef09abfd9a5e2a176d29a62631ee585d35777a3d9e4b5bef23f1",
    ),
    (
        # was bc68ee0d...89317 while the sector's tiles were looked up in a
        # tessellation, whose black tiles start at their breadth-first
        # parent; placed by reflection, every tile starts at its tree
        # father, which moves where those closed paths begin
        lambda: dual_scene(3),
        "46b721a671f6f569c9395a44e7a9412797a163a75131d5c48d80532ab6a8d634",
    ),
    (
        lambda: tessellation_scene(validate(8, 3), 5),
        "854a89a73db027293ea8a6be7113ebf0242a7032a3c5078359b69369622fd776",
    ),
    (
        lambda: midlines_scene(validate(7, 3), 6),
        "3b245e92c8bf0a830c8be1fd5ac2b6a36babc39d4e04cec559266c3e4a4834cf",
    ),
    (
        lambda: sector_scene(validate(4, 5), Scheme.ODD_V1, 3),
        "804b0dfc5e83669322cbeda74e2ed3b6119255074ffc6ce4985a53f9015bcaf5",
    ),
    (
        lambda: sector_scene(validate(5, 7), Scheme.ODD_V1, 2),
        "d731ff5a41fd5ade02f6f54512c78336633ec60c7fc7611194bd71e25ce95163",
    ),
]


@pytest.mark.parametrize("build,digest", PINNED_SVGS, ids=range(len(PINNED_SVGS)))
def test_rendered_bytes_are_pinned(build, digest):
    assert hashlib.sha256(render_svg(build()).encode()).hexdigest() == digest


def test_arc_commands_match_the_object_oracle():
    hug = 1.0 - 1e-12
    near = (0.6 + 0.8j) * hug
    rim = (near, cmath.exp(1j * (cmath.phase(near) + 1e-9)) * hug)
    with pytest.raises(PrecisionExhausted):
        geometry_oracle.line(*rim)  # the center solves inside the disc
    pairs = [(0.5 + 0j, -0.3 + 0j), (0.25 + 0.25j, 0.25 + 0.25j), rim]
    for scene in (
        sector_scene(validate(8, 8), Scheme.EVEN_Q, 4),
        midlines_scene(validate(5, 7), 2),
        zigzag_scene(validate(5, 7), 2),
        sector_scene(validate(4, 5), Scheme.ODD_V2, 2),
    ):
        for item in scene["tiles"]:
            pts = item["points"]
            pairs += zip(pts, pts[1:] + pts[:1])
        for item in scene["geodesics"]:
            pairs.append((item["a"], item["b"]))
        for item in scene["sectors"]:
            pairs += [(arc["a"], arc["b"]) for arc in item["arcs"]]
    assert len(pairs) > 25000
    for a, b in pairs:
        assert _segment_path(a, b) == geometry_oracle.segment_path(a, b), (a, b)
        # the same pair as a closed two-point path draws both directions
        assert _polygon_path([a, b]) == geometry_oracle.polygon_path([a, b]), (a, b)


def test_paths_match_the_per_number_writer():
    # every tile of three tessellations, plus the special cases: a
    # diameter, equal points, a degenerate edge inside a polygon, a
    # center that solves inside the disc, and coordinates that print
    # as -0.000000 before normalisation
    hug = 1.0 - 1e-12
    near = (0.6 + 0.8j) * hug
    rim = [near, cmath.exp(1j * (cmath.phase(near) + 1e-9)) * hug]
    polygons = [
        [0.5 + 0j, -0.3 + 0j],
        [0.25 + 0.25j, 0.25 + 0.25j],
        rim,
        [0.1 + 0.1j, 0.1 + 0.1j + 1e-12, 0.3 - 0.2j, -0.2 + 0.1j],
        [-1e-9 + 0.5j, 0.4 - 1e-9j, -0.3 + 1e-9j, -1e-7 - 2e-7j],
        [0j, -1e-9 - 1e-9j],
        [0.3 + 0.1j],
        [],
    ]
    for pair, gen in ((validate(7, 3), 6), (validate(4, 5), 6), (validate(8, 8), 4)):
        for item in tessellation_scene(pair, gen)["tiles"]:
            polygons.append(item["points"])
    assert len(polygons) > 3000
    for pts in polygons:
        assert _polygon_path(pts) == geometry_oracle.polygon_path(pts), pts
        for a, b in zip(pts, pts[1:]):
            assert _segment_path(a, b) == geometry_oracle.segment_path(a, b), (a, b)
    assert "%.6f" % -1e-9 == "-0.000000"
    assert "-0.000000" not in _polygon_path(polygons[4])
