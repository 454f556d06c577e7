"""The disc hot path built from Geodesic-style solves and Isometry objects.

hypq reflects, dedups and draws on raw Mobius coefficients and hoists each
ray's axis map out of the cover pairing loop.  These functions compute the
same values the object-per-candidate way, one operation for one
operation, so the tests can require equal floats rather than close ones:
a reordered or fused operation anywhere in the fast path shows up as a
differing bit.
"""

import math

from hypq.disc import Isometry, Tile, base_tile, point_at
from hypq.errors import PrecisionExhausted
from hypq.render import _fmt, _xy
from hypq.tiling import SpatialIndex


def line(z1, z2):
    """(center, radius, direction) of the geodesic through z1 and z2."""
    if z1 == z2:
        raise ValueError("two distinct points are needed")
    det = z1.real * z2.imag - z1.imag * z2.real
    if abs(det) < 1e-13:
        d = z2 - z1
        return None, 0.0, d / abs(d)
    r1 = (abs(z1) ** 2 + 1.0) / 2.0
    r2 = (abs(z2) ** 2 + 1.0) / 2.0
    cx = (r1 * z2.imag - r2 * z1.imag) / det
    cy = (r2 * z1.real - r1 * z2.real) / det
    center = complex(cx, cy)
    mod2 = abs(center) ** 2
    if mod2 <= 1.0:
        raise PrecisionExhausted(
            "arc center must lie outside the unit circle; "
            "double precision ran out near the boundary"
        )
    return center, math.sqrt(mod2 - 1.0), 0j


def reflection(z1, z2) -> Isometry:
    """The reflection in the geodesic through z1 and z2."""
    center, radius, direction = line(z1, z2)
    if center is None:
        return Isometry(direction**2, 0, 0, 1, anti=True)
    c = center
    return Isometry(c, radius**2 - abs(c) ** 2, 1, -c.conjugate(), anti=True)


def reflect_tile(tile: Tile, edge_index: int, new_id: int) -> Tile:
    p = tile.p
    mirror = reflection(*tile.edge(edge_index))
    images = [mirror(v) for v in tile.vertices]
    order = [(edge_index + 1 - j) % p for j in range(p)]
    return Tile(
        id=new_id,
        vertices=tuple(images[k] for k in order),
        center=mirror(tile.center),
        generation=tile.generation + 1,
        parent=tile.id,
        parent_edge=edge_index,
    )


def tessellate(pair, generations) -> list[Tile]:
    """The tiles of the breadth-first reflection closure, each candidate
    built in full before the dedup probe."""
    root = base_tile(pair)
    tiles = [root]
    centers = SpatialIndex()
    centers.insert(root.center, 0)
    frontier = [root]
    for gen in range(1, generations + 1):
        new_frontier = []
        for tile in frontier:
            for e in range(tile.p):
                if tile.generation > 0 and e == 0:
                    continue
                try:
                    candidate = reflect_tile(tile, e, new_id=len(tiles))
                except PrecisionExhausted as exc:
                    raise PrecisionExhausted(
                        f"{pair}: generation {gen} after {len(tiles)} tiles: {exc}"
                    ) from exc
                if centers.find(candidate.center) is not None:
                    continue
                centers.insert(candidate.center, len(tiles))
                tiles.append(candidate)
                new_frontier.append(candidate)
        frontier = new_frontier
    return tiles


def arc_command(a: complex, b: complex) -> str:
    """The SVG path command from a to b along their geodesic."""
    try:
        center, radius, _ = line(a, b)
    except ValueError:
        return f"L {_xy(b)}"
    if center is None:
        return f"L {_xy(b)}"
    cross = ((a - center).conjugate() * (b - center)).imag
    sweep = 0 if cross > 0 else 1
    r = _fmt(radius)
    return f"A {r} {r} 0 0 {sweep} {_xy(b)}"


_ADVANCE = 0.5


def _signed_distance(geodesic, z: complex) -> float:
    w = geodesic.to_axis()(z)
    return math.asinh(2.0 * w.imag / (1.0 - abs(w) ** 2))


def heading_residual(r1, r2) -> float:
    axis = r1.line.to_axis()
    ahead2 = point_at(r2.origin, r2.direction, _ADVANCE)
    delta2 = (axis(ahead2) - axis(r2.origin)).real
    delta1 = (axis(point_at(r1.origin, r1.direction, _ADVANCE)) - axis(r1.origin)).real
    if delta1 * delta2 <= 0:
        return math.inf
    return max(
        abs(_signed_distance(r1.line, r2.origin)),
        abs(_signed_distance(r1.line, ahead2)),
    )


def cover_closure_residual(sectors) -> float:
    """Worst pairing gap of a cover, every ray pair solved from scratch."""
    rays = [(s.copy_index, ray) for s in sectors for ray in s.rays]
    worst = 0.0
    for i, (owner, ray) in enumerate(rays):
        gaps = sorted(
            heading_residual(ray, other)
            for j, (o, other) in enumerate(rays)
            if j != i and o != owner
        )
        if not gaps or math.isinf(gaps[0]):
            return math.inf
        if len(gaps) > 1 and gaps[1] < 1e-4:
            return math.inf
        worst = max(worst, gaps[0])
    return worst
