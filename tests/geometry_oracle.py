"""The disc hot path built from Geodesic-style solves and Isometry objects.

hypq reflects, dedups and draws on raw Mobius coefficients and hoists each
ray's axis map out of the cover pairing loop.  These functions compute the
same values the object-per-candidate way, one operation for one
operation, so the tests can require equal floats rather than close ones:
a reordered or fused operation anywhere in the fast path shows up as a
differing bit.

The dedup index and the SVG path text are kept here as they were before
hypq probed a 2x2 grid and formatted each path once: a 3x3 probe of
tol-sized cells, and one f-string per number with its own -0 check.

``ray_to_ideal`` picks the end of a ray's line by following the angle
about the arc center, the way render chose it before a ray's heading
along its line's axis decided.

``locate_edge`` finds the tile edge realizing a segment, for tests that
check a walk runs on tessellation edges.

``sector_placement`` finds the tiles of the {p,4} sector tree in a
tessellation two generations deeper than the tree, the way the sector
was built before each son was placed as its father's mirror image,
with the side numbering and the errors that lookup needs.

``Membership`` and ``ring_census`` decide in floats which points and
tiles a copy of a sector cover holds; hypq's covers carry only rays and
a witness.  A copy is the wedge between its two supporting lines, on
the witness's side of each.  For an odd-q S0 copy (and each head-bearing
S0' copy of the doubled scheme) the boundary between the mid-points B
and C follows the head's two edges into V instead, so the head keeps
its corner: the corner patch is the dihedral at V between those edges,
clipped to 1.5 half-edges of V, short of the edges' far endpoints.  Of
the head's vertices only the far endpoint of edge b then falls outside;
there sits a fan of h-1 tiles, each likewise poking just that one
vertex out, which is why a copy owns a tile with at most one vertex
outside.  ``ring_census`` samples a circle around the vertex and counts
the copies over each sample, which shows how exactly the copies
partition the plane.
"""

import cmath
import math

from hypq.disc import (
    GEOM_TOL,
    Isometry,
    Tile,
    base_tile,
    geodesic_through,
    hyp_distance,
    point_at,
    rotation,
    tile_metrics,
)
from hypq.dual import fibonacci_tree
from hypq.errors import HypqError, PrecisionExhausted
from hypq.schlafli import Region, Scheme, validate
from hypq.tiling import tessellate as tessellate_tiling


class InsufficientTessellationDepth(HypqError):
    """The tessellation is too shallow for the requested construction."""


class NoFatherEdge(HypqError):
    """Side numbering was requested for a tile without a father edge."""


class SpatialIndex:
    """Points on a tol-sized grid; a lookup scans the 3x3 cells around."""

    def __init__(self, tol=1e-6):
        self.tol = tol
        self._grid = {}

    def _cell(self, z):
        return math.floor(z.real / self.tol), math.floor(z.imag / self.tol)

    def find(self, z):
        cx, cy = self._cell(z)
        best = None
        best_d = self.tol
        for ix in (cx - 1, cx, cx + 1):
            for iy in (cy - 1, cy, cy + 1):
                for w, payload in self._grid.get((ix, iy), ()):
                    d = abs(z - w)
                    if d < best_d:
                        best, best_d = payload, d
        return best

    def insert(self, z, payload):
        self._grid.setdefault(self._cell(z), []).append((z, payload))


def locate_edge(tess, a: complex, b: complex):
    """The tile and edge index of a tessellation realizing the segment
    ab, either order, by the tessellation's vertex ids."""
    ga, gb = tess.vertex_id(a), tess.vertex_id(b)
    if ga is not None and gb is not None:
        for tid in tess.vertex_groups()[ga][1]:
            tile = tess.tiles[tid]
            for i in range(tile.p):
                u, v = tile.edge(i)
                if {tess.vertex_id(u), tess.vertex_id(v)} == {ga, gb}:
                    return tile, i
    raise InsufficientTessellationDepth(
        f"edge not present at {tess.generations} generations"
    )


def _orientation(tile):
    """+1 when the stored vertex list runs counter-clockwise."""
    area = 0.0
    vs = tile.vertices
    for i in range(len(vs)):
        a, b = vs[i], vs[(i + 1) % len(vs)]
        area += a.real * b.imag - a.imag * b.real
    return 1 if area > 0 else -1


def side_numbering(tile, father_edge):
    """Edge index of each side 1..p, counter-clockwise from the father.

    The walk follows the geometric orientation rather than the list
    order, so tiles whose vertices happen to be stored clockwise are
    numbered the same way as everyone else.
    """
    if father_edge is None:
        raise NoFatherEdge("the central cell has no father side")
    step = _orientation(tile)
    return tuple((father_edge + step * k) % tile.p for k in range(tile.p))


def _junction(tile, edge_a, edge_b):
    ia = {edge_a, (edge_a + 1) % tile.p}
    ib = {edge_b, (edge_b + 1) % tile.p}
    (shared,) = ia & ib
    return tile.vertices[shared]


def sector_placement(depth, p=5):
    """Node id -> (tile, father edge, numbered vertex) of the sector across
    edge 0 of the central cell of {p,4}, looked up in tessellate(depth + 2):
    the head's father edge by vertex ids, each son by a neighbor_across
    probe across its side, and the son's back edge by a scan of p probes.
    A white node numbers the junction of sides 1 and 2, a black node that
    of sides 2 and 3."""
    tess = tessellate_tiling(validate(p, 4), depth + 2)
    central = tess.tiles[0]
    head = tess.neighbor_across(central, 0)
    if head is None:
        raise InsufficientTessellationDepth("no head tile at depth 0")
    father_edge = None
    want = {tess.vertex_id(v) for v in central.edge(0)}
    for i in range(head.p):
        if {tess.vertex_id(v) for v in head.edge(i)} == want:
            father_edge = i
    assert father_edge is not None
    placed = {1: (head, father_edge)}
    out = {}
    for node in fibonacci_tree(depth, p).nodes():
        tile, edge = placed.pop(node.id)
        sides = side_numbering(tile, edge)
        if node.kind is Region.S0:
            out[node.id] = (tile, edge, _junction(tile, sides[0], sides[1]))
            slots = range(2, p)
        else:
            out[node.id] = (tile, edge, _junction(tile, sides[1], sides[2]))
            slots = range(3, p)
        for slot, child_id in zip(slots, node.children):
            son = tess.neighbor_across(tile, sides[slot - 1])
            if son is None:
                raise InsufficientTessellationDepth(
                    f"missing son of node {node.id} at level {node.level}"
                )
            back = None
            for i in range(son.p):
                nb = tess.neighbor_across(son, i)
                if nb is not None and nb.id == tile.id:
                    back = i
            assert back is not None
            placed[child_id] = (son, back)
    return out


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


def _fmt(x: float) -> str:
    out = f"{x:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _xy(z: complex) -> str:
    return f"{_fmt(z.real)} {_fmt(-z.imag)}"


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


def segment_path(a: complex, b: complex):
    if abs(a - b) < 1e-9:
        return None
    return f"M {_xy(a)} {arc_command(a, b)}"


def polygon_path(points):
    if len(points) < 2:
        return None
    parts = [f"M {_xy(points[0])}"]
    for i in range(len(points)):
        a = points[i]
        b = points[(i + 1) % len(points)]
        if abs(a - b) < 1e-9:
            continue
        parts.append(arc_command(a, b))
    parts.append("Z")
    return " ".join(parts)


_ADVANCE = 0.5


def _signed_distance(geodesic, z: complex) -> float:
    w = geodesic.to_axis()(z)
    return math.asinh(2.0 * w.imag / (1.0 - abs(w) ** 2))


def ray_to_ideal(ray) -> complex:
    """The ideal endpoint the ray runs into."""
    line = ray.line
    e1, e2 = line.ideal_endpoints()
    if line.center is None:
        d = ray.direction
        return e1 if (d.conjugate() * e1).real > 0 else e2
    # Moving from the origin in the ray direction sweeps the angle
    # about the arc center monotonically; follow that sense.
    rel = ray.origin - line.center
    sense = (rel.conjugate() * ray.direction).imag
    a0 = cmath.phase(rel)

    def ahead(e: complex) -> float:
        d = cmath.phase(e - line.center) - a0
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        return d * sense

    return e1 if ahead(e1) > 0 else e2


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


def _inner_sides(lines, witness):
    """Each line with the sign of its side that holds the witness."""
    sides = []
    for line in lines:
        s = line.signed_distance(witness)
        if abs(s) < 10 * GEOM_TOL:
            raise AssertionError("witness too close to a boundary line")
        sides.append((line, math.copysign(1.0, s)))
    return tuple(sides)


def _within(sides, z, tol):
    return all(line.signed_distance(z) * sign >= -tol for line, sign in sides)


def _head_corner(sector):
    """(V, inner sides, radius) of a head-bearing odd copy's corner patch,
    None for the other copies: the base tile's two edges at V, turned
    about V with the copy."""
    k = sector.copy_index
    if sector.scheme is Scheme.ODD_V1 and sector.kind is Region.S0:
        turn = k
    elif sector.scheme is Scheme.ODD_V2 and k % 2 == 0:
        turn = k // 2
    else:
        return None
    pair = sector.pair
    verts = base_tile(pair).vertices
    step = rotation(-2.0 * math.pi * turn / pair.q, about=verts[0])
    v = step(verts[0])
    lines = (geodesic_through(v, step(verts[1])), geodesic_through(v, step(verts[-1])))
    return v, _inner_sides(lines, sector.witness), 1.5 * tile_metrics(pair).half_edge


class Membership:
    """One copy of a cover as a float region, its sides fixed once."""

    def __init__(self, sector):
        self.walls = _inner_sides([ray.line for ray in sector.rays], sector.witness)
        self.corner = _head_corner(sector)

    def contains(self, z, tol=GEOM_TOL):
        """True when z lies in the copy; the boundary counts as inside."""
        if _within(self.walls, z, tol):
            return True
        if self.corner is None:
            return False
        vertex, sides, radius = self.corner
        return hyp_distance(vertex, z) <= radius and _within(sides, z, tol)

    def clearance(self, z):
        """Distance to the nearer supporting line, either side."""
        return min(abs(line.signed_distance(z)) for line, _ in self.walls)

    def owns(self, tile):
        """At most one vertex of the tile strictly outside the copy."""
        return sum(not self.contains(v) for v in tile.vertices) <= 1


def ring_census(sectors, center, radius):
    """(samples, skipped, min_hits, max_hits, uncovered) on a hyperbolic
    circle of 720 samples: samples no copy covers are uncovered; those
    within 1e-6 of a supporting line are skipped; the hits of the rest
    count the copies holding them 1e-6 inside."""
    samples, skip_clearance = 720, 1e-6
    copies = [Membership(s) for s in sectors]
    skipped = uncovered = 0
    hits_lo, hits_hi = len(copies), 0
    for i in range(samples):
        ang = 2.0 * math.pi * (i + 0.5) / samples
        z = point_at(center, complex(math.cos(ang), math.sin(ang)), radius)
        if not any(c.contains(z) for c in copies):
            uncovered += 1
            continue
        if min(c.clearance(z) for c in copies) < skip_clearance:
            skipped += 1
            continue
        strict = sum(c.contains(z, tol=-skip_clearance) for c in copies)
        hits_lo = min(hits_lo, strict)
        hits_hi = max(hits_hi, strict)
    if hits_hi == 0:
        hits_lo = 0
    return samples, skipped, hits_lo, hits_hi, uncovered
