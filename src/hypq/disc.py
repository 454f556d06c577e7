"""Poincare-disc primitives: points, geodesics, isometries, tiles.

Points are complex numbers strictly inside the unit circle.  Geodesics
are diameters or arcs of circles orthogonal to the unit circle; the
orthogonality condition |center|^2 = radius^2 + 1 is kept exact by
construction.  Isometries are Mobius maps z -> (az+b)/(cz+d), composed
with conjugation first when the anti flag is set (reflections are
anti-maps).  The model is conformal, so angles at a point are plain
Euclidean angles between tangent directions.

A geodesic builds its axis map, the isometry carrying it onto the real
diameter, once, on first use, and keeps it: its signed distances, the
sector covers' pairing and the heading of a ray along it all read that
one map.

Everything here is desk-scale double precision; the package-wide
geometric tolerance is GEOM_TOL and accumulated error is kept well
below it by the involution/isometry tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import PrecisionExhausted
from .schlafli import SchlafliPair

#: Tolerance for geometric identities (angles, collinearity, closures).
GEOM_TOL = 1e-9


def hyp_distance(u: complex, v: complex) -> float:
    """Hyperbolic distance between two points of the open disc.

    cosh d = 1 + 2 |u - v|^2 / ((1 - |u|^2)(1 - |v|^2)), written as
    sinh(d/2) = |u - v| / sqrt((1 - |u|^2)(1 - |v|^2)), so that nearby
    points keep their distance: through acosh, points 1e-9 apart
    measured 0 (1 + 2e-18 rounds to 1).
    """
    du = 1.0 - abs(u) ** 2
    dv = 1.0 - abs(v) ** 2
    return 2.0 * math.asinh(abs(u - v) / math.sqrt(du * dv))


@dataclass(frozen=True)
class TileMetrics:
    """Hyperbolic lengths of the right triangle spanned by a tile:
    center to vertex, center to edge midpoint, edge midpoint to vertex."""

    circumradius: float
    inradius: float
    half_edge: float


def tile_metrics(pair: SchlafliPair) -> TileMetrics:
    """Right-triangle trigonometry of the {p,q} cell.

    The triangle center / edge-midpoint / vertex has angles pi/p, pi/2,
    pi/q; each leg's cosh is cos of the opposite angle over sin of the
    adjacent one, and the hyperbolic Pythagoras identity ties the three
    sides together (verified in tests).  The assignment of the two legs
    is pinned by measurement: half the constructed edge of {5,7} is
    1.2062..., not 0.9624....
    """
    ap = math.pi / pair.p
    aq = math.pi / pair.q
    circum = math.acosh(1.0 / (math.tan(ap) * math.tan(aq)))
    inr = math.acosh(math.cos(aq) / math.sin(ap))
    half_edge = math.acosh(math.cos(ap) / math.sin(aq))
    return TileMetrics(circum, inr, half_edge)


# ---------------------------------------------------------------------------
# Isometries


@dataclass(frozen=True)
class Isometry:
    """z -> (a w + b)/(c w + d) with w = conj(z) if anti else z."""

    a: complex
    b: complex
    c: complex
    d: complex
    anti: bool = False

    def __call__(self, z: complex) -> complex:
        w = z.conjugate() if self.anti else z
        return (self.a * w + self.b) / (self.c * w + self.d)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: (self.compose(other))(z) = self(other(z))."""
        if self.anti:
            oa, ob, oc, od = (
                other.a.conjugate(),
                other.b.conjugate(),
                other.c.conjugate(),
                other.d.conjugate(),
            )
        else:
            oa, ob, oc, od = other.a, other.b, other.c, other.d
        return Isometry(
            self.a * oa + self.b * oc,
            self.a * ob + self.b * od,
            self.c * oa + self.d * oc,
            self.c * ob + self.d * od,
            self.anti != other.anti,
        )

    def inverse(self) -> "Isometry":
        a, b, c, d = self.d, -self.b, -self.c, self.a
        if self.anti:
            a, b, c, d = (
                a.conjugate(),
                b.conjugate(),
                c.conjugate(),
                d.conjugate(),
            )
        return Isometry(a, b, c, d, self.anti)


def rotation(angle: float, about: complex) -> Isometry:
    rot = Isometry(cmath.exp(1j * angle), 0, 0, 1)
    t = translate_to(about)
    return t.compose(rot).compose(t.inverse())


def translate_to(v: complex) -> Isometry:
    """The hyperbolic translation moving the origin to v.

    Its derivative at the origin is a positive real, so tangent
    directions at the origin reappear unrotated at v.
    """
    return Isometry(1, v, v.conjugate(), 1)


def point_at(v: complex, direction: complex, dist: float) -> complex:
    """The point at hyperbolic distance dist from v along a unit tangent
    direction given in the conformal chart at v."""
    u = direction / abs(direction)
    return translate_to(v)(math.tanh(dist / 2.0) * u)


def direction_toward(v: complex, w: complex) -> complex:
    """Unit tangent direction at v pointing toward w."""
    d = translate_to(v).inverse()(w)
    return d / abs(d)


def angle_at(v: complex, a: complex, b: complex) -> float:
    """Angle of the triangle corner at v between the sides toward a and b."""
    da = direction_toward(v, a)
    db = direction_toward(v, b)
    return abs(cmath.phase(db / da))


def hyp_midpoint(u: complex, v: complex) -> complex:
    """The hyperbolic midpoint of the segment uv.

    Raises PrecisionExhausted when v, seen from u, rounds onto the unit
    circle.
    """
    back = translate_to(u)
    w = back.inverse()(v)
    if w == 0:
        return u
    r = abs(w)
    if r >= 1.0:
        raise PrecisionExhausted(
            "the segment's far end rounds onto the unit circle; "
            "double precision ran out near the boundary"
        )
    half = math.tanh(math.atanh(r) / 2.0)
    return back(half * w / r)


# ---------------------------------------------------------------------------
# Geodesics


@dataclass(frozen=True)
class Geodesic:
    """A full hyperbolic line.

    Diameter: center is None and direction is a unit complex number (the
    line is the set t*direction).  Arc: the circle |z - center| = radius
    with |center|^2 = radius^2 + 1, direction unused.
    """

    center: complex | None
    radius: float
    direction: complex

    def to_axis(self) -> Isometry:
        """An isometry carrying this geodesic onto the real diameter,
        built on first use and kept by the line."""
        return self._axis

    @cached_property
    def _axis(self) -> Isometry:
        if self.center is None:
            return Isometry(self.direction.conjugate(), 0, 0, 1)
        # move the point of the arc nearest the origin to the origin;
        # there the arc's tangent is perpendicular to the center direction
        u = self.center / abs(self.center)
        foot = u * (abs(self.center) - self.radius)
        t = translate_to(foot).inverse()
        tangent = 1j * u
        return Isometry(tangent.conjugate(), 0, 0, 1).compose(t)

    def signed_distance(self, z: complex) -> float:
        """Hyperbolic distance to the line, signed by side."""
        return _axis_height(self._axis(z))

    def reflection(self) -> Isometry:
        return Isometry(*_mirror(self.center, self.radius, self.direction), anti=True)

    def ideal_endpoints(self) -> tuple[complex, complex]:
        """The two boundary points of the line, as unit complex numbers."""
        if self.center is None:
            return self.direction, -self.direction
        phi = cmath.phase(self.center)
        spread = math.acos(1.0 / abs(self.center))
        return cmath.exp(1j * (phi - spread)), cmath.exp(1j * (phi + spread))


def _axis_height(w: complex) -> float:
    """The signed hyperbolic distance of w from the real diameter: a
    line's signed distance to z is the height of z's image under the
    line's axis map."""
    return math.asinh(2.0 * w.imag / (1.0 - abs(w) ** 2))


def _arc(
    z1: complex, m1: float, z2: complex, m2: float
) -> tuple[complex, float] | None:
    """Center and radius of the circle through z1 and z2 orthogonal to
    the unit circle, given m = (|z|^2 + 1)/2 of each point.

    Solves 2 Re(conj(z) c) = |z|^2 + 1 for c; None when the determinant
    vanishes, i.e. the points are collinear with the origin and their
    line is a diameter.  A center inside the unit circle means the solve
    lost all precision (two points hugging the boundary), which raises
    PrecisionExhausted.  Lines, tile mirrors and the arcs of render's
    SVG paths are all solved here.
    """
    x1, y1, x2, y2 = z1.real, z1.imag, z2.real, z2.imag
    det = x1 * y2 - y1 * x2
    if abs(det) < 1e-13:
        return None
    center = complex((m1 * y2 - m2 * y1) / det, (m2 * x1 - m1 * x2) / det)
    mod2 = abs(center) ** 2
    if mod2 <= 1.0:
        raise PrecisionExhausted(
            "arc center must lie outside the unit circle; "
            "double precision ran out near the boundary"
        )
    return center, math.sqrt(mod2 - 1.0)


def _line_through(z1: complex, z2: complex) -> tuple[complex | None, float, complex]:
    """The fields (center, radius, direction) of geodesic_through(z1, z2)."""
    if z1 == z2:
        raise ValueError("two distinct points are needed")
    arc = _arc(z1, (abs(z1) ** 2 + 1.0) / 2.0, z2, (abs(z2) ** 2 + 1.0) / 2.0)
    if arc is None:
        d = z2 - z1
        return None, 0.0, d / abs(d)
    return arc[0], arc[1], 0j


def _mirror(center: complex | None, radius: float, direction: complex) -> tuple:
    """The reflection in the geodesic with these fields, as anti-Mobius
    coefficients (a, b, c, d): z -> (a w + b)/(c w + d) with w = conj(z)."""
    if center is None:
        return direction**2, 0, 0, 1
    return center, radius**2 - abs(center) ** 2, 1, -center.conjugate()


def geodesic_through(z1: complex, z2: complex) -> Geodesic:
    """The unique geodesic through two distinct points."""
    return Geodesic(*_line_through(z1, z2))


# ---------------------------------------------------------------------------
# Tiles


class Tile(NamedTuple):
    """A cell of the tessellation; vertices counter-clockwise.

    An immutable, hashable tuple of its fields: being a NamedTuple, a
    Tile equals the plain tuple ``(id, vertices, center, generation,
    parent, parent_edge)``.  The hyperbolic center rides along through
    reflections, which gives a stable dedup key without recomputing
    centroids.  Edge i joins vertices i and i+1; a reflected tile is
    built so that its edge 0 is the shared edge with its parent.
    """

    id: int
    vertices: tuple[complex, ...]
    center: complex
    generation: int
    parent: int | None = None
    parent_edge: int | None = None

    @property
    def p(self) -> int:
        return len(self.vertices)

    def edge(self, i: int) -> tuple[complex, complex]:
        return self.vertices[i], self.vertices[(i + 1) % self.p]

    def edge_geodesic(self, i: int) -> Geodesic:
        return geodesic_through(*self.edge(i))


#: Builds a Tile from a tuple of its fields in C; the NamedTuple's own
#: __new__ is a Python function.
_new_tile = tuple.__new__


def base_tile(pair: SchlafliPair) -> Tile:
    """The cell centered at the origin with a vertex on the positive x-axis."""
    rad = math.tanh(tile_metrics(pair).circumradius / 2.0)
    verts = tuple(
        rad * cmath.exp(2j * math.pi * k / pair.p) for k in range(pair.p)
    )
    return Tile(id=0, vertices=verts, center=0j, generation=0)


def reflect_tile(tile: Tile, edge_index: int, new_id: int) -> Tile:
    """Mirror image of a tile across one of its edges."""
    mirror, center = _edge_mirror(tile, edge_index)
    return _mirrored_tile(tile, edge_index, mirror, center, new_id)


def _edge_mirror(tile: Tile, edge_index: int) -> tuple[tuple, complex]:
    """The reflection in one edge of a tile, as anti-Mobius coefficients
    (a, b, c, d) of z -> (a w + b)/(c w + d) with w = conj(z), and the
    image of the tile's center under it.

    The same floats as tile.edge_geodesic(edge_index).reflection() and
    its call on the center, without building a Geodesic or an Isometry.
    """
    verts = tile.vertices
    z1, z2 = verts[edge_index], verts[(edge_index + 1) % len(verts)]
    mirror = _mirror(*_line_through(z1, z2))
    a, b, c, d = mirror
    w = tile.center.conjugate()
    return mirror, (a * w + b) / (c * w + d)


def _mirrored_tile(
    tile: Tile, edge_index: int, mirror: tuple, center: complex, new_id: int
) -> Tile:
    """The image of a tile under the mirror of its edge edge_index, its
    center's image given.

    The image's vertex list starts at the shared edge and runs
    counter-clockwise (a reflection reverses orientation, so the
    original order is walked backwards).
    """
    a, b, c, d = mirror
    verts = tile.vertices
    k = (edge_index + 1) % len(verts)
    conj = map(complex.conjugate, verts[k::-1] + verts[:k:-1])
    return _new_tile(
        Tile,
        (
            new_id,
            tuple([(a * w + b) / (c * w + d) for w in conj]),
            center,
            tile.generation + 1,
            tile.id,
            edge_index,
        ),
    )
