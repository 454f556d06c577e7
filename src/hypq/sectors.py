"""Sector boundaries for the splitting schemes.

All sectors are wedges: the intersection of two half-planes whose
bounding geodesics meet at a single point.  For even q the wedge sits at
a tile vertex V and its rays run along the two edges of the head tile.
For odd q the rays run along h-mid-point lines instead:

* S0 has vertex V and is delimited by the rays rho_B and rho_C issued
  from the mid-points B and C of the head's two edges at V; rho_B is
  supported by the line through B and A, where A is the mid-point of
  the edge bisecting the outer angle at V, and rho_C is the rotated
  image of rho_B taking B to C.

* S0' is a wedge at an edge mid-point between the two h-mid-point
  lines crossing there.  The copy the first odd scheme splits off S0
  opens away from V at the mid-point C, one boundary sharing rho_C's
  line; it stays inside S0 and misses the head.  In the second odd
  scheme q head-bearing copies apexed at the outer mid-points A_k
  alternate with q such away-opening copies at the edge mid-points
  C_k, giving the 2q-fold cover.

A copy is its two rays and a witness point inside it, nothing more: the
rays are drawn and checked for closure, and no membership is decided
here.  Copies are indexed so that consecutive copies share a supporting
line; cover_closure_residual measures how exactly the copies close up
around the vertex.  cover builds the frame of named points at V (with
the base tile and its half-edge) once and reads every copy from it.

A ray's heading is its run along its line's axis map (the line's own,
built once): the pairing of a cover compares headings on that axis, and
Ray.ideal_endpoint picks the end of the line the heading runs into,
which is where render draws a sector wall to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .disc import (
    Geodesic,
    Isometry,
    Tile,
    _axis_height,
    base_tile,
    direction_toward,
    geodesic_through,
    hyp_midpoint,
    point_at,
    rotation,
    tile_metrics,
)
from .errors import UnsupportedCase
from .schlafli import Region, SchlafliPair, Scheme, check_scheme


@dataclass(frozen=True)
class Ray:
    """Half of a geodesic: origin on the line plus the outgoing direction."""

    origin: complex
    direction: complex
    line: Geodesic

    def ideal_endpoint(self) -> complex:
        """The ideal endpoint the ray runs into: the end of its line
        whose image on the line's axis lies on the ray's heading."""
        axis, heading, _ = _ray_frame(self)
        e1, e2 = self.line.ideal_endpoints()
        return e1 if axis(e1).real * heading > 0 else e2


@dataclass(frozen=True)
class SectorBoundary:
    """A wedge-shaped region: two rays bounding 1/q-th of the plane.

    vertex is the point the copy is built around: V for the copies that
    pivot on the base vertex, the apex of an S0' wedge otherwise.  The
    witness lies inside the copy, off both supporting lines; render
    writes the copy_index there.
    """

    pair: SchlafliPair
    scheme: Scheme
    kind: Region
    vertex: complex
    rays: tuple[Ray, Ray]
    witness: complex
    copy_index: int


def cover_size(pair: SchlafliPair, scheme: Scheme) -> int:
    """How many rotated copies close up around the vertex."""
    return scheme.scale * pair.q


def _check_scheme(pair: SchlafliPair, scheme: Scheme, kind: Region) -> None:
    check_scheme(pair, scheme)
    if scheme is Scheme.ODD_LEGACY:
        raise UnsupportedCase(
            "legacy odd regions are bounded by zig-zag lines, not rays; "
            "render them via zigzag_line"
        )
    if kind is Region.S1:
        raise UnsupportedCase("S1 is the residual region, not a two-ray wedge")
    if scheme is Scheme.EVEN_Q and kind is not Region.S0:
        raise UnsupportedCase(f"{scheme.tag} defines only S0 wedges")
    if scheme is Scheme.ODD_V2 and kind is Region.S0:
        raise UnsupportedCase(f"{scheme.tag} splits the plane into S0' copies only")


@dataclass(frozen=True)
class _VertexFrame:
    """The named points of the construction at the base vertex V.

    tile is the base tile, whose vertex on the positive x-axis is V, and
    half_edge its half-edge length; c and b are the head's edges at V,
    counter-clockwise from c to b across the head.  A is the mid-point
    of the outer-bisector edge at V, which points radially away from the
    origin.  step rotates clockwise around V by 2pi/q, carrying b to c
    and A-labeled features to their neighbours.  A cover builds one
    frame and reads every copy from it.
    """

    pair: SchlafliPair
    tile: Tile
    half_edge: float
    vertex: complex
    b_mid: complex
    c_mid: complex
    a_mid: complex

    def step(self, k: int) -> Isometry:
        """Clockwise rotation about V by k tile-steps."""
        return rotation(-2.0 * math.pi * k / self.pair.q, about=self.vertex)

    @cached_property
    def a_next(self) -> complex:
        """A one step on: the outer mid-point of the next copy."""
        return self.step(1)(self.a_mid)


def _frame(pair: SchlafliPair) -> _VertexFrame:
    tile = base_tile(pair)
    v = tile.vertices[0]
    c_mid = hyp_midpoint(v, tile.vertices[1])
    b_mid = hyp_midpoint(v, tile.vertices[-1])
    half_edge = tile_metrics(pair).half_edge
    a_mid = point_at(v, 1.0 + 0j, half_edge)
    return _VertexFrame(pair, tile, half_edge, v, b_mid, c_mid, a_mid)


def _ray_through(origin: complex, toward: complex) -> Ray:
    return Ray(origin, direction_toward(origin, toward), geodesic_through(origin, toward))


def _ray_away(origin: complex, away_from: complex) -> Ray:
    return Ray(
        origin, -direction_toward(origin, away_from), geodesic_through(origin, away_from)
    )


def _bisector_probe(f: _VertexFrame, apex: complex, rays: tuple[Ray, Ray]) -> complex:
    """A point well inside a wedge, half an edge-half along its bisector."""
    d = rays[0].direction + rays[1].direction
    return point_at(apex, d / abs(d), 0.5 * f.half_edge)


def cover(pair: SchlafliPair, scheme: Scheme, kind: Region) -> list[SectorBoundary]:
    """All copies of the sector that together tile around the vertex.

    Copy k walks clockwise around the vertex; consecutive copies share
    a supporting line.  For the OddV2 S0' cover, even indices are the
    copies apexed at the outer mid-points A_k and odd indices the
    in-between copies apexed at the edge mid-points C_k.
    """
    _check_scheme(pair, scheme, kind)
    f = _frame(pair)
    return [_copy(f, scheme, kind, k) for k in range(cover_size(pair, scheme))]


def _copy(
    f: _VertexFrame, scheme: Scheme, kind: Region, copy_index: int
) -> SectorBoundary:
    """Copy copy_index of the sector, read from the frame."""
    pair = f.pair
    if scheme is Scheme.EVEN_Q:
        g = f.step(copy_index)
        v1, vp = g(f.tile.vertices[1]), g(f.tile.vertices[-1])
        rays = (_ray_through(f.vertex, v1), _ray_through(f.vertex, vp))
        return SectorBoundary(
            pair, scheme, kind, f.vertex, rays, g(0j), copy_index
        )

    if kind is Region.S0:
        g = f.step(copy_index)
        rays = (
            _ray_away(g(f.b_mid), g(f.a_mid)),
            _ray_away(g(f.c_mid), g(f.a_next)),
        )
        return SectorBoundary(pair, scheme, kind, f.vertex, rays, g(0j), copy_index)

    # S0' wedges: at an edge mid-point M, the two h-mid-point lines
    # through M cross; the two sectors there are the vertical pair of
    # wedges they cut out.  The copy headed by a tile opens toward the
    # vertex through its head; the in-between copy opens away from it.
    if scheme is Scheme.ODD_V1:
        # The piece S0 keeps after shedding its head and the fans: the
        # away-opening wedge at C.  Both rays run along the mid-point
        # lines through C, each away from the near mid-point A, so one
        # boundary shares rho_C's line.  The wedge sits inside S0 and
        # misses the head, which is what the splitting rule needs.
        return _away_wedge(f, scheme, kind, copy_index, copy_index)
    turn, between = divmod(copy_index, 2)
    g = f.step(turn)
    if not between:
        apex = g(f.a_mid)
        rays = (_ray_through(apex, g(f.b_mid)), _ray_through(apex, g(f.c_mid)))
        return SectorBoundary(pair, scheme, kind, apex, rays, g(0j), copy_index)
    return _away_wedge(f, scheme, kind, turn, copy_index)


def _away_wedge(
    f: _VertexFrame,
    scheme: Scheme,
    kind: Region,
    turn: int,
    copy_index: int,
) -> SectorBoundary:
    """The head-less wedge at an edge mid-point C, opening away from V."""
    g = f.step(turn)
    apex = g(f.c_mid)
    rays = (_ray_away(apex, g(f.a_mid)), _ray_away(apex, g(f.a_next)))
    return SectorBoundary(
        f.pair, scheme, kind, apex, rays, _bisector_probe(f, apex, rays),
        copy_index,
    )


_ADVANCE = 0.5  # hyperbolic step used to probe a ray's heading


def _ray_frame(ray: Ray) -> tuple[Isometry, float, complex]:
    """A ray's axis map (its line's own, onto the real diameter), its
    heading along that axis, and its probe point _ADVANCE ahead of the
    origin."""
    axis = ray.line.to_axis()
    ahead = point_at(ray.origin, ray.direction, _ADVANCE)
    return axis, (axis(ahead) - axis(ray.origin)).real, ahead


def _heading_residual(
    axis: Isometry, heading: float, origin2: complex, ahead2: complex
) -> float:
    """How far ray r2 is from running along r1's line with the same heading.

    axis and heading are r1's (_ray_frame); origin2 and ahead2 are r2's
    origin and probe point, each carried through the axis map once: the
    real parts give r2's heading along r1's line, the heights its
    distances from it.  Infinite when the headings oppose; otherwise the
    worse of the two probe distances.  The probes sit on r2, so the
    residual is symmetric enough for pairing purposes.
    """
    w_origin, w_ahead = axis(origin2), axis(ahead2)
    if heading * (w_ahead - w_origin).real <= 0:
        return math.inf
    return max(abs(_axis_height(w_origin)), abs(_axis_height(w_ahead)))


def cover_closure_residual(sectors: list[SectorBoundary]) -> float:
    """Worst gap in the boundary pairing of a cover.

    In a cover that closes up around the vertex, every boundary ray runs
    along the supporting line of exactly one ray of another copy with
    the same heading (the shared wall between consecutive copies).  The
    result is the largest pairing gap, or infinity when some ray has no
    partner or an ambiguous one.
    """
    rays = [
        (s.copy_index, ray.origin) + _ray_frame(ray)
        for s in sectors
        for ray in s.rays
    ]
    worst = 0.0
    for i, (owner, _, axis, heading, _) in enumerate(rays):
        gaps = sorted(
            _heading_residual(axis, heading, origin, ahead)
            for j, (o, origin, _, _, ahead) in enumerate(rays)
            if j != i and o != owner
        )
        if not gaps or math.isinf(gaps[0]):
            return math.inf
        if len(gaps) > 1 and gaps[1] < 1e-4:
            return math.inf  # wall shared by three copies: not a cover
        worst = max(worst, gaps[0])
    return worst
