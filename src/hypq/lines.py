"""Zig-zag lines and h-mid-point lines for odd q.

Both objects come from the same walk over the edge skeleton: follow an
edge to its far vertex, turn by h*2pi/q (edges around a vertex sit at
multiples of 2pi/q, and odd q makes h*2pi/q land on an edge again),
then continue along the new edge, alternating the turning sense at each
vertex.  The zig-zag line is the edge sequence itself; the h-mid-point
line is the sequence of edge mid-points, which all fall on one common
geodesic -- the collinearity that makes the odd-q sector boundaries
straight.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .disc import (
    Geodesic,
    base_tile,
    direction_toward,
    geodesic_through,
    hyp_midpoint,
    point_at,
    tile_metrics,
)
from .errors import PrecisionExhausted, UnsupportedCase
from .schlafli import SchlafliPair

Edge = tuple[complex, complex]


@dataclass(frozen=True)
class ZigzagPath:
    """Edges of the walk, each ordered in the direction of travel."""

    edges: tuple[Edge, ...]
    turn_angle: float


@dataclass(frozen=True)
class MidpointLine:
    """Mid-points of the walked edges and the geodesic they share."""

    midpoints: tuple[complex, ...]
    supporting: Geodesic

    def residuals(self) -> list[float]:
        return [abs(self.supporting.signed_distance(m)) for m in self.midpoints]


def zigzag_line(
    pair: SchlafliPair, start_edge: Edge | None = None, steps: int = 0
) -> ZigzagPath:
    """The edge walk with alternating turns of h*2pi/q.

    The first turn is counter-clockwise; starting clockwise yields the
    mirror image of the same line.  An edge end that rounds onto the
    unit circle, or onto the edge's start, raises PrecisionExhausted.
    """
    if pair.q % 2 == 0:
        raise UnsupportedCase(f"{pair}: these walks are defined for odd q")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if start_edge is None:
        start_edge = base_tile(pair).edge(0)
    theta = pair.h * 2.0 * math.pi / pair.q
    length = 2.0 * tile_metrics(pair).half_edge
    edges = [start_edge]
    sense = 1.0
    for step in range(1, steps + 1):
        tail, head = edges[-1]
        back = direction_toward(head, tail)
        end = point_at(head, back * cmath.exp(1j * sense * theta), length)
        if abs(end) >= 1.0 or end == head:
            raise PrecisionExhausted(
                f"{pair} zig-zag walk: step {step} left the open disc or "
                "stayed put; double precision ran out near the boundary"
            )
        edges.append((head, end))
        sense = -sense
    return ZigzagPath(tuple(edges), theta)


def h_midpoint_line(
    pair: SchlafliPair, start_edge: Edge | None = None, steps: int = 1
) -> MidpointLine:
    """Mid-points of the walked edges with their common geodesic.

    The supporting geodesic is taken through the first and last
    mid-point; the interior ones landing on it (residuals below the
    geometric tolerance) is the property the construction lives on.
    """
    if steps < 1:
        raise ValueError("need at least one step to define the supporting line")
    mids = []
    for step, edge in enumerate(zigzag_line(pair, start_edge, steps).edges):
        try:
            mids.append(hyp_midpoint(*edge))
        except PrecisionExhausted as exc:
            raise PrecisionExhausted(f"{pair} mid-point line: step {step}: {exc}") from exc
    return MidpointLine(tuple(mids), geodesic_through(mids[0], mids[-1]))
