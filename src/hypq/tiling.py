"""Reflection-generated tessellations with spatial deduplication.

Starting from the base tile, reflect breadth-first in every edge and
keep one representative per cell.  Cells are identified by their
hyperbolic center (carried through each reflection), quantized on a
grid of step 2*DEDUP_TOL, so that a lookup probes only the 2x2 grid
cells that can hold a point within the tolerance (see SpatialIndex):
reflection chains at desk depth keep centers far better separated
than the dedup tolerance, which the closure tests confirm.  Each
candidate costs one probe: its reflected center goes through
SpatialIndex.find_or_insert, which scans the 2x2 cells once and stores
the center in the same pass when it is new; only then are the vertices
mapped and the tile built, which at {7,3} is under half the candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .disc import Tile, _edge_mirror, _mirrored_tile, base_tile
from .errors import CapExceeded, PrecisionExhausted
from .schlafli import SchlafliPair

#: Euclidean tolerance identifying two copies of the same cell or vertex.
DEDUP_TOL = 1e-6

#: Grid step of a SpatialIndex.
_STEP = 2.0 * DEDUP_TOL

#: Ceiling on the number of generated tiles.
DEFAULT_TILE_CAP = 100_000


class SpatialIndex:
    """Points on a quantized grid with nearest-within-tolerance lookup.

    The tolerance tol is DEDUP_TOL and the grid step is 2*tol.  A stored
    point w with |z - w| < tol has |w.x - z.x| < tol = step/2, so
    w.x/step lies within half a cell of z.x/step, and its column is
    floor(z.x/step - 1/2) or the one after; the same holds for rows.  A
    lookup therefore probes 2x2 cells.  For |z| <= 1 the cell
    coordinates round by under 1e-10 of a cell, so only a point within
    about 1e-10 relative of tol could be missed.  In the tessellations
    of {5,4}, {4,5}, {6,4}, {5,7}, {7,3}, {8,3} and {8,8} up to 9
    generations, no center or vertex lies between tol/20 and 2*tol of
    another, so none comes near that edge.

    The grid is a dict of columns, each a dict from row to the tuple of
    (point, payload) pairs stored in that cell, so that a probe hashes
    plain ints and builds no key tuples.  Cells are scanned column by
    column, and among points at exactly the same distance the first
    scanned wins.
    """

    def __init__(self) -> None:
        self._columns: dict[int, dict[int, tuple[tuple[complex, int], ...]]] = {}

    def find(self, z: complex) -> int | None:
        """The payload of the nearest stored point within tol of z."""
        return self.find_or_insert(z, None)

    def find_or_insert(self, z: complex, payload: int | None) -> int | None:
        """find(z); on a miss, z is also stored under payload unless
        payload is None.  One pass: the store cell is taken from the
        same scaled coordinates as the probe."""
        u = z.real / _STEP
        v = z.imag / _STEP
        x0 = math.floor(u - 0.5)
        y0 = math.floor(v - 0.5)
        get = self._columns.get
        best = None
        best_d = DEDUP_TOL
        for column in (get(x0), get(x0 + 1)):
            if column:
                for w, found in column.get(y0, ()) + column.get(y0 + 1, ()):
                    d = abs(z - w)
                    if d < best_d:
                        best, best_d = found, d
        if best is None and payload is not None:
            self._append(math.floor(u), math.floor(v), z, payload)
        return best

    def insert(self, z: complex, payload: int) -> None:
        """Store z under payload, whatever is already stored near it."""
        self._append(math.floor(z.real / _STEP), math.floor(z.imag / _STEP), z, payload)

    def _append(self, x: int, y: int, z: complex, payload: int) -> None:
        column = self._columns.setdefault(x, {})
        column[y] = column.get(y, ()) + ((z, payload),)


@dataclass
class Tessellation:
    """Deduplicated reflection closure up to a generation count."""

    pair: SchlafliPair
    generations: int
    tiles: list[Tile]
    _centers: SpatialIndex

    def __len__(self) -> int:
        return len(self.tiles)

    def tile_at(self, center: complex) -> Tile | None:
        idx = self._centers.find(center)
        return None if idx is None else self.tiles[idx]

    def neighbor_across(self, tile: Tile, edge_index: int) -> Tile | None:
        """The cell across an edge, or None when it was not generated.

        Raises PrecisionExhausted when the edge's line cannot be solved
        in doubles, as on outer edges of the last generation.
        """
        return self.tile_at(_edge_mirror(tile, edge_index)[1])

    @cached_property
    def _vertices(self) -> tuple[SpatialIndex, list[tuple[complex, list[int]]]]:
        """The vertex index and its groups, built on first use."""
        index = SpatialIndex()
        probe = index.find_or_insert
        groups: list[tuple[complex, list[int]]] = []
        for tile in self.tiles:
            tid = tile.id
            for v in tile.vertices:
                gid = probe(v, len(groups))
                if gid is None:
                    groups.append((v, [tid]))
                else:
                    groups[gid][1].append(tid)
        return index, groups

    def vertex_groups(self) -> list[tuple[complex, list[int]]]:
        """Each distinct vertex with the ids of the tiles meeting there."""
        return self._vertices[1]

    def vertex_id(self, z: complex) -> int | None:
        return self._vertices[0].find(z)


def tessellate(
    pair: SchlafliPair, generations: int, cap: int = DEFAULT_TILE_CAP
) -> Tessellation:
    """Breadth-first reflection closure of the base tile."""
    if generations < 0:
        raise ValueError("generations must be >= 0")
    root = base_tile(pair)
    tiles = [root]
    centers = SpatialIndex()
    centers.insert(root.center, 0)
    probe = centers.find_or_insert
    frontier = [root]
    for gen in range(1, generations + 1):
        new_frontier = []
        for tile in frontier:
            # past the base tile, edge 0 leads straight back to the parent
            for e in range(1 if tile.generation else 0, tile.p):
                try:
                    mirror, center = _edge_mirror(tile, e)
                except PrecisionExhausted as exc:
                    raise PrecisionExhausted(
                        f"{pair}: generation {gen} after {len(tiles)} tiles: {exc}"
                    ) from exc
                n = len(tiles)
                if probe(center, n) is not None:
                    continue
                if n >= cap:
                    raise CapExceeded(
                        f"{pair}: more than {cap} tiles at {generations} generations"
                    )
                kept = _mirrored_tile(tile, e, mirror, center, n)
                tiles.append(kept)
                new_frontier.append(kept)
        frontier = new_frontier
    return Tessellation(pair, generations, tiles, centers)
