"""Reflection-generated tessellations with spatial deduplication.

Starting from the base tile, reflect breadth-first in every edge and
keep one representative per cell.  Cells are identified by their
hyperbolic center (carried through each reflection), quantized on a
grid of step 2*DEDUP_TOL, so that a lookup probes only the 2x2 grid
cells that can hold a point within the tolerance (see SpatialIndex):
reflection chains at desk depth keep centers far better separated
than the dedup tolerance, which the closure tests confirm.  A candidate
is probed by its reflected center alone; its vertices are mapped and the
tile built only when that center is new, which at {7,3} is under half
the candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .disc import Tile, _edge_mirror, _mirrored_tile, base_tile
from .errors import CapExceeded, InsufficientTessellationDepth, PrecisionExhausted
from .schlafli import SchlafliPair

#: Euclidean tolerance identifying two copies of the same cell or vertex.
DEDUP_TOL = 1e-6

#: Ceiling on the number of generated tiles.
DEFAULT_TILE_CAP = 100_000


class SpatialIndex:
    """Points on a quantized grid with nearest-within-tolerance lookup.

    The grid step is 2*tol.  A stored point w with |z - w| < tol has
    |w.x - z.x| < tol = step/2, so w.x/step lies within half a cell of
    z.x/step, and its column is floor(z.x/step - 1/2) or the one after;
    the same holds for rows.  A lookup therefore probes 2x2 cells.  For
    |z| <= 1 the cell coordinates round by under 1e-10 of a cell, so
    only a point within about 1e-10 relative of tol could be missed.
    In the tessellations of {5,4}, {4,5}, {6,4}, {5,7}, {7,3}, {8,3}
    and {8,8} up to 9 generations, no center or vertex lies between
    tol/20 and 2*tol of another, so none comes near that edge.
    """

    def __init__(self, tol: float = DEDUP_TOL):
        self.tol = tol
        self._step = 2.0 * tol
        self._grid: dict[tuple[int, int], list[tuple[complex, int]]] = {}

    def find(self, z: complex) -> int | None:
        step = self._step
        x0 = math.floor(z.real / step - 0.5)
        y0 = math.floor(z.imag / step - 0.5)
        get = self._grid.get
        best = None
        best_d = self.tol
        for cell in ((x0, y0), (x0 + 1, y0), (x0, y0 + 1), (x0 + 1, y0 + 1)):
            for w, payload in get(cell, ()):
                d = abs(z - w)
                if d < best_d:
                    best, best_d = payload, d
        return best

    def insert(self, z: complex, payload: int) -> None:
        step = self._step
        cell = math.floor(z.real / step), math.floor(z.imag / step)
        self._grid.setdefault(cell, []).append((z, payload))


@dataclass
class Tessellation:
    """Deduplicated reflection closure up to a generation count."""

    pair: SchlafliPair
    generations: int
    tiles: list[Tile]
    _centers: SpatialIndex
    _vertex_index: SpatialIndex | None = field(default=None, repr=False)
    _vertex_groups: list[tuple[complex, list[int]]] | None = field(
        default=None, repr=False
    )

    def __len__(self) -> int:
        return len(self.tiles)

    def tile_at(self, center: complex) -> Tile | None:
        idx = self._centers.find(center)
        return None if idx is None else self.tiles[idx]

    def neighbor_across(self, tile: Tile, edge_index: int) -> Tile | None:
        return self.tile_at(_edge_mirror(tile, edge_index)[1])

    def _ensure_vertices(self) -> None:
        if self._vertex_index is not None:
            return
        index = SpatialIndex()
        groups: list[tuple[complex, list[int]]] = []
        for tile in self.tiles:
            for v in tile.vertices:
                gid = index.find(v)
                if gid is None:
                    index.insert(v, len(groups))
                    groups.append((v, [tile.id]))
                else:
                    groups[gid][1].append(tile.id)
        self._vertex_index = index
        self._vertex_groups = groups

    def vertex_groups(self) -> list[tuple[complex, list[int]]]:
        """Each distinct vertex with the ids of the tiles meeting there."""
        self._ensure_vertices()
        return self._vertex_groups

    def vertex_id(self, z: complex) -> int | None:
        self._ensure_vertices()
        return self._vertex_index.find(z)

    def locate_edge(self, a: complex, b: complex) -> tuple[Tile, int]:
        """The tile and edge index realizing the segment ab, either order."""
        ga, gb = self.vertex_id(a), self.vertex_id(b)
        if ga is not None and gb is not None:
            for tid in self._vertex_groups[ga][1]:
                tile = self.tiles[tid]
                for i in range(tile.p):
                    u, v = tile.edge(i)
                    ids = {self.vertex_id(u), self.vertex_id(v)}
                    if ids == {ga, gb}:
                        return tile, i
        raise InsufficientTessellationDepth(
            f"edge not present at {self.generations} generations"
        )


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
                if centers.find(center) is not None:
                    continue
                if len(tiles) >= cap:
                    raise CapExceeded(
                        f"{pair}: more than {cap} tiles at {generations} generations"
                    )
                kept = _mirrored_tile(tile, e, mirror, center, len(tiles))
                centers.insert(center, len(tiles))
                tiles.append(kept)
                new_frontier.append(kept)
        frontier = new_frontier
    return Tessellation(pair, generations, tiles, centers)
