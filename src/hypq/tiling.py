"""Reflection-generated tessellations with spatial deduplication.

Starting from the base tile, reflect breadth-first in every edge and
keep one representative per cell.  Cells are identified by their
hyperbolic center (carried through each reflection), quantized on a
grid: reflection chains at desk depth keep centers far better separated
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
    """Points on a quantized grid with nearest-within-tolerance lookup."""

    def __init__(self, tol: float = DEDUP_TOL):
        self.tol = tol
        self._grid: dict[tuple[int, int], list[tuple[complex, int]]] = {}

    def _cell(self, z: complex) -> tuple[int, int]:
        return math.floor(z.real / self.tol), math.floor(z.imag / self.tol)

    def find(self, z: complex) -> int | None:
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

    def insert(self, z: complex, payload: int) -> None:
        self._grid.setdefault(self._cell(z), []).append((z, payload))


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
            for e in range(tile.p):
                if tile.generation > 0 and e == 0:
                    continue  # edge 0 leads straight back to the parent
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
