"""Numbering the vertices of the {5,4} grid with a Fibonacci tree.

The vertices of {5,4} are the cells of the dual {4,5}, so a numbering
of the vertices numbers the dual tiling.  The plane splits into the
central cell and five sectors, one per edge: the sector across an edge
is the quarter wedge delimited by that edge's full geodesic and the
line of the head tile's fifth side, both tile-edge lines (q = 4 makes
every edge line a geodesic of the edge skeleton).  Inside a sector the
tiles organize into a tree: white tiles carry three sons, black tiles
two, the leftmost son is always black, and the level counts run
1, 3, 8, 21, ...

That tree is the splitting tree of {5,4} read right to left (Margenstern,
*New tools for cellular automata in the hyperbolic plane*, J.UCS 6(12),
2000): white nodes are the S0 regions, black nodes the S1 regions, and
each rule's sons are listed in reverse so that the black son comes
first.  ``fibonacci_tree`` builds it with the one substitution engine
of ``tree``, so it is a ``SpanningTree`` with the same ids, cap and
errors as every other splitting tree.  ``pentagrid_sector`` places it:
a ``SectorTree`` is that tree plus one tile per node id, node i on
``tiles[i - 1]``, laid down level by level from the tree's own levels.
Its tile cap is checked on the matrix counts, before the tree is built.

Sides of a tile are numbered 1..5 counter-clockwise starting at the
side shared with the father.  Sons sit across sides 2,3,4 of a white
tile and 3,4 of a black one; side 5 (and side 2 of a black tile) faces
a neighbouring branch.  Each son is its father mirrored in the side it
sits across, so side k of every tile is its edge k - 1.  Each node marks
one vertex of its own tile:

    white -> the junction of sides 1 and 2, vertex 1
    black -> the junction of sides 2 and 3, vertex 2

Walking the tree marks every vertex of the sector exactly once, except
the vertices lying on the right-hand delimiting ray (the side-5 line
through the apex, the head's vertex 0, included): those belong to the
neighbouring sector's count.  ``check_bijection`` measures exactly that
on a finite tree, against the cells of an independent ``tessellate``.

Everything is written against the grid {p,4}, with p - 2 sons at white
tiles and p - 3 at black ones; the tests check the placement for p = 5,
6 and 7 against the cells of a tessellation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace

from .disc import GEOM_TOL, Geodesic, Tile, base_tile, geodesic_through, reflect_tile
from .errors import CapExceeded, PrecisionExhausted
from .render import _tile_entry
from .schlafli import REGION_ORDER, Region, SchlafliPair, Scheme, build_system, validate
from .tiling import DEFAULT_TILE_CAP, tessellate
# level_counts is re-exported for counting a Fibonacci tree's levels
from .tree import SpanningTree, generate, level_counts, max_depth_within_cap


def fibonacci_tree(depth: int, p: int = 5) -> SpanningTree:
    """The bare numbering tree of {p,4} through the given level.

    The root is white; ids run level by level, left to right, from 1 at
    the root, and every node's black son comes first.  For p = 5 the
    level sizes are 1, 3, 8, 21, ...  The node cap of ``tree.generate``
    applies.
    """
    system = build_system(validate(p, 4), Scheme.EVEN_Q)
    mirrored = tuple(
        replace(rule, children=rule.children[::-1]) for rule in system.rules
    )
    return generate(replace(system, rules=mirrored), depth)


# ----------------------------------------------------------------------
# Geometric attachment


@dataclass
class SectorTree:
    """The numbered sector: its numbering tree and one tile per node.

    Node i sits on ``tiles[i - 1]``, whose edge 0 faces the father.
    ``left`` is the delimiting line through the shared edge of the
    central cell and the head; ``right`` the head's side-p line through
    the apex.  Vertices on the right line are the excluded ones.
    ``pentagrid_sector`` checks the tile cap on the matrix counts, before
    it builds the tree.
    """

    pair: SchlafliPair
    central: Tile
    apex: complex
    left: Geodesic
    right: Geodesic
    tree: SpanningTree
    tiles: list[Tile]

    def vertex(self, node_id: int) -> complex:
        """The vertex a node marks: vertex 1 of a white tile, vertex 2 of
        a black one."""
        white = self.tree.node(node_id).kind is Region.S0
        return self.tiles[node_id - 1].vertices[1 if white else 2]


def pentagrid_sector(depth: int, p: int = 5) -> SectorTree:
    """Build the sector across edge 0 of the central cell of {p,4}.

    The head is the central cell mirrored in its edge 0 and each son is
    its father mirrored in one side; a tile's id is its node's.  The
    tiles are placed level by level, straight from the tree's levels.
    A depth whose tree holds more than the tile cap is refused from the
    matrix counts, before any node is built.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    pair = validate(p, 4)
    system = build_system(pair, Scheme.EVEN_Q)
    # the tree mirrors these rules, which leaves their counts as they are
    if max_depth_within_cap(system, DEFAULT_TILE_CAP) < depth:
        raise CapExceeded(
            f"{pair} sector: more than {DEFAULT_TILE_CAP} tiles at depth {depth}"
        )
    tree = fibonacci_tree(depth, p)
    # sons sit across sides 2.. of a white tile (edge 1 on) and 3.. of a
    # black one (edge 2 on)
    edges = {
        REGION_ORDER.index(kind): range(first, first + system.rule(kind).child_total)
        for kind, first in ((Region.S0, 1), (Region.S1, 2))
    }
    central = base_tile(pair)
    tiles = [reflect_tile(central, 0, 1)]
    for level, kinds in enumerate(tree.levels[:-1], 1):
        # the fathers of this level are the last len(kinds) tiles placed
        for father, kind in zip(tiles[-len(kinds) :], kinds):
            for edge in edges[kind]:
                try:
                    tiles.append(reflect_tile(father, edge, len(tiles) + 1))
                except PrecisionExhausted as exc:
                    raise PrecisionExhausted(
                        f"{pair} sector: level {level} after "
                        f"{len(tiles)} tiles: {exc}"
                    ) from exc
    head = tiles[0]
    left, right = geodesic_through(*central.edge(0)), head.edge_geodesic(p - 1)
    return SectorTree(pair, central, head.vertices[0], left, right, tree, tiles)


# ----------------------------------------------------------------------
# Coverage audit


@dataclass(frozen=True)
class BijectionReport:
    """Outcome of the vertex-coverage audit of one finite sector tree.

    covered: quantized vertex -> node id that numbered it
    missed: vertices some of whose surrounding tiles lie beyond the
            explored levels (a deeper tree would number them)
    doubly_assigned: vertices numbered more than once (must be empty)
    excluded: fully surrounded yet unnumbered vertices; these are the
            ones the construction leaves to the neighbouring sector
            and they must sit on the right-hand delimiting ray
    """

    covered: dict[tuple[float, float], int]
    missed: list[tuple[float, float]]
    doubly_assigned: list[tuple[float, float]]
    excluded: list[tuple[float, float]]
    apex: tuple[float, float]
    right_ray_residual: float


def _key(z: complex) -> tuple[float, float]:
    return (round(z.real, 6), round(z.imag, 6))


def check_bijection(depth: int, p: int = 5) -> BijectionReport:
    """Audit the numbering of one sector explored to the given depth.

    Membership of a tile in the sector is a sign test against the two
    delimiting lines (tiles never straddle them).  A vertex counts as
    fully explored when every member tile touching it is in the tree;
    only those can be judged covered or excluded, the rest are missed.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    tess = tessellate(validate(p, 4), depth + 2)
    sector = pentagrid_sector(depth, p)
    head = sector.tiles[0]
    left, right = sector.left, sector.right
    s_left = 1.0 if left.signed_distance(head.center) > 0 else -1.0
    s_right = 1.0 if right.signed_distance(head.center) > 0 else -1.0

    def member(tile: Tile) -> bool:
        return (
            s_left * left.signed_distance(tile.center) > GEOM_TOL
            and s_right * right.signed_distance(tile.center) > GEOM_TOL
        )

    member_ids = {t.id for t in tess.tiles if member(t)}
    explored = set()
    assignments: dict[int, list[int]] = defaultdict(list)
    for nid, tile in enumerate(sector.tiles, 1):
        cell = tess.tile_at(tile.center)
        if cell is None:
            raise AssertionError(f"node {nid}: its tile is no cell of the tessellation")
        explored.add(cell.id)
        vid = tess.vertex_id(sector.vertex(nid))
        assert vid is not None
        assignments[vid].append(nid)

    covered: dict[tuple[float, float], int] = {}
    missed: list[tuple[float, float]] = []
    doubly: list[tuple[float, float]] = []
    excluded: list[tuple[float, float]] = []
    worst = 0.0
    for vid, (z, tids) in enumerate(tess.vertex_groups()):
        tids = member_ids.intersection(tids)
        if not tids:
            continue
        key = _key(z)
        owners = assignments.get(vid, [])
        if len(owners) > 1:
            doubly.append(key)
            continue
        if len(owners) == 1:
            covered[key] = owners[0]
            continue
        if tids <= explored:
            excluded.append(key)
            worst = max(worst, abs(right.signed_distance(z)))
        else:
            missed.append(key)
    return BijectionReport(
        covered, missed, doubly, excluded, _key(sector.apex), worst
    )


# ----------------------------------------------------------------------
# Rendering


def dual_scene(depth: int = 3) -> dict:
    """Scene showing the numbered {5,4} sector: black (S1) tiles shaded,
    node ids printed at their assigned vertices, delimiting lines in full."""
    sector = pentagrid_sector(depth)
    tiles = [_tile_entry(sector.central)]
    labels = []
    for nid, tile in enumerate(sector.tiles, 1):
        entry = _tile_entry(tile)
        if sector.tree.node(nid).kind is Region.S1:
            entry["fill"] = "#d9d9d9"
        tiles.append(entry)
        labels.append({"at": sector.vertex(nid), "text": str(nid)})
    geodesics = []
    for line in (sector.left, sector.right):
        e1, e2 = line.ideal_endpoints()
        geodesics.append({"a": e1, "b": e2})
    return {
        "tiles": tiles,
        "geodesics": geodesics,
        "sectors": [],
        "labels": labels,
    }
