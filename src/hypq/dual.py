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
errors as every other splitting tree.

Sides of a tile are numbered 1..5 counter-clockwise starting at the
side shared with the father.  Sons sit across sides 2,3,4 of a white
tile and 3,4 of a black one; side 5 (and side 2 of a black tile) faces
a neighbouring branch.  Each node marks one vertex of its own tile:

    white -> the junction of sides 1 and 2
    black -> the junction of sides 2 and 3

Walking the tree marks every vertex of the sector exactly once, except
the vertices lying on the right-hand delimiting ray (the side-5 line
through the apex, the sector's own vertex included): those belong to
the neighbouring sector's count.  ``check_bijection`` measures exactly
that on a finite tree.

Everything is written against the grid {p,4}; only p = 5 is exercised
by the tests, the rest of the family shares the construction with
p - 2 sons at white tiles and p - 3 at black ones.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace

from .disc import GEOM_TOL, Geodesic, Tile, _axis_distance, geodesic_through
from .errors import InsufficientTessellationDepth, NoFatherEdge
from .schlafli import Region, SchlafliPair, Scheme, build_system, validate
from .tiling import Tessellation, tessellate
# level_counts is re-exported for counting a Fibonacci tree's levels
from .tree import SpanningTree, TreeNode, generate, level_counts


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


def _orientation(tile: Tile) -> int:
    """+1 when the stored vertex list runs counter-clockwise."""
    area = 0.0
    vs = tile.vertices
    for i in range(len(vs)):
        a, b = vs[i], vs[(i + 1) % len(vs)]
        area += a.real * b.imag - a.imag * b.real
    return 1 if area > 0 else -1


def side_numbering(tile: Tile, father_edge: int | None) -> tuple[int, ...]:
    """Edge index of each side 1..p, counter-clockwise from the father.

    The walk follows the geometric orientation rather than the list
    order, so tiles whose vertices happen to be stored clockwise are
    numbered the same way as everyone else.
    """
    if father_edge is None:
        raise NoFatherEdge("the central cell has no father side")
    step = _orientation(tile)
    return tuple((father_edge + step * k) % tile.p for k in range(tile.p))


def _junction(tile: Tile, edge_a: int, edge_b: int) -> complex:
    ia = {edge_a, (edge_a + 1) % tile.p}
    ib = {edge_b, (edge_b + 1) % tile.p}
    (shared,) = ia & ib
    return tile.vertices[shared]


def assign_vertex(tile: Tile, father_edge: int, kind: Region) -> complex:
    """The vertex this node numbers: junction of sides 1,2 for white
    (S0) nodes, of sides 2,3 for black (S1) ones."""
    sides = side_numbering(tile, father_edge)
    if kind is Region.S0:
        return _junction(tile, sides[0], sides[1])
    return _junction(tile, sides[1], sides[2])


@dataclass(frozen=True)
class SectorNode:
    """A tree node attached to its tile."""

    node: TreeNode
    tile: Tile
    father_edge: int

    @property
    def vertex(self) -> complex:
        return assign_vertex(self.tile, self.father_edge, self.node.kind)


@dataclass
class SectorTree:
    """The numbered sector: tree nodes bound to grid tiles.

    ``left`` is the delimiting line through the shared edge of the
    central cell and the head; ``right`` the head's side-5 line through
    the apex.  Vertices on the right line are the excluded ones.
    """

    pair: SchlafliPair
    tessellation: Tessellation
    central: Tile
    apex: complex
    left: Geodesic
    right: Geodesic
    nodes: dict[int, SectorNode] = field(default_factory=dict)

    def levels(self) -> list[list[int]]:
        out: dict[int, list[int]] = defaultdict(list)
        for nid in sorted(self.nodes):
            out[self.nodes[nid].node.level].append(nid)
        return [out[i] for i in range(len(out))]


def _son_slots(kind: Region, p: int) -> range:
    # white: sides 2..p-1, black: sides 3..p-1 (1-based side numbers)
    return range(2, p) if kind is Region.S0 else range(3, p)


def pentagrid_sector(depth: int, p: int = 5) -> SectorTree:
    """Build the sector across edge 0 of the central cell of {p,4}.

    The tessellation is taken two generations deeper than the tree so
    that every neighbour needed for slot lookups and for the coverage
    audit is present.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    pair = validate(p, 4)
    tess = tessellate(pair, depth + 2)
    central = tess.tiles[0]
    head = tess.neighbor_across(central, 0)
    if head is None:
        raise InsufficientTessellationDepth("no head tile at depth 0")

    father_edge = None
    want = {tess.vertex_id(v) for v in central.edge(0)}
    for i in range(head.p):
        got = {tess.vertex_id(v) for v in head.edge(i)}
        if got == want:
            father_edge = i
    assert father_edge is not None

    sides = side_numbering(head, father_edge)
    left = geodesic_through(*central.edge(0))
    right = head.edge_geodesic(sides[p - 1])
    apex = _junction(head, sides[p - 1], sides[0])

    sector = SectorTree(pair, tess, central, apex, left, right)
    placed = {1: (head, father_edge)}
    for node in fibonacci_tree(depth, p).nodes():
        here = SectorNode(node, *placed.pop(node.id))
        sector.nodes[node.id] = here
        slots = _son_slots(node.kind, p)
        sides = side_numbering(here.tile, here.father_edge)
        for slot, child_id in zip(slots, node.children):
            edge = sides[slot - 1]
            son = sector.tessellation.neighbor_across(here.tile, edge)
            if son is None:
                raise InsufficientTessellationDepth(
                    f"missing son of node {node.id} at level {node.level}"
                )
            back = None
            for i in range(son.p):
                nb = sector.tessellation.neighbor_across(son, i)
                if nb is not None and nb.id == here.tile.id:
                    back = i
            assert back is not None
            placed[child_id] = (son, back)
    return sector


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
    sector = pentagrid_sector(depth, p)
    tess = sector.tessellation
    head = sector.nodes[1].tile
    # signed distances to the delimiting lines, each line's axis map built once
    left, right = sector.left.to_axis(), sector.right.to_axis()
    s_left = 1.0 if _axis_distance(left, head.center) > 0 else -1.0
    s_right = 1.0 if _axis_distance(right, head.center) > 0 else -1.0

    def member(tile: Tile) -> bool:
        return (
            s_left * _axis_distance(left, tile.center) > GEOM_TOL
            and s_right * _axis_distance(right, tile.center) > GEOM_TOL
        )

    member_ids = {t.id for t in tess.tiles if member(t)}
    explored = {sn.tile.id for sn in sector.nodes.values()}

    assignments: dict[int, list[int]] = defaultdict(list)
    for nid, sn in sector.nodes.items():
        vid = tess.vertex_id(sn.vertex)
        assert vid is not None
        assignments[vid].append(nid)

    touching: dict[int, set[int]] = defaultdict(set)
    for tid in member_ids:
        tile = tess.tiles[tid]
        for v in tile.vertices:
            touching[tess.vertex_id(v)].add(tid)

    groups = tess.vertex_groups()
    covered: dict[tuple[float, float], int] = {}
    missed: list[tuple[float, float]] = []
    doubly: list[tuple[float, float]] = []
    excluded: list[tuple[float, float]] = []
    worst = 0.0
    for vid, tids in sorted(touching.items()):
        z = groups[vid][0]
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
            worst = max(worst, abs(_axis_distance(right, z)))
        else:
            missed.append(key)
    return BijectionReport(
        covered, missed, doubly, excluded, _key(sector.apex), worst
    )


# ----------------------------------------------------------------------
# Rendering


def dual_scene(depth: int = 3, p: int = 5) -> dict:
    """Scene showing the numbered sector: black (S1) tiles shaded, node
    ids printed at their assigned vertices, delimiting lines in full."""
    sector = pentagrid_sector(depth, p)
    tiles = [{"points": [[v.real, v.imag] for v in sector.central.vertices]}]
    labels = []
    for nid in sorted(sector.nodes):
        sn = sector.nodes[nid]
        entry = {"points": [[v.real, v.imag] for v in sn.tile.vertices]}
        if sn.node.kind is Region.S1:
            entry["fill"] = "#d9d9d9"
        tiles.append(entry)
        z = sn.vertex
        labels.append({"at": [z.real, z.imag], "text": str(nid)})
    geodesics = []
    for line in (sector.left, sector.right):
        e1, e2 = line.ideal_endpoints()
        geodesics.append({"a": [e1.real, e1.imag], "b": [e2.real, e2.imag]})
    return {
        "tiles": tiles,
        "geodesics": geodesics,
        "sectors": [],
        "labels": labels,
    }
