"""Dual numbering of the {4,5} grid via its {5,4} pentagrid sectors."""

import hashlib
import time
from dataclasses import dataclass
from enum import Enum

import pytest

import geometry_oracle
from hypq.disc import base_tile, reflect_tile
from hypq.dual import (
    check_bijection,
    dual_scene,
    fibonacci_tree,
    level_counts,
    pentagrid_sector,
)
from hypq.errors import CapExceeded, NotHyperbolic, PrecisionExhausted
from hypq.render import render_svg
from hypq.schlafli import Region, validate
from hypq.tiling import tessellate

WHITE, BLACK = Region.S0, Region.S1


# The former stand-alone engine of the numbering tree, kept as the
# oracle: a dict of frozen nodes, each parent rebuilt as its sons arrive.


class Color(Enum):
    BLACK = "black"
    WHITE = "white"


@dataclass(frozen=True)
class FibNode:
    id: int
    color: Color
    level: int
    parent: int | None
    children: tuple[int, ...] = ()


def _sons_of(color, p):
    count = (p - 2) if color is Color.WHITE else (p - 3)
    return (Color.BLACK,) + (Color.WHITE,) * (count - 1)


def _oracle_tree(depth, p):
    nodes = {1: FibNode(1, Color.WHITE, 0, None)}
    current = [1]
    next_id = 2
    for level in range(1, depth + 1):
        upcoming = []
        for pid in current:
            parent = nodes[pid]
            kids = []
            for color in _sons_of(parent.color, p):
                nodes[next_id] = FibNode(next_id, color, level, pid)
                kids.append(next_id)
                upcoming.append(next_id)
                next_id += 1
            nodes[pid] = FibNode(
                pid, parent.color, parent.level, parent.parent, tuple(kids)
            )
        current = upcoming
    return nodes


_KIND_OF = {Color.WHITE: WHITE, Color.BLACK: BLACK}


@pytest.mark.parametrize("p", [5, 6, 7])
def test_fibonacci_tree_matches_the_dict_engine(p):
    for depth in range(7):
        tree = fibonacci_tree(depth, p)
        want = _oracle_tree(depth, p)
        assert tree.size == len(want)
        for node in tree.nodes():
            old = want[node.id]
            assert (node.level, node.parent, node.children) == (
                old.level, old.parent, old.children,
            )
            assert node.kind is _KIND_OF[old.color]


def test_fibonacci_tree_counts():
    tree = fibonacci_tree(4)
    assert level_counts(tree) == [1, 3, 8, 21, 55]
    root = tree.node(1)
    assert root.kind is WHITE
    assert root.parent is None and root.level == 0


def test_fibonacci_tree_ids_and_sons():
    tree = fibonacci_tree(3)
    assert [n.id for n in tree.nodes()] == list(range(1, 1 + 3 + 8 + 21 + 1))
    for node in tree.nodes():
        if node.level == 3:
            assert node.children == ()
            continue
        kids = [tree.node(c) for c in node.children]
        want = 3 if node.kind is WHITE else 2
        assert len(kids) == want
        # the single black son comes first, the whites after
        assert kids[0].kind is BLACK
        assert all(k.kind is WHITE for k in kids[1:])
        # breadth-first ids: children are consecutive
        assert [k.id for k in kids] == list(
            range(kids[0].id, kids[0].id + len(kids))
        )


def test_fibonacci_tree_generalizes_in_p():
    # white cells get p-2 sons and black cells p-3, so the level counts
    # follow the even-q recurrence of {p,4}
    assert level_counts(fibonacci_tree(3, p=6)) == [1, 4, 15, 56]
    assert level_counts(fibonacci_tree(3, p=7)) == [1, 5, 24, 115]
    with pytest.raises(ValueError):
        fibonacci_tree(-1)


def test_fibonacci_tree_guards(monkeypatch):
    monkeypatch.delenv("HYPQ_NODE_CAP", raising=False)
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        fibonacci_tree(40)
    assert time.perf_counter() - start < 1.0
    # {4,4} is Euclidean: there is no pentagrid-like tree to build
    with pytest.raises(NotHyperbolic):
        fibonacci_tree(3, p=4)


def test_side_numbering_follows_orientation():
    tile = base_tile(validate(4, 5))
    # tiles keep counter-clockwise vertex order through reflections, so
    # the numbering advances with the edge indices
    assert geometry_oracle.side_numbering(tile, 2) == (2, 3, 0, 1)
    image = reflect_tile(tile, 2, new_id=1)
    assert geometry_oracle.side_numbering(image, 0) == (0, 1, 2, 3)
    assert sorted(geometry_oracle.side_numbering(image, 3)) == [0, 1, 2, 3]
    # a hand-built clockwise tile is still numbered counter-clockwise,
    # which now runs against its list order
    backwards = tile._replace(vertices=tuple(reversed(tile.vertices)))
    assert geometry_oracle.side_numbering(backwards, 2) == (2, 1, 0, 3)
    with pytest.raises(geometry_oracle.NoFatherEdge):
        geometry_oracle.side_numbering(tile, None)


def test_pentagrid_sector_structure():
    sector = pentagrid_sector(2)
    tree = sector.tree
    assert tree.level_counts() == [1, 3, 8]
    # one tile per node, node i on tiles[i - 1]
    assert [tile.id for tile in sector.tiles] == list(range(1, 13))
    for node, tile in zip(tree.nodes(), sector.tiles):
        if node.id != 1:
            # a son's edge 0 is its father's side edge, walked backwards
            father = tree.node(node.parent)
            father_tile = sector.tiles[father.id - 1]
            slot = father.children.index(node.id)
            side = slot + (2 if father.kind is WHITE else 3)
            sides = geometry_oracle.side_numbering(father_tile, 0)
            a, b = father_tile.edge(sides[side - 1])
            c, d = tile.edge(0)
            assert abs(c - b) < 1e-12 and abs(d - a) < 1e-12
            v = sector.vertex(node.id)
            assert min(abs(v - w) for w in tile.vertices) < 1e-9


# SHA-256 of render_svg(dual_scene(d)) for d = 0..6 with every tile's
# path starting where geometry_oracle.sector_placement starts it
LOOKUP_SVGS = [
    "bf1236fc7bb8d4e99cad2c7f00b19706a454001af7a9eb39f206bd6933d134b0",
    "50530815773e0d266188970d2e433b5bd152b9cabcd4b84a7dc02b4b1ae1159a",
    "37bc6b3880f02562f7db333e132d1528f94cec1e9441c5c6057b4e4adcef9805",
    "bc68ee0daf9765e5c01c844a708aaba28528b83624f05e434041a00410089317",
    "87ecdf5c7ccbd4ad93f7c946a6079941d44ae2e83439762ecf87a6891ca7d424",
    "8614d54fe8417865acc8bc3152727220d6f5b82d6c3f5a830f0f502036571e0d",
    "ab134e07fb97ce82fdab434e21c31d485d23c28ce282b0db0f87c94d40627b98",
]


@pytest.mark.parametrize("depth", range(7))
def test_reflected_placement_matches_the_lookup_oracle(depth):
    sector = pentagrid_sector(depth)
    want = geometry_oracle.sector_placement(depth)
    assert list(range(1, len(sector.tiles) + 1)) == sorted(want)
    scene = dual_scene(depth)
    for nid, tile in enumerate(sector.tiles, 1):
        old, _, vertex = want[nid]
        # the same cell, its vertex list a cyclic rotation of the old one
        vs = tile.vertices
        (shift,) = [k for k in range(len(vs)) if abs(vs[k] - old.vertices[0]) < 1e-9]
        rotated = vs[shift:] + vs[:shift]
        assert max(abs(a - b) for a, b in zip(rotated, old.vertices)) < 1e-9
        assert abs(tile.center - old.center) < 1e-9
        assert abs(sector.vertex(nid) - vertex) < 1e-9
        # start the node's path where the lookup started it
        points = scene["tiles"][nid]["points"]
        scene["tiles"][nid]["points"] = points[shift:] + points[:shift]
    svg = render_svg(scene)
    assert hashlib.sha256(svg.encode()).hexdigest() == LOOKUP_SVGS[depth]


# SHA-256 of repr(check_bijection(d)) for d = 0..6, taken with the
# placement geometry_oracle.sector_placement keeps
BIJECTION_REPRS = [
    "75dab7ca353d4afb2cd7a5e4bc15f7301a26d86b6c67820e9ab45be8fa3a1bc7",
    "8c149ef130f47c1cd6eecaaa2174a7b2ced9ec2cde93e51086c18c7d78af3315",
    "9926138b2086ee27d78d0128d10aa7ea229ed473e77c671d2c1c274d3aed9ad4",
    "289f3c7c930a61e35e20108f6e9907a529ea4124d56c7d620c65f17160be1c71",
    "95e7aba4bf60eb7650d0de698e8461f86cff0fd064c253e2e2f39f6c36219bbc",
    "b13e6819279c5923505980826433a10108f23652fccc68e5a37fadeb813b9ae4",
    "36d62c8b1fb119707432c43f5401942ecb4d3a823c1980587d2b1d65c0127753",
]


@pytest.mark.parametrize("depth", range(7))
def test_bijection_reports_are_pinned(depth):
    text = repr(check_bijection(depth))
    assert hashlib.sha256(text.encode()).hexdigest() == BIJECTION_REPRS[depth]


@pytest.mark.parametrize(
    "p,depths", [(5, range(6)), (6, range(4)), (7, range(4))]
)
def test_placed_tiles_are_the_sector_cells(p, depths):
    # the tree through level d places exactly the cells of
    # tessellate(d + 1) that lie strictly between the delimiting lines
    for depth in depths:
        sector = pentagrid_sector(depth, p)
        tess = tessellate(validate(p, 4), depth + 1)
        head = sector.tiles[0]
        sign_l = sector.left.signed_distance(head.center)
        sign_r = sector.right.signed_distance(head.center)
        members = {
            t.id
            for t in tess.tiles
            if sector.left.signed_distance(t.center) * sign_l > 1e-9
            and sector.right.signed_distance(t.center) * sign_r > 1e-9
        }
        cells = [tess.tile_at(tile.center) for tile in sector.tiles]
        assert None not in cells
        ids = [cell.id for cell in cells]
        assert len(set(ids)) == len(ids)
        assert set(ids) == members, (p, depth)


def test_sector_placement_is_bounded(monkeypatch):
    monkeypatch.delenv("HYPQ_NODE_CAP", raising=False)
    # 196417 nodes at depth 12: refused before any tile is placed
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=r"\{5,4\} sector: more than 100000 tiles"):
        pentagrid_sector(12)
    assert time.perf_counter() - start < 1.0
    # {8,4} runs out of doubles at level 5, long before the cap
    with pytest.raises(PrecisionExhausted) as info:
        pentagrid_sector(5, p=8)
    assert str(info.value).startswith("{8,4} sector: level 5 after ")
    assert "double precision ran out" in str(info.value)


@pytest.mark.parametrize("depth", [12, 17, 40])
def test_sector_cap_is_checked_before_the_tree_is_built(monkeypatch, depth):
    import hypq.dual

    def generate(*args, **kwargs):
        raise AssertionError("the tree was built")

    monkeypatch.delenv("HYPQ_NODE_CAP", raising=False)
    monkeypatch.setattr(hypq.dual, "generate", generate)
    want = rf"^\{{5,4\}} sector: more than 100000 tiles at depth {depth}$"
    with pytest.raises(CapExceeded, match=want):
        pentagrid_sector(depth)


def test_cli_refuses_a_dual_figure_past_the_tile_cap(capsys, monkeypatch, tmp_path):
    from hypq.cli import main

    monkeypatch.delenv("HYPQ_NODE_CAP", raising=False)
    out = tmp_path / "dual.svg"
    args = ["render", "--what", "dual45", "-p", "4", "-q", "5", "--depth", "20"]
    assert main(args + ["-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: {5,4} sector: more than 100000 tiles at depth 20\n"
    assert not out.exists()


def test_audit_names_a_placed_tile_with_no_cell(monkeypatch):
    import hypq.dual

    def shifted(depth, p=5):
        # node 3's tile claims a vertex as its centre, which no cell has
        sector = pentagrid_sector(depth, p)
        tile = sector.tiles[2]
        sector.tiles[2] = tile._replace(center=tile.vertices[0])
        return sector

    monkeypatch.setattr(hypq.dual, "pentagrid_sector", shifted)
    with pytest.raises(AssertionError, match="node 3"):
        check_bijection(2)


def test_sector_stays_between_the_delimiters():
    sector = pentagrid_sector(2)
    first = sector.tiles[1]  # node 2, the first level-1 cell
    sign_l = sector.left.signed_distance(first.center)
    sign_r = sector.right.signed_distance(first.center)
    for tile in sector.tiles[1:]:
        assert sector.left.signed_distance(tile.center) * sign_l > 0
        assert sector.right.signed_distance(tile.center) * sign_r > 0


@pytest.mark.parametrize("depth,covered,excluded", [(2, 12, 3), (3, 33, 4)])
def test_bijection_report(depth, covered, excluded):
    rep = check_bijection(depth)
    assert len(rep.covered) == covered
    # injective: distinct vertices map to distinct node ids, and all of
    # the first `covered` ids occur
    assert sorted(rep.covered.values()) == list(range(1, covered + 1))
    assert not rep.doubly_assigned
    assert len(rep.excluded) == excluded
    assert rep.apex in rep.excluded
    assert rep.right_ray_residual < 1e-9


@pytest.mark.parametrize("p,sums", [(6, [5, 20, 76]), (7, [6, 30, 145])])
def test_bijection_holds_beyond_the_pentagrid(p, sums):
    # covered vertices are the tree's nodes, level by level
    for depth, total in enumerate(sums, 1):
        rep = check_bijection(depth, p)
        assert sorted(rep.covered.values()) == list(range(1, total + 1))
        assert not rep.doubly_assigned
        assert rep.apex in rep.excluded
        assert rep.right_ray_residual < 1e-9


def test_unassigned_explored_vertices_sit_on_the_right_ray():
    rep = check_bijection(3)
    tree = pentagrid_sector(3)
    # keys are rounded to six decimals, which can push a vertex
    # a few 1e-6 off the geodesic
    for key in rep.excluded:
        assert abs(tree.right.signed_distance(complex(*key))) < 1e-4


def test_dual_scene_renders():
    from xml.dom import minidom

    from hypq.render import render_svg

    scene = dual_scene(2)
    svg = render_svg(scene)
    minidom.parseString(svg)
    assert svg == render_svg(dual_scene(2))
    # the twelve sector cells plus the central one
    assert len(scene["tiles"]) == 13
    labels = sorted(int(item["text"]) for item in scene["labels"])
    assert labels == list(range(1, 13))
    fills = {item.get("fill") for item in scene["tiles"]}
    assert len(fills) > 1  # black cells are shaded


def test_depth_validation():
    with pytest.raises(ValueError):
        pentagrid_sector(-1)
    with pytest.raises(ValueError):
        check_bijection(-2)
