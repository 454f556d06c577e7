"""Dual numbering of the {4,5} grid via its {5,4} pentagrid sectors."""

import time
from dataclasses import dataclass
from enum import Enum

import pytest

from hypq.disc import base_tile, reflect_tile
from hypq.dual import (
    check_bijection,
    dual_scene,
    fibonacci_tree,
    level_counts,
    pentagrid_sector,
    side_numbering,
)
from hypq.errors import CapExceeded, NoFatherEdge, NotHyperbolic
from hypq.schlafli import Region, validate

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
    assert side_numbering(tile, 2) == (2, 3, 0, 1)
    image = reflect_tile(tile, 2, new_id=1)
    assert side_numbering(image, 0) == (0, 1, 2, 3)
    assert sorted(side_numbering(image, 3)) == [0, 1, 2, 3]
    # a hand-built clockwise tile is still numbered counter-clockwise,
    # which now runs against its list order
    backwards = tile._replace(vertices=tuple(reversed(tile.vertices)))
    assert side_numbering(backwards, 2) == (2, 1, 0, 3)
    with pytest.raises(NoFatherEdge):
        side_numbering(tile, None)


def test_pentagrid_sector_structure():
    tree = pentagrid_sector(2)
    assert [len(level) for level in tree.levels()] == [1, 3, 8]
    assert sorted(tree.nodes) == list(range(1, 13))
    seen_tiles = set()
    for nid, sn in tree.nodes.items():
        assert sn.node.id == nid
        assert sn.tile.id not in seen_tiles  # one tile per node
        seen_tiles.add(sn.tile.id)
        if nid != 1:
            assert sn.father_edge is not None
            v = sn.vertex
            assert min(abs(v - w) for w in sn.tile.vertices) < 1e-9


def test_sector_stays_between_the_delimiters():
    tree = pentagrid_sector(2)
    head = tree.nodes[2].tile  # first level-1 cell, the sector's head
    sign_l = tree.left.signed_distance(head.center)
    sign_r = tree.right.signed_distance(head.center)
    for sn in list(tree.nodes.values())[1:]:
        assert tree.left.signed_distance(sn.tile.center) * sign_l > 0
        assert tree.right.signed_distance(sn.tile.center) * sign_r > 0


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
