"""Spanning trees of sectors, bred from the splitting rules.

Applying the rules as a substitution system yields, level by level, the
tree that spans the tiles of a sector.  Nodes are numbered breadth
first, root = 1, so that ids inside a level are consecutive and increase
left to right.  Levels are stored as byte strings of region codes; the
per-node view (``SpanningTree.node``: kind, parent, children) is derived
arithmetically on demand, which keeps million-node trees affordable
while preserving the exact numbering.

The rules form a morphism sigma on region codes (a D0L system), and
level n is sigma^n(seed).  ``generate`` keeps one byte string per kind
holding sigma^i(kind) and builds step i's strings from step i-1's by
joining the rule's (kind, multiplicity) runs, so a level costs O(rule
runs) Python steps plus memcpy, however many nodes it holds.  Step i
builds only the kinds found on levels 0..depth-i, so each string is a
stretch of some level and the node cap bounds memory.

Navigation costs two bisects per lookup: one over the level offsets to
locate the id, one over the level above's child prefix sums to find the
parent; the children are a range read off the node's own level.  The
prefix sums of a level are built the first time a lookup needs them and
kept as an ``array('q')`` of the level's length plus one, 8 bytes per
navigated node.  ``to_dot`` writes fixed-size slices of each level and
fills no table, so its memory does not grow with the tree.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, repeat
from operator import index
from typing import NamedTuple, TextIO

from .errors import CapExceeded, TooFewLevels
from .polyint import degree, normalize
from .schlafli import REGION_ORDER, Region, SplittingSystem, splitting_matrix

#: Hard ceiling on total node count unless a cap is passed explicitly.
DEFAULT_NODE_CAP = 10**7

_CODE = {kind: i for i, kind in enumerate(REGION_ORDER)}


def _level_vectors(system: SplittingSystem):
    """Exact per-kind node counts of levels 0, 1, 2, ..., as the seed row
    times successive matrix powers."""
    matrix = splitting_matrix(system)
    rows, n = matrix.entries, matrix.order
    vec = tuple(1 if k is system.seed else 0 for k in matrix.regions)
    while True:
        yield vec
        vec = tuple(sum(vec[i] * rows[i][j] for i in range(n)) for j in range(n))


def kind_counts(system: SplittingSystem, depth: int) -> list[tuple[int, ...]]:
    """Exact per-kind node counts for levels 0..depth."""
    return list(islice(_level_vectors(system), depth + 1))


def max_depth_within_cap(system: SplittingSystem, cap: int = DEFAULT_NODE_CAP) -> int:
    """Largest depth whose full tree stays within the node cap."""
    if cap < 1:
        raise CapExceeded(f"cap {cap} cannot hold even the root")
    total = 0
    for depth, vec in enumerate(_level_vectors(system)):
        total += sum(vec)
        if total > cap:
            return depth - 1


class TreeNode(NamedTuple):
    """One node of the finished tree, fully resolved.

    An immutable, hashable tuple of its fields.  Being a NamedTuple, it
    also equals the plain tuple ``(id, kind, level, parent, children)``.
    """

    id: int
    kind: Region
    level: int
    parent: int | None
    children: tuple[int, ...]


#: Builds a TreeNode from a tuple of its fields in C; the NamedTuple's
#: own __new__ is a Python function and costs twice as much per node.
_new_node = tuple.__new__


@dataclass
class SpanningTree:
    """Immutable once generated; per-level navigation tables are cached.

    Equality compares the system, depth and levels only: the derived
    offsets, child counts and the tables that navigation fills in are
    left out.
    """

    system: SplittingSystem
    depth: int
    levels: tuple[bytes, ...]
    _offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: children of one node of each region code; a list, because mapping
    #: a level through list.__getitem__ costs half of tuple.__getitem__
    _sons: list[int] = field(init=False, repr=False, compare=False)
    _prefix_cache: dict[int, array] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        starts = [1]
        for lv in self.levels:
            starts.append(starts[-1] + len(lv))
        self._offsets = tuple(starts)
        self._sons = [0] * len(REGION_ORDER)
        for kind in self.system.regions:
            self._sons[_CODE[kind]] = self.system.rule(kind).child_total

    @property
    def size(self) -> int:
        return self._offsets[-1] - 1

    def level_counts(self) -> list[int]:
        return [len(lv) for lv in self.levels]

    def _prefix(self, level: int) -> array:
        """prefix[i] = children spawned by nodes 0..i-1 of this level."""
        table = self._prefix_cache.get(level)
        if table is None:
            sons = map(self._sons.__getitem__, self.levels[level])
            sums = accumulate(sons, initial=0)
            # copied once: an array grown from an iterator keeps spare room
            table = self._prefix_cache[level] = array("q", array("q", sums))
        return table

    def node(self, node_id: int) -> TreeNode:
        """The node with this id, located once: one bisect over the level
        offsets places it, one over the level above's prefix sums finds
        its parent, and its children are a range on the next level.

        The id goes through operator.index, so an id that is not an
        integer raises TypeError; one out of range raises KeyError.
        """
        node_id = index(node_id)
        offsets = self._offsets
        if not 0 < node_id < offsets[-1]:
            raise KeyError(f"node id {node_id} out of range 1..{self.size}")
        n = bisect_right(offsets, node_id) - 1
        i = node_id - offsets[n]
        if n:
            parent = offsets[n - 1] + bisect_right(self._prefix(n - 1), i) - 1
        else:
            parent = None
        if n < self.depth:
            prefix = self._prefix(n)
            start = offsets[n + 1]
            children = tuple(range(start + prefix[i], start + prefix[i + 1]))
        else:
            children = ()
        kind = REGION_ORDER[self.levels[n][i]]
        return _new_node(TreeNode, (node_id, kind, n, parent, children))

    def nodes(self):
        """All nodes in breadth-first id order."""
        for node_id in range(1, self.size + 1):
            yield self.node(node_id)


def generate(
    system: SplittingSystem, depth: int, cap: int = DEFAULT_NODE_CAP
) -> SpanningTree:
    """Breed the full tree of the given depth from the seed region.

    Level sizes are predicted exactly from the matrix action before
    anything is allocated; the first level at which the running total
    passes the cap raises CapExceeded, so a refusal costs no more than
    the levels below the cap, whatever the depth asked for.

    Level i is sigma^i(seed) for the rule morphism sigma.  One byte
    string per kind holds sigma^i(kind); step i joins, for each kind,
    step i-1's strings of its rule's (kind, multiplicity) runs, so the
    whole tree costs O(depth x rule runs) Python steps plus memcpy.  A
    kind first found on level j is needed only through step depth-j,
    and sigma^i(kind) is then the stretch of level j+i under one node,
    so no string outgrows a level and the cap bounds memory.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    sizes = []
    total = 0
    for level, vec in zip(range(depth + 1), _level_vectors(system)):
        sizes.append(sum(vec))
        total += sizes[-1]
        if total > cap:
            raise CapExceeded(
                f"{system.pair} {system.scheme.tag} depth {depth}: "
                f"the tree passes the cap of {cap} nodes at level {level}"
            )

    runs = {
        _CODE[kind]: [(_CODE[k], m) for k, m in system.rule(kind).children if m]
        for kind in system.regions
    }
    seed = _CODE[system.seed]
    # first[k]: the first level that holds kind k, breadth first over the
    # runs (a zero-multiplicity run puts no node on the next level)
    first = {seed: 0}
    queue = [seed]
    for k in queue:
        for c, _ in runs[k]:
            if c not in first:
                first[c] = first[k] + 1
                queue.append(c)

    power = {k: bytes((k,)) for k, j in first.items() if j <= depth}
    levels = [power[seed]]
    for i in range(1, depth + 1):
        power = {
            k: b"".join([power[c] * m for c, m in runs[k]])
            for k, j in first.items()
            if j <= depth - i
        }
        if len(power[seed]) != sizes[i]:
            raise AssertionError("expanded level disagrees with the matrix count")
        levels.append(power[seed])
    return SpanningTree(system, depth, tuple(levels))


def level_counts(tree: SpanningTree) -> list[int]:
    return tree.level_counts()


def recurrence_coefficients(poly: tuple[int, ...]) -> tuple[int, ...]:
    """c_0..c_{d-1} with u_{n+d} = sum c_i u_{n+i}, read off the polynomial
    P(X) = X^d - sum c_i X^i."""
    poly = normalize(poly)
    if poly[0] != 1:
        raise ValueError("expected a monic polynomial")
    return tuple(-a for a in poly[1:][::-1])


def recurrence_check(counts: list[int], poly: tuple[int, ...]) -> bool:
    """True iff every window of counts satisfies the recurrence exactly."""
    d = degree(normalize(poly))
    if len(counts) <= d:
        raise TooFewLevels(f"need more than {d} levels, got {len(counts)}")
    coeffs = recurrence_coefficients(poly)
    for n in range(len(counts) - d):
        if counts[n + d] != sum(c * counts[n + i] for i, c in enumerate(coeffs)):
            return False
    return True


#: Most DOT lines that ``to_dot`` formats before writing them out.
DOT_SLICE = 1 << 16


def to_dot(tree: SpanningTree, out: TextIO) -> None:
    """Write the DOT rendering to out: one node per line, then the parent
    edges, then the closing brace and a newline.

    Written in slices of at most DOT_SLICE lines, so the text held at
    once does not grow with the tree, and no navigation table is built.
    A level's ids run consecutively from its offset, and the edges into
    level n+1 pair that level's ids, in order, with a running stream of
    level n's ids, each repeated once per child.
    """
    offsets = tree._offsets
    out.write("digraph spanning_tree {")
    for n, level in enumerate(tree.levels):
        labels = [f'[label="{kind.label}/{n}"];' for kind in REGION_ORDER]
        for s in range(0, len(level), DOT_SLICE):
            chunk = level[s : s + DOT_SLICE]
            ids = range(offsets[n] + s, offsets[n] + s + len(chunk))
            out.write("\n")
            lines = map("  {} {}".format, ids, map(labels.__getitem__, chunk))
            out.write("\n".join(lines))
    sons = tree._sons.__getitem__
    for n, level in enumerate(tree.levels[:-1]):
        ids = range(offsets[n], offsets[n + 1])
        parents = chain.from_iterable(map(repeat, ids, map(sons, level)))
        for c in range(offsets[n + 1], offsets[n + 2], DOT_SLICE):
            children = range(c, min(c + DOT_SLICE, offsets[n + 2]))
            out.write("\n")
            lines = map("  {} -> {};".format, islice(parents, len(children)), children)
            out.write("\n".join(lines))
    out.write("\n}\n")
