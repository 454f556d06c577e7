"""Spanning trees of sectors, bred from the splitting rules.

Applying the rules as a substitution system yields, level by level, the
tree that spans the tiles of a sector.  Nodes are numbered breadth
first, root = 1, so that ids inside a level are consecutive and increase
left to right.  Levels are stored as byte strings of region codes; the
per-node view (parent, children) is derived arithmetically on demand,
which keeps million-node trees affordable while preserving the exact
numbering.

The rules form a morphism sigma on region codes (a D0L system), and
level n is sigma^n(seed).  ``generate`` keeps one byte string per kind
holding sigma^i(kind) and builds step i's strings from step i-1's by
joining the rule's (kind, multiplicity) runs, so a level costs O(rule
runs) Python steps plus memcpy, however many nodes it holds.  Step i
builds only the kinds found on levels 0..depth-i, so each string is a
stretch of some level and the node cap bounds memory; ``expand`` stays
as the per-node view.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, repeat
from typing import TextIO

from .errors import CapExceeded, InvalidNodeCap, TooFewLevels
from .polyint import degree, normalize
from .schlafli import REGION_ORDER, Region, SplittingSystem, splitting_matrix

#: Hard ceiling on total node count; override with the HYPQ_NODE_CAP
#: environment variable or the explicit cap argument.
DEFAULT_NODE_CAP = 10**7

_CODE = {kind: i for i, kind in enumerate(REGION_ORDER)}


def node_cap() -> int:
    """The node cap from HYPQ_NODE_CAP, else DEFAULT_NODE_CAP."""
    raw = os.environ.get("HYPQ_NODE_CAP", DEFAULT_NODE_CAP)
    try:
        return int(raw)
    except ValueError:
        raise InvalidNodeCap(
            f"HYPQ_NODE_CAP must be an integer, got {raw!r}"
        ) from None


def expand(kind: Region, system: SplittingSystem) -> list[Region]:
    """Ordered children of one node: fans left to right, trailing region last."""
    rule = system.rule(kind)
    out: list[Region] = []
    for child, mult in rule.children:
        out.extend([child] * mult)
    return out


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


def predicted_total(system: SplittingSystem, depth: int) -> int:
    return sum(sum(v) for v in kind_counts(system, depth))


def max_depth_within_cap(system: SplittingSystem, cap: int | None = None) -> int:
    """Largest depth whose full tree stays within the node cap."""
    cap = node_cap() if cap is None else cap
    if cap < 1:
        raise CapExceeded(f"cap {cap} cannot hold even the root")
    total = 0
    for depth, vec in enumerate(_level_vectors(system)):
        total += sum(vec)
        if total > cap:
            return depth - 1


@dataclass(frozen=True)
class TreeNode:
    """One node of the finished tree, fully resolved."""

    id: int
    kind: Region
    level: int
    parent: int | None
    children: tuple[int, ...]


@dataclass
class SpanningTree:
    """Immutable once generated; per-level navigation tables are cached.

    Equality compares the system, depth and levels only: the derived
    offsets and the tables that navigation fills in are left out.
    """

    system: SplittingSystem
    depth: int
    levels: tuple[bytes, ...]
    _offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _prefix_cache: dict[int, list[int]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        starts = [1]
        for lv in self.levels:
            starts.append(starts[-1] + len(lv))
        self._offsets = tuple(starts)

    @property
    def size(self) -> int:
        return self._offsets[-1] - 1

    def level_counts(self) -> list[int]:
        return [len(lv) for lv in self.levels]

    def kind_of(self, node_id: int) -> Region:
        n, i = self._locate(node_id)
        return REGION_ORDER[self.levels[n][i]]

    def _locate(self, node_id: int) -> tuple[int, int]:
        """(level, index within the level) of a node id."""
        if not 1 <= node_id <= self.size:
            raise KeyError(f"node id {node_id} out of range 1..{self.size}")
        n = bisect_right(self._offsets, node_id) - 1
        return n, node_id - self._offsets[n]

    def _child_counts(self) -> dict[int, int]:
        return {
            _CODE[k]: self.system.rule(k).child_total for k in self.system.regions
        }

    def _prefix(self, level: int) -> list[int]:
        """prefix[i] = children spawned by nodes 0..i-1 of this level."""
        cached = self._prefix_cache.get(level)
        if cached is None:
            sizes = self._child_counts()
            cached = [0] + list(accumulate(sizes[c] for c in self.levels[level]))
            self._prefix_cache[level] = cached
        return cached

    def _children(self, n: int, i: int) -> tuple[int, ...]:
        if n == self.depth:
            return ()
        prefix = self._prefix(n)
        start = self._offsets[n + 1]
        return tuple(range(start + prefix[i], start + prefix[i + 1]))

    def _parent(self, n: int, i: int) -> int | None:
        if n == 0:
            return None
        return self._offsets[n - 1] + bisect_right(self._prefix(n - 1), i) - 1

    def children_of(self, node_id: int) -> tuple[int, ...]:
        return self._children(*self._locate(node_id))

    def parent_of(self, node_id: int) -> int | None:
        return self._parent(*self._locate(node_id))

    def node(self, node_id: int) -> TreeNode:
        n, i = self._locate(node_id)
        return TreeNode(
            id=node_id,
            kind=REGION_ORDER[self.levels[n][i]],
            level=n,
            parent=self._parent(n, i),
            children=self._children(n, i),
        )

    def nodes(self):
        """All nodes in breadth-first id order."""
        for node_id in range(1, self.size + 1):
            yield self.node(node_id)


def generate(
    system: SplittingSystem, depth: int, cap: int | None = None
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
    cap = node_cap() if cap is None else cap
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


def to_dot(tree: SpanningTree, out: TextIO) -> None:
    """Write the DOT rendering to out: one node per line, then the parent
    edges, then the closing brace and a newline.

    Written a level at a time from the level strings, so no more than
    one level's text is held at once: a level's ids run consecutively
    from its offset, and its nodes' children are the ids of the next
    level in order, each parent repeated once per child.
    """
    offsets = tree._offsets
    counts = tree._child_counts()
    out.write("digraph spanning_tree {")
    for n, level in enumerate(tree.levels):
        ids = range(offsets[n], offsets[n + 1])
        labels = [f'[label="{kind.label}/{n}"];' for kind in REGION_ORDER]
        out.write("\n")
        out.write("\n".join(map("  {} {}".format, ids, map(labels.__getitem__, level))))
    for n, level in enumerate(tree.levels[:-1]):
        ids = range(offsets[n], offsets[n + 1])
        parents = chain.from_iterable(map(repeat, ids, map(counts.__getitem__, level)))
        children = range(offsets[n + 1], offsets[n + 2])
        out.write("\n")
        out.write("\n".join(map("  {} -> {};".format, parents, children)))
    out.write("\n}\n")
