"""Spanning trees of sectors, bred from the splitting rules.

Applying the rules as a substitution system yields, level by level, the
tree that spans the tiles of a sector.  Nodes are numbered breadth
first, root = 1, so that ids inside a level are consecutive and increase
left to right.  Levels are stored as byte strings of region codes; the
per-node view (parent, children) is derived arithmetically on demand,
which keeps million-node trees affordable while preserving the exact
numbering.  Each kind's expansion is laid out from its rule's
(kind, multiplicity) runs, so a rule with millions of children costs
O(rules) Python steps; ``expand`` stays as the per-node view.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, repeat

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
    """Immutable once generated; per-level navigation tables are cached."""

    system: SplittingSystem
    depth: int
    levels: tuple[bytes, ...]
    _offsets: tuple[int, ...] = field(init=False, repr=False)
    _prefix_cache: dict[int, list[int]] = field(default_factory=dict, repr=False)

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

    def children_of(self, node_id: int) -> tuple[int, ...]:
        n, i = self._locate(node_id)
        if n == self.depth:
            return ()
        prefix = self._prefix(n)
        start = self._offsets[n + 1] + prefix[i]
        return tuple(range(start, self._offsets[n + 1] + prefix[i + 1]))

    def parent_of(self, node_id: int) -> int | None:
        n, i = self._locate(node_id)
        if n == 0:
            return None
        prefix = self._prefix(n - 1)
        j = bisect_right(prefix, i) - 1
        return self._offsets[n - 1] + j

    def node(self, node_id: int) -> TreeNode:
        n, _ = self._locate(node_id)
        return TreeNode(
            id=node_id,
            kind=self.kind_of(node_id),
            level=n,
            parent=self.parent_of(node_id),
            children=self.children_of(node_id),
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
    the levels below the cap, whatever the depth asked for.  Each kind's
    expansion is laid out once from its rule's (kind, multiplicity) runs,
    so a rule with millions of children costs O(rules) Python steps, and
    each level is the join of its nodes' expansions.
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

    table = [b""] * len(REGION_ORDER)
    for kind in system.regions:
        table[_CODE[kind]] = b"".join(
            bytes((_CODE[k],)) * mult for k, mult in system.rule(kind).children
        )

    levels = [bytes([_CODE[system.seed]])]
    for n in range(depth):
        nxt = b"".join(map(table.__getitem__, levels[-1]))
        if len(nxt) != sizes[n + 1]:
            raise AssertionError("expanded level disagrees with the matrix count")
        levels.append(nxt)
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


def to_dot(tree: SpanningTree) -> str:
    """DOT rendering, one node per line, then the parent edges.

    Written a level at a time from the level strings: a level's ids run
    consecutively from its offset, and its nodes' children are the ids
    of the next level in order, each parent repeated once per child.
    """
    offsets = tree._offsets
    counts = tree._child_counts()
    node_chunks, edge_chunks = [], []
    for n, level in enumerate(tree.levels):
        ids = range(offsets[n], offsets[n + 1])
        labels = [f'[label="{kind.label}/{n}"];' for kind in REGION_ORDER]
        node_chunks.append(
            "\n".join(map("  {} {}".format, ids, map(labels.__getitem__, level)))
        )
        if n < tree.depth:
            parents = chain.from_iterable(
                map(repeat, ids, map(counts.__getitem__, level))
            )
            children = range(offsets[n + 1], offsets[n + 2])
            edge_chunks.append("\n".join(map("  {} -> {};".format, parents, children)))
    return "\n".join(["digraph spanning_tree {", *node_chunks, *edge_chunks, "}"])
