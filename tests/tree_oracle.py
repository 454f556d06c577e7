"""Reference versions of the spanning-tree engine and its node view.

``per_node_levels`` breeds each level with one table lookup per node of
the level above: the table holds each kind's expansion, laid out from
its rule's (kind, multiplicity) runs.  ``ListPrefixNavigation`` is the
node view hypq had before its tables became arrays: it reads only a
tree's system, depth and levels, keeps each level's child prefix sums
as a list of Python ints, and locates the id again in every lookup.
``expand`` and ``predicted_total`` are the per-node expansion and the
matrix-predicted node count.  The tests require hypq's results to equal
these exactly.
"""

from bisect import bisect_right
from itertools import accumulate

from hypq.schlafli import REGION_ORDER
from hypq.tree import kind_counts

_CODE = {kind: i for i, kind in enumerate(REGION_ORDER)}


def expand(kind, system):
    """Ordered children of one node: fans left to right, trailing region last."""
    out = []
    for child, mult in system.rule(kind).children:
        out.extend([child] * mult)
    return out


def predicted_total(system, depth):
    """Nodes of the tree through the given depth, from the matrix action."""
    return sum(sum(v) for v in kind_counts(system, depth))


def per_node_levels(system, depth):
    """Levels 0..depth of the tree, one table lookup per node."""
    table = [b""] * len(REGION_ORDER)
    for kind in system.regions:
        table[_CODE[kind]] = b"".join(
            bytes((_CODE[k],)) * mult for k, mult in system.rule(kind).children
        )
    levels = [bytes([_CODE[system.seed]])]
    for _ in range(depth):
        levels.append(b"".join(map(table.__getitem__, levels[-1])))
    return tuple(levels)


class ListPrefixNavigation:
    """Kind, parent and children of a tree's nodes from list prefix sums.

    ``node`` gives the plain tuple (id, kind, level, parent, children).
    """

    def __init__(self, tree):
        self.levels, self.depth = tree.levels, tree.depth
        self.offsets = [1]
        for level in self.levels:
            self.offsets.append(self.offsets[-1] + len(level))
        self.sizes = {
            _CODE[k]: tree.system.rule(k).child_total for k in tree.system.regions
        }
        self.prefix = {}

    def _locate(self, node_id):
        if not 1 <= node_id < self.offsets[-1]:
            raise KeyError(node_id)
        n = bisect_right(self.offsets, node_id) - 1
        return n, node_id - self.offsets[n]

    def _prefix(self, n):
        if n not in self.prefix:
            sizes = self.sizes
            self.prefix[n] = [0] + list(accumulate(sizes[c] for c in self.levels[n]))
        return self.prefix[n]

    def kind_of(self, node_id):
        n, i = self._locate(node_id)
        return REGION_ORDER[self.levels[n][i]]

    def parent_of(self, node_id):
        n, i = self._locate(node_id)
        if n == 0:
            return None
        return self.offsets[n - 1] + bisect_right(self._prefix(n - 1), i) - 1

    def children_of(self, node_id):
        n, i = self._locate(node_id)
        if n == self.depth:
            return ()
        prefix = self._prefix(n)
        start = self.offsets[n + 1]
        return tuple(range(start + prefix[i], start + prefix[i + 1]))

    def node(self, node_id):
        n, _ = self._locate(node_id)
        return (
            node_id,
            self.kind_of(node_id),
            n,
            self.parent_of(node_id),
            self.children_of(node_id),
        )
