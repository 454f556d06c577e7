"""The spanning-tree engine and node view as they were before hypq built
levels as powers of the substitution and located a node once.

``per_node_levels`` breeds each level with one table lookup per node of
the level above: the table holds each kind's expansion, laid out from
its rule's (kind, multiplicity) runs.  ``four_lookup_node`` resolves a
node through ``kind_of``, ``parent_of`` and ``children_of``, each of
which locates the id again.  The tests require hypq's results to equal
these exactly.
"""

from hypq.schlafli import REGION_ORDER
from hypq.tree import TreeNode

_CODE = {kind: i for i, kind in enumerate(REGION_ORDER)}


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


def four_lookup_node(tree, node_id):
    """The node through the per-field accessors, one locate each."""
    level, _ = tree._locate(node_id)
    return TreeNode(
        id=node_id,
        kind=tree.kind_of(node_id),
        level=level,
        parent=tree.parent_of(node_id),
        children=tree.children_of(node_id),
    )
