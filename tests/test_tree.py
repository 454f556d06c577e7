"""Spanning-tree generation, level counts, recurrences, caps and DOT export."""

import io
import random
import sys
import tracemalloc
from dataclasses import replace

import pytest

from hypq import tree as tree_mod
from hypq.dual import fibonacci_tree
from hypq.errors import (
    CapExceeded,
    InvalidNodeCap,
    SchemeParityMismatch,
    TooFewLevels,
    UnsupportedCase,
)
from hypq.schlafli import (
    Region,
    Scheme,
    build_system,
    validate,
)
from hypq.tree import (
    TreeNode,
    generate,
    kind_counts,
    max_depth_within_cap,
    node_cap,
    recurrence_check,
    recurrence_coefficients,
    to_dot,
)
from hypq.verify import EVEN_PAIRS, ODD_PAIRS, _desk_cases
from sweep_sample import SWEEP_SAMPLE
from tree_oracle import ListPrefixNavigation, expand, per_node_levels, predicted_total

FIVE_FOUR = build_system(validate(5, 4), Scheme.EVEN_Q)
FIVE_SEVEN_V1 = build_system(validate(5, 7), Scheme.ODD_V1)


def test_expand_follows_rule_order():
    # S0 -> 2*S0 + S1 for {5,4}
    assert expand(Region.S0, FIVE_FOUR) == [Region.S0, Region.S0, Region.S1]
    assert expand(Region.S1, FIVE_FOUR) == [Region.S0, Region.S1]
    assert expand(Region.S0_PRIME, FIVE_SEVEN_V1) == [
        Region.S0, Region.S0, Region.S0, Region.S0, Region.S1,
    ]


def test_kind_counts_equal_matrix_action():
    counts = kind_counts(FIVE_FOUR, 4)
    assert counts[0] == (1, 0)
    # u_{n+1} = M^T u_n done by hand for the first steps
    assert counts[1] == (2, 1)
    assert counts[2] == (5, 3)
    assert counts[3] == (13, 8)
    assert counts[4] == (34, 21)
    assert [sum(v) for v in counts] == [1, 3, 8, 21, 55]


def test_generated_tree_matches_predictions():
    tree = generate(FIVE_FOUR, 6)
    assert tree.level_counts() == [1, 3, 8, 21, 55, 144, 377]
    assert tree.size == predicted_total(FIVE_FOUR, 6) == 609


def test_tree_navigation_is_consistent():
    tree = generate(FIVE_SEVEN_V1, 4)
    seen_children = 0
    for node in tree.nodes():
        for child in node.children:
            assert tree.node(child).parent == node.id
            seen_children += 1
        assert tree.node(node.id) == node
    # every node except the root is somebody's child
    assert seen_children == tree.size - 1


def test_children_kinds_follow_the_rules():
    tree = generate(FIVE_SEVEN_V1, 3)
    for node in tree.nodes():
        if node.level == tree.depth:
            assert node.children == ()
            continue
        got = [tree.node(c).kind for c in node.children]
        assert got == expand(node.kind, FIVE_SEVEN_V1)


def test_root_is_the_seed():
    tree = generate(build_system(validate(5, 7), Scheme.ODD_V2), 2)
    root = tree.node(1)
    assert root.kind is Region.S0_PRIME
    assert root.level == 0 and root.parent is None


def test_generate_rejects_bad_depth_and_caps():
    with pytest.raises(ValueError):
        generate(FIVE_FOUR, -1)
    with pytest.raises(CapExceeded):
        generate(FIVE_FOUR, 5, cap=100)
    # predicted up front: no partial tree is built
    generate(FIVE_FOUR, 5, cap=1000)


def test_node_cap_environment_override(monkeypatch):
    monkeypatch.delenv("HYPQ_NODE_CAP", raising=False)
    default = node_cap()
    monkeypatch.setenv("HYPQ_NODE_CAP", "123")
    assert node_cap() == 123
    with pytest.raises(CapExceeded):
        generate(FIVE_FOUR, 6)
    monkeypatch.delenv("HYPQ_NODE_CAP")
    assert node_cap() == default


@pytest.mark.parametrize("raw", ["abc", ""])
def test_node_cap_environment_must_be_an_integer(monkeypatch, raw):
    monkeypatch.setenv("HYPQ_NODE_CAP", raw)
    with pytest.raises(InvalidNodeCap, match=f"HYPQ_NODE_CAP.*{raw!r}"):
        node_cap()
    with pytest.raises(InvalidNodeCap):
        generate(FIVE_FOUR, 2)
    # an explicit cap never reads the variable
    assert generate(FIVE_FOUR, 2, cap=100).size == 12


def _desk_systems():
    for p, q in EVEN_PAIRS + ODD_PAIRS:
        for scheme in Scheme:
            try:
                yield build_system(validate(p, q), scheme)
            except (SchemeParityMismatch, UnsupportedCase):
                continue


def test_levels_equal_the_per_node_oracle():
    systems = list(_desk_systems())
    assert len(systems) == len(EVEN_PAIRS) + 3 * len(ODD_PAIRS)
    systems += [build_system(pair, scheme) for pair, scheme in SWEEP_SAMPLE]
    for system in systems:
        depth = max_depth_within_cap(system, 2 * 10**5)
        tree = generate(system, depth, cap=2 * 10**5)
        assert tree.levels == per_node_levels(system, depth), (
            system.pair,
            system.scheme,
        )


def test_fibonacci_levels_equal_the_per_node_oracle():
    # depths 0..12, as far as the default node cap admits
    for p in (5, 6, 7):
        system = fibonacci_tree(0, p).system
        for depth in range(min(12, max_depth_within_cap(system)) + 1):
            assert fibonacci_tree(depth, p).levels == per_node_levels(system, depth)


# The {5,4} rules seeded with S1: the non-seed kind S0 grows faster than
# S1, and is first found on level 1, so the last step builds no string
# for it.  With S0 -> 9 S0 it outgrows the seed ninefold.
S1_SEEDED = replace(FIVE_FOUR, seed=Region.S1)
FAST_S0 = replace(
    S1_SEEDED,
    rules=tuple(
        replace(rule, children=((Region.S0, 9),)) if rule.parent is Region.S0 else rule
        for rule in FIVE_FOUR.rules
    ),
)


def test_levels_of_a_non_seed_kind_that_grows_faster():
    for system in (S1_SEEDED, FAST_S0):
        depth = max_depth_within_cap(system, 10**6)
        tree = generate(system, depth, cap=10**6)
        assert tree.levels == per_node_levels(system, depth)
    assert generate(S1_SEEDED, 3).level_counts() == [1, 2, 5, 13]


def test_generate_memory_stays_near_the_tree_size():
    # Building every kind's string through the last step would peak at
    # 3.1x ({5,4} seeded with S1), 3.2x ({5,7} odd-v1), 5.0x ({4,899}
    # odd-v2) and 8.9x (S0 -> 9 S0) the tree's bytes; the kinds found
    # late stop early and keep each of these within 2x.
    systems = [
        S1_SEEDED,
        FAST_S0,
        build_system(validate(5, 7), Scheme.ODD_V1),
        build_system(validate(4, 899), Scheme.ODD_V2),
        FIVE_FOUR,
    ]
    for system in systems:
        depth = max_depth_within_cap(system, 10**6)
        tracemalloc.start()
        try:
            tree = generate(system, depth, cap=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = sum(map(len, tree.levels))
        assert size > 2 * 10**5
        assert peak <= 2.5 * size, (system.pair, system.scheme, system.seed)


def test_equal_trees_stay_equal_after_navigation():
    a, b = generate(FIVE_FOUR, 4), generate(FIVE_FOUR, 4)
    assert a == b
    a.node(3)
    a.node(20)
    assert a._prefix_cache and not b._prefix_cache
    assert a == b
    assert a != generate(FIVE_FOUR, 3)
    assert a != generate(S1_SEEDED, 4)


def _small_desk_trees():
    """Every desk case at depths 0..4 whose tree holds at most 2000 nodes
    (460 trees; the full set at depth 4 is 297M nodes)."""
    for pair, scheme in _desk_cases():
        system = build_system(pair, scheme)
        for depth in range(5):
            if predicted_total(system, depth) > 2000:
                break
            yield generate(system, depth)


# the walk trees of the benchmark's trees workload, at its 10^5 node cap
WALK_CASES = (
    (5, 4, Scheme.EVEN_Q),
    (6, 4, Scheme.EVEN_Q),
    (5, 7, Scheme.ODD_V1),
    (4, 7, Scheme.ODD_V1),
    (5, 7, Scheme.ODD_V2),
    (4, 5, Scheme.ODD_V1),
)


def _assert_navigation_equals_the_oracle(tree, ids):
    oracle = ListPrefixNavigation(tree)
    for node_id in ids:
        want = oracle.node(node_id)
        node = tree.node(node_id)
        assert type(node) is TreeNode
        assert (node.id, node.kind, node.level, node.parent, node.children) == want


def test_navigation_equals_the_list_prefix_oracle():
    trees = list(_small_desk_trees())
    assert len(trees) == 460
    for tree in trees:
        _assert_navigation_equals_the_oracle(tree, range(1, tree.size + 1))
        oracle = ListPrefixNavigation(tree)
        assert list(tree.nodes()) == [oracle.node(i) for i in range(1, tree.size + 1)]
    rng = random.Random(10)
    for p, q, scheme in WALK_CASES:
        system = build_system(validate(p, q), scheme)
        tree = generate(system, max_depth_within_cap(system, 10**5), cap=10**5)
        _assert_navigation_equals_the_oracle(
            tree, [rng.randint(1, tree.size) for _ in range(2000)]
        )
        for bad in (0, tree.size + 1):
            with pytest.raises(KeyError):
                tree.node(bad)
    # 298 and 297 sons a node: child counts that do not fit in a byte
    tree = generate(build_system(validate(300, 4), Scheme.EVEN_Q), 2)
    assert max(tree.level_counts()) > 256**2
    _assert_navigation_equals_the_oracle(
        tree, [rng.randint(1, tree.size) for _ in range(2000)]
    )


def test_navigation_tables_hold_eight_bytes_a_node():
    tree = generate(FIVE_FOUR, 13)
    assert tree.size == 514228
    tracemalloc.start()
    try:
        for start in tree._offsets[:-1]:
            tree.node(start)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tables = tree._prefix_cache
    assert sorted(tables) == list(range(tree.depth))
    navigated = sum(len(tree.levels[n]) for n in tables)
    # one entry past each level's end, the array headers and the dict
    bound = 8 * navigated + 256 * (tree.depth + 1)
    assert sum(map(sys.getsizeof, tables.values())) <= bound
    assert held <= bound


class _Index:
    def __index__(self):
        return 3


def test_node_ids_go_through_operator_index():
    tree = generate(FIVE_FOUR, 3)
    for bad in (1.5, 2.0, "3", None):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            tree.node(bad)
    root = tree.node(True)
    assert root == tree.node(1) and type(root.id) is int
    assert tree.node(_Index()) == tree.node(3)
    assert type(tree.node(_Index()).id) is int


def test_tree_node_is_an_immutable_hashable_tuple():
    tree = generate(FIVE_SEVEN_V1, 3)
    node = tree.node(5)
    with pytest.raises(AttributeError):
        node.parent = 7
    with pytest.raises(TypeError):
        node[0] = 7
    assert node == tree.node(5) and node is not tree.node(5)
    assert hash(node) == hash(tree.node(5))
    assert len({tree.node(i) for i in (1, 5, 5, 1, 6)}) == 3
    # a NamedTuple equals the plain tuple of its fields
    assert node == tuple(node) == ListPrefixNavigation(tree).node(5)
    assert node != tree.node(6)


def test_max_depth_within_cap():
    d = max_depth_within_cap(FIVE_FOUR, cap=1000)
    assert predicted_total(FIVE_FOUR, d) <= 1000
    assert predicted_total(FIVE_FOUR, d + 1) > 1000


def test_recurrence_coefficients_and_check():
    assert recurrence_coefficients((1, -3, 1)) == (-1, 3)
    counts = [1, 3, 8, 21, 55, 144]
    assert recurrence_check(counts, (1, -3, 1))
    assert not recurrence_check([1, 3, 8, 21, 56], (1, -3, 1))
    with pytest.raises(TooFewLevels):
        recurrence_check([1, 3], (1, -3, 1))
    with pytest.raises(ValueError):
        recurrence_coefficients((2, -3, 1))


def test_recurrence_holds_for_every_scheme():
    from hypq.schlafli import characteristic_polynomial, splitting_matrix

    for pair, scheme in [
        ((5, 4), Scheme.EVEN_Q),
        ((5, 7), Scheme.ODD_V1),
        ((5, 7), Scheme.ODD_V2),
        ((4, 9), Scheme.ODD_V1),
        ((8, 4), Scheme.EVEN_Q),
    ]:
        system = build_system(validate(*pair), scheme)
        poly = characteristic_polynomial(splitting_matrix(system))
        counts = generate(system, 7).level_counts()
        assert recurrence_check(counts, poly), (pair, scheme)


def _dot(tree):
    out = io.StringIO()
    to_dot(tree, out)
    return out.getvalue()


def test_to_dot_structure():
    tree = generate(FIVE_FOUR, 2)
    dot = _dot(tree)
    assert dot.endswith("}\n")
    lines = dot.splitlines()
    assert lines[0] == "digraph spanning_tree {"
    assert lines[-1] == "}"
    nodes = [l for l in lines if "[label=" in l]
    edges = [l for l in lines if "->" in l]
    assert len(nodes) == tree.size == 12
    assert len(edges) == tree.size - 1
    assert '1 [label="S0/0"];' in dot


def _node_by_node_dot(tree):
    """The DOT text built through the per-node view, two walks of it."""
    lines = ["digraph spanning_tree {"]
    for node in tree.nodes():
        lines.append(f'  {node.id} [label="{node.kind.label}/{node.level}"];')
    for node in tree.nodes():
        for child in node.children:
            lines.append(f"  {node.id} -> {child};")
    lines.append("}")
    return "\n".join(lines)


class _Sink:
    def write(self, text):
        pass


def test_to_dot_slices_leave_the_text_and_bound_the_memory(monkeypatch):
    trees = [
        generate(build_system(validate(12, 13), Scheme.ODD_V1), 2),
        generate(FIVE_FOUR, 6),
    ]
    whole = [_dot(tree) for tree in trees]
    for size in (1, 2, 7, 100):
        monkeypatch.setattr(tree_mod, "DOT_SLICE", size)
        assert [_dot(tree) for tree in trees] == whole
    # the peak is one slice's text, however many nodes a level holds:
    # written a level at a time, the depth-11 tree (last level 46368
    # nodes) would peak about 7x higher than the depth-9 one (6765)
    monkeypatch.setattr(tree_mod, "DOT_SLICE", 1000)
    peaks = []
    for depth in (9, 11):
        tree = generate(FIVE_FOUR, depth)
        tracemalloc.start()
        try:
            to_dot(tree, _Sink())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks
    assert not tree._prefix_cache


def test_to_dot_matches_the_node_walk():
    checked = 0
    for tree in _small_desk_trees():
        assert _dot(tree) == _node_by_node_dot(tree) + "\n", (
            tree.system.pair,
            tree.system.scheme,
            tree.depth,
        )
        checked += 1
    assert checked == 460
