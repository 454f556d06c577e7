"""Spanning-tree generation, level counts, recurrences, caps and DOT export."""

import pytest

from hypq.errors import (
    CapExceeded,
    InvalidNodeCap,
    SchemeParityMismatch,
    TooFewLevels,
    UnsupportedCase,
)
from hypq.schlafli import (
    REGION_ORDER,
    Region,
    Scheme,
    build_system,
    validate,
)
from hypq.tree import (
    expand,
    generate,
    kind_counts,
    max_depth_within_cap,
    node_cap,
    predicted_total,
    recurrence_check,
    recurrence_coefficients,
    to_dot,
)
from hypq.verify import EVEN_PAIRS, ODD_PAIRS
from sweep_sample import SWEEP_SAMPLE

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
            assert tree.parent_of(child) == node.id
            seen_children += 1
        assert tree.children_of(node.id) == node.children
        assert tree.kind_of(node.id) is node.kind
    # every node except the root is somebody's child
    assert seen_children == tree.size - 1


def test_children_kinds_follow_the_rules():
    tree = generate(FIVE_SEVEN_V1, 3)
    for node in tree.nodes():
        if node.level == tree.depth:
            assert node.children == ()
            continue
        got = [tree.kind_of(c) for c in node.children]
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


def _levels_per_child(system, depth):
    """Oracle: the levels built from a per-child expansion table, one
    region code per child, as generate did before it read the runs."""
    table = {}
    for kind in system.regions:
        table[REGION_ORDER.index(kind)] = bytes(
            REGION_ORDER.index(k) for k in expand(kind, system)
        )
    levels = [bytes([REGION_ORDER.index(system.seed)])]
    for _ in range(depth):
        levels.append(b"".join(map(table.__getitem__, levels[-1])))
    return tuple(levels)


def _desk_systems():
    for p, q in EVEN_PAIRS + ODD_PAIRS:
        for scheme in Scheme:
            try:
                yield build_system(validate(p, q), scheme)
            except (SchemeParityMismatch, UnsupportedCase):
                continue


def test_levels_equal_the_per_child_oracle():
    systems = list(_desk_systems())
    assert len(systems) == len(EVEN_PAIRS) + 3 * len(ODD_PAIRS)
    systems += [build_system(pair, scheme) for pair, scheme in SWEEP_SAMPLE]
    for system in systems:
        depth = min(6, max_depth_within_cap(system, 4096))
        assert generate(system, depth, cap=4096).levels == _levels_per_child(
            system, depth
        ), (system.pair, system.scheme)


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


def test_to_dot_structure():
    tree = generate(FIVE_FOUR, 2)
    dot = to_dot(tree)
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


def test_to_dot_matches_the_node_walk():
    # every desk case at depths 0..4 whose tree holds at most 2000 nodes
    # (460 trees; the full set at depth 4 is 297M nodes)
    checked = 0
    for p, q in EVEN_PAIRS + ODD_PAIRS:
        pair = validate(p, q)
        schemes = [Scheme.EVEN_Q] if q % 2 == 0 else [Scheme.ODD_V1, Scheme.ODD_V2]
        for scheme in schemes:
            system = build_system(pair, scheme)
            for depth in range(5):
                if predicted_total(system, depth) > 2000:
                    break
                tree = generate(system, depth)
                assert to_dot(tree) == _node_by_node_dot(tree), (pair, scheme, depth)
                checked += 1
    assert checked == 460
