"""Reflection closure of the base tile: dedup, adjacency, vertex rings."""

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geometry_oracle
from hypq.disc import base_tile, hyp_distance, reflect_tile, tile_metrics
from hypq.errors import CapExceeded, HypqError, PrecisionExhausted
from hypq.schlafli import validate
from hypq.tiling import DEDUP_TOL, SpatialIndex, tessellate


def test_generation_zero_is_the_base_tile():
    tess = tessellate(validate(5, 4), 0)
    assert len(tess) == 1
    assert tess.tiles[0].center == 0j


def test_depth_one_counts():
    # one new tile per edge
    for p, q in [(5, 4), (4, 5), (5, 7)]:
        tess = tessellate(validate(p, q), 1)
        assert len(tess) == 1 + p
        assert [t.generation for t in tess.tiles] == [0] + [1] * p


def test_growth_is_monotone_and_deduplicated():
    pair = validate(5, 4)
    sizes = [len(tessellate(pair, g)) for g in range(4)]
    assert sizes == sorted(sizes)
    tess = tessellate(pair, 3)
    centers = [t.center for t in tess.tiles]
    for i, a in enumerate(centers):
        for b in centers[i + 1 :]:
            assert abs(a - b) > 1e-6


def test_tiles_are_congruent():
    pair = validate(4, 5)
    edge = 2 * tile_metrics(pair).half_edge
    for tile in tessellate(pair, 2).tiles:
        for i in range(tile.p):
            assert abs(hyp_distance(*tile.edge(i)) - edge) < 1e-9


def test_neighbor_across_is_mutual():
    pair = validate(5, 4)
    tess = tessellate(pair, 2)
    root = tess.tiles[0]
    for e in range(root.p):
        nb = tess.neighbor_across(root, e)
        assert nb is not None and nb.id != root.id
        # the neighbor sees the root across one of its own edges
        back = [
            f for f in range(nb.p)
            if (m := tess.neighbor_across(nb, f)) and m.id == root.id
        ]
        assert len(back) == 1


def test_neighbor_missing_at_the_rim():
    pair = validate(5, 4)
    tess = tessellate(pair, 1)
    rim = tess.tiles[-1]
    missing = sum(tess.neighbor_across(rim, e) is None for e in range(rim.p))
    assert missing > 0


def test_neighbor_across_raises_only_on_unshared_rim_edges():
    # {8,8} builds 4 generations, but 127 of the 25544 (tile, edge)
    # queries land on edges whose line no longer solves in doubles; each
    # is an outer edge of a generation-4 tile that no other tile shares
    tess = tessellate(validate(8, 8), 4)
    edges = {}
    for tile in tess.tiles:
        for e in range(tile.p):
            key = frozenset(map(tess.vertex_id, tile.edge(e)))
            edges[key] = edges.get(key, 0) + 1
    raised = []
    for tile in tess.tiles:
        for e in range(tile.p):
            try:
                tess.neighbor_across(tile, e)
            except PrecisionExhausted:
                raised.append((tile, e))
    assert sum(t.p for t in tess.tiles) == 25544
    assert len(raised) == 127
    assert {t.generation for t, _ in raised} == {4}
    assert all(
        edges[frozenset(map(tess.vertex_id, t.edge(e)))] == 1 for t, e in raised
    )


def test_tile_is_an_immutable_hashable_tuple():
    tess = tessellate(validate(5, 4), 2)
    tile = tess.tiles[7]
    fields = (
        tile.id, tile.vertices, tile.center,
        tile.generation, tile.parent, tile.parent_edge,
    )
    assert tile == fields and tuple(tile) == fields
    assert hash(tile) == hash(fields)
    assert {tile: 1}[fields] == 1
    with pytest.raises(AttributeError):
        tile.center = 0j
    with pytest.raises(AttributeError):
        tile.extra = 1
    root = tess.tiles[0]
    assert root == (0, root.vertices, 0j, 0, None, None)
    assert (root.parent, root.parent_edge) == (None, None)


def test_tile_at_and_locate_edge():
    pair = validate(5, 7)
    tess = tessellate(pair, 2)
    some = tess.tiles[7]
    assert tess.tile_at(some.center).id == some.id
    assert tess.tile_at(0.9 + 0.9j) is None
    tile, e = geometry_oracle.locate_edge(tess, *some.edge(3))
    assert tile.edge(e) in (some.edge(3), some.edge(3)[::-1]) or (
        abs(tile.edge(e)[0] - some.edge(3)[0]) < 1e-9
        or abs(tile.edge(e)[0] - some.edge(3)[1]) < 1e-9
    )


def test_vertex_groups_have_full_rings_inside():
    # every interior vertex of a {p,q} tessellation carries q tiles;
    # vertices whose oldest tile is young may still be missing ring
    # members at the rim (the far side of a ring is q//2 reflections
    # from the oldest tile)
    for p, q in [(5, 4), (4, 5)]:
        depth = 3
        tess = tessellate(validate(p, q), depth)
        ripe = depth - q // 2
        checked = 0
        for z, tile_ids in tess.vertex_groups():
            if all(tess.tiles[t].generation > ripe for t in tile_ids):
                assert len(tile_ids) <= q
                continue
            assert len(tile_ids) == q, z
            checked += 1
        assert checked > 0


def test_vertex_id_is_stable():
    tess = tessellate(validate(5, 4), 2)
    v = tess.tiles[0].vertices[0]
    vid = tess.vertex_id(v)
    assert vid is not None
    assert tess.vertex_id(v + 1e-9) == vid
    assert tess.vertex_id(0.99 + 0.99j) is None


def test_tile_cap():
    with pytest.raises(CapExceeded):
        tessellate(validate(5, 7), 3, cap=40)


@pytest.mark.parametrize("p,q,generations", [(7, 3, 5), (4, 5, 4), (5, 7, 3)])
def test_cap_fires_at_the_tile_past_it(p, q, generations):
    # the dedup probe stores a new center before the cap is checked; the
    # cap still refuses exactly the first tile past it, by the object
    # oracle's count
    pair = validate(p, q)
    full = len(geometry_oracle.tessellate(pair, generations))
    assert len(tessellate(pair, generations, cap=full)) == full
    msg = rf"^\{{{p},{q}\}}: more than {full - 1} tiles at {generations} generations$"
    with pytest.raises(CapExceeded, match=msg):
        tessellate(pair, generations, cap=full - 1)


def test_rejects_negative_generations():
    with pytest.raises(ValueError):
        tessellate(validate(5, 4), -1)


def test_precision_exhausted_is_typed():
    # {8,8} gen 5 puts vertices so near the boundary that an edge's arc
    # center solves to a point inside the disc
    want = r"^\{8,8\}: generation 5 after \d+ tiles: .*double precision"
    with pytest.raises(PrecisionExhausted, match=want) as info:
        tessellate(validate(8, 8), 5)
    assert isinstance(info.value, HypqError) and isinstance(info.value, ValueError)
    # the same message, at the same tile, as the object-based oracle
    with pytest.raises(PrecisionExhausted) as oracle:
        geometry_oracle.tessellate(validate(8, 8), 5)
    assert str(info.value) == str(oracle.value)
    assert "after 3997 tiles" in str(info.value)


@pytest.mark.parametrize(
    "p,q,generations",
    [(5, 4, 6), (4, 5, 6), (7, 3, 6), (8, 3, 4), (5, 7, 3), (8, 8, 4)],
)
def test_tiles_match_the_object_oracle(p, q, generations):
    # tile for tile: id, vertices and center to the bit, generation and
    # parent link; dedup probes the center before the tile is built
    pair = validate(p, q)
    want = geometry_oracle.tessellate(pair, generations)
    got = tessellate(pair, generations).tiles
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_reflect_tile_and_neighbors_match_the_object_oracle():
    tess = tessellate(validate(5, 4), 3)
    for tile in tess.tiles:
        for e in range(tile.p):
            want = geometry_oracle.reflect_tile(tile, e, new_id=7)
            assert reflect_tile(tile, e, new_id=7) == want
            nb = tess.neighbor_across(tile, e)
            assert nb is tess.tile_at(want.center)


# ---------------------------------------------------------------------------
# The 2x2 grid probe against a brute-force scan and the old 3x3 index

TOL = DEDUP_TOL
coords = st.floats(-1.5, 1.5, allow_nan=False)
# multiples of the grid step and of tol land exactly on cell borders
borders = st.integers(-750_000, 750_000).map(lambda k: k * TOL)
anchors = st.builds(complex, coords | borders, coords | borders)
# offsets at the edge of the tolerance, well inside it, and on the axes
radii = st.sampled_from(
    [TOL * (1 - 1e-9), TOL * (1 + 1e-9), TOL, TOL / 2, TOL * 0.999, 0.0, 3 * TOL]
) | st.floats(0.0, 4 * TOL)
angles = st.sampled_from([0.0, cmath.pi / 2, cmath.pi, -cmath.pi / 2]) | st.floats(
    -cmath.pi, cmath.pi
)
offsets = st.builds(lambda r, t: cmath.rect(r, t), radii, angles)


def _cluster(anchor, offs):
    return [anchor + d for d in offs]


clusters = st.lists(
    st.builds(_cluster, anchors, st.lists(offsets, min_size=1, max_size=6)),
    min_size=1,
    max_size=8,
).map(lambda groups: [z for g in groups for z in g])


def _brute_find(points, z, tol=TOL):
    best, best_d = None, tol
    for payload, w in enumerate(points):
        d = abs(z - w)
        if d < best_d:
            best, best_d = payload, d
    return best


def _distance(points, z, hit):
    # equidistant points may be scanned in another order; compare the
    # distance of the hit, which is the same for every nearest point
    return None if hit is None else abs(z - points[hit])


@settings(max_examples=200, deadline=None)
@given(clusters, st.lists(offsets, min_size=1, max_size=6))
def test_find_is_the_nearest_point_within_tol(points, probe_offsets):
    new, old = SpatialIndex(), geometry_oracle.SpatialIndex()
    for payload, w in enumerate(points):
        new.insert(w, payload)
        old.insert(w, payload)
    probes = [w + d for w in points for d in probe_offsets] + points
    for z in probes:
        want = _distance(points, z, _brute_find(points, z))
        assert _distance(points, z, new.find(z)) == want, z
        assert _distance(points, z, old.find(z)) == want, z


@settings(max_examples=100, deadline=None)
@given(clusters)
def test_insert_then_find_keeps_one_point_per_tol(points):
    # the dedup pattern: insert only what find does not see, and its
    # one-pass form find_or_insert, which tessellate uses
    new, old, fused = SpatialIndex(), geometry_oracle.SpatialIndex(), SpatialIndex()
    kept_new, kept_old, kept_fused = [], [], []
    for z in points:
        for index, kept in ((new, kept_new), (old, kept_old)):
            hit = index.find(z)
            assert _distance(kept, z, hit) == _distance(kept, z, _brute_find(kept, z))
            if hit is None:
                index.insert(z, len(kept))
                kept.append(z)
        hit = fused.find_or_insert(z, len(kept_fused))
        want = _brute_find(kept_fused, z)
        assert _distance(kept_fused, z, hit) == _distance(kept_fused, z, want)
        if hit is None:
            kept_fused.append(z)
    assert kept_new == kept_old == kept_fused
    for i, z in enumerate(kept_new):
        assert new.find(z) == i
        assert fused.find_or_insert(z, -1) == i
    # with payload None it only looks, as find does
    far = 5 + 5j
    assert fused.find_or_insert(far, None) is None
    assert fused.find_or_insert(far, 7) is None
    assert fused.find(far) == 7


def test_find_at_cell_borders_and_the_tolerance_edge():
    # stored points on the borders of the 2*tol grid and half a cell off
    # them, probed from just inside and just outside tol in eight
    # directions; a probe is never confused by the border it sits near
    new, old = SpatialIndex(), geometry_oracle.SpatialIndex()
    points = []
    for k in (-500_000, -3, -1, 0, 1, 2, 499_999):
        for frac in (0.0, 0.5, 1.0 - 1e-12):
            x = (k + frac) * 2 * TOL
            for y in (0.0, x, -x, 0.3):
                points += [complex(x, y), complex(y, x)]
    for payload, w in enumerate(points):
        new.insert(w, payload)
        old.insert(w, payload)
    probed = 0
    for w in points:
        for scale in (1 - 1e-9, 1 + 1e-9):
            for t in range(8):
                z = w + cmath.rect(TOL * scale, t * cmath.pi / 4)
                want = _distance(points, z, _brute_find(points, z))
                assert _distance(points, z, new.find(z)) == want, z
                assert _distance(points, z, old.find(z)) == want, z
                probed += want is not None
    assert probed > len(points) * 4
