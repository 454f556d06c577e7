"""Sector wedges around a vertex: covers, and through the membership
oracle, partitions and fans."""

import hashlib
import math
from collections import Counter

import pytest

import geometry_oracle
from hypq import sectors, verify
from hypq.disc import base_tile, hyp_distance, point_at
from hypq.errors import SchemeParityMismatch, UnsupportedCase
from hypq.schlafli import Region, Scheme, validate
from hypq.sectors import cover, cover_closure_residual, cover_size
from hypq.tiling import tessellate

Membership = geometry_oracle.Membership

TOL = 1e-9


def test_scheme_guards():
    five_seven = validate(5, 7)
    with pytest.raises(SchemeParityMismatch):
        cover(validate(5, 4), Scheme.ODD_V1, Region.S0)
    with pytest.raises(SchemeParityMismatch):
        cover(five_seven, Scheme.EVEN_Q, Region.S0)
    with pytest.raises(UnsupportedCase):
        cover(five_seven, Scheme.ODD_LEGACY, Region.S0)
    with pytest.raises(UnsupportedCase):
        cover(five_seven, Scheme.ODD_V1, Region.S1)
    with pytest.raises(UnsupportedCase):
        cover(validate(5, 4), Scheme.EVEN_Q, Region.S0_PRIME)
    with pytest.raises(UnsupportedCase):
        cover(five_seven, Scheme.ODD_V2, Region.S0)


def test_cover_sizes():
    assert cover_size(validate(5, 4), Scheme.EVEN_Q) == 4
    assert cover_size(validate(5, 7), Scheme.ODD_V1) == 7
    assert cover_size(validate(5, 7), Scheme.ODD_V2) == 14
    assert len(cover(validate(4, 5), Scheme.ODD_V2, Region.S0_PRIME)) == 10


COVERS = [
    (5, 4, Scheme.EVEN_Q, Region.S0, 0.5),
    (6, 4, Scheme.EVEN_Q, Region.S0, 0.5),
    (8, 6, Scheme.EVEN_Q, Region.S0, 0.5),
    (5, 7, Scheme.ODD_V1, Region.S0, 2.0),
    (4, 5, Scheme.ODD_V1, Region.S0, 1.0),
    (5, 7, Scheme.ODD_V2, Region.S0_PRIME, 4.0),
    (4, 5, Scheme.ODD_V2, Region.S0_PRIME, 2.0),
]

_ONCE = (720, 0, 1, 1, 0)

#: ring_census (samples, skipped, min_hits, max_hits, uncovered) of each
#: COVERS entry at radii 0.3, 1.0 and 2.5, then at the entry's own radius
CENSUS = {
    (5, 4, Scheme.EVEN_Q): [_ONCE] * 4,
    (6, 4, Scheme.EVEN_Q): [_ONCE] * 4,
    (8, 6, Scheme.EVEN_Q): [_ONCE] * 4,
    (5, 7, Scheme.ODD_V1): [(720, 0, 1, 2, 0), (720, 0, 1, 2, 0), _ONCE, _ONCE],
    (4, 5, Scheme.ODD_V1): [(720, 0, 1, 2, 0), _ONCE, _ONCE, _ONCE],
    (5, 7, Scheme.ODD_V2): [
        (720, 0, 1, 3, 0), (720, 0, 1, 5, 0), (720, 0, 1, 2, 0), _ONCE
    ],
    (4, 5, Scheme.ODD_V2): [(720, 0, 1, 3, 0), (720, 0, 1, 3, 0), _ONCE, _ONCE],
}


#: SHA-256 of repr(cover(...)) for the covers the geometry benchmark runs.
PINNED_COVERS = {
    (5, 4, Scheme.EVEN_Q, Region.S0):
        "0bc34d5fadf05b72fd5632cd64edb638a379216bc2b359313179e6d5a7432c99",
    (6, 4, Scheme.EVEN_Q, Region.S0):
        "43528e330f66043c4715699cbbb93567e0a9c6e02453f65a573514271fb973ac",
    (8, 8, Scheme.EVEN_Q, Region.S0):
        "0d3999d6de1181825823f9ec4e9d076b986f870c0189ddf10ccf3fcb0c00b1e7",
    (4, 5, Scheme.ODD_V1, Region.S0):
        "5d4f093c81d9fa353f0ac029084cd66e08ab7ddd475aab97e26180ef6cbdcc3e",
    (4, 5, Scheme.ODD_V2, Region.S0_PRIME):
        "69d53b0e215f17db2af8bb78c2b90024f1706659025cf37d38cefd6b02456a26",
    (5, 7, Scheme.ODD_V1, Region.S0):
        "a93bb8b2d52b55d7fcc791457d35af71a325ebe601da6dc65af09ebf5a349511",
    (5, 7, Scheme.ODD_V2, Region.S0_PRIME):
        "ce590f5bab91b82df6efe855f1f8a3881467f027fe47a0be6bd12765e6c93244",
}


@pytest.mark.parametrize("p,q,scheme,kind", PINNED_COVERS)
def test_cover_bytes_are_pinned(p, q, scheme, kind):
    cov = cover(validate(p, q), scheme, kind)
    digest = hashlib.sha256(repr(cov).encode()).hexdigest()
    assert digest == PINNED_COVERS[p, q, scheme, kind]


@pytest.mark.parametrize("p,q,scheme,kind", PINNED_COVERS)
def test_rays_run_into_the_end_the_angle_rule_picks(p, q, scheme, kind):
    for copy in cover(validate(p, q), scheme, kind):
        for ray in copy.rays:
            assert ray.ideal_endpoint() == geometry_oracle.ray_to_ideal(ray)


def test_a_cover_builds_one_frame(monkeypatch):
    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(sectors, "_frame", counted(sectors._frame))
    monkeypatch.setattr(sectors, "base_tile", counted(sectors.base_tile))
    monkeypatch.setattr(sectors, "geodesic_through", counted(sectors.geodesic_through))
    for p, q, scheme, kind in PINNED_COVERS:
        calls.clear()
        n = len(cover(validate(p, q), scheme, kind))
        # one line per ray, and no other
        want = {"_frame": 1, "base_tile": 1, "geodesic_through": 2 * n}
        assert calls == want, (p, q, scheme)


@pytest.mark.parametrize("p,q,scheme,kind,radius", COVERS)
def test_cover_closes_up(p, q, scheme, kind, radius):
    cov = cover(validate(p, q), scheme, kind)
    assert cover_closure_residual(cov) < TOL


@pytest.mark.parametrize("p,q,scheme,kind,radius", COVERS)
def test_cover_is_a_cover_at_every_radius(p, q, scheme, kind, radius):
    cov = cover(validate(p, q), scheme, kind)
    for r, want in zip((0.3, 1.0, 2.5), CENSUS[p, q, scheme]):
        census = geometry_oracle.ring_census(cov, cov[0].vertex, r)
        assert census == want, r
        _, _, min_hits, _, uncovered = census
        assert uncovered == 0 and min_hits >= 1


@pytest.mark.parametrize("p,q,scheme,kind,radius", COVERS)
def test_cover_partitions_beyond_the_corner_zone(p, q, scheme, kind, radius):
    # near the vertex the corner patches and crossing walls overlap by
    # design; past that zone every direction is covered exactly once
    cov = cover(validate(p, q), scheme, kind)
    census = geometry_oracle.ring_census(cov, cov[0].vertex, radius)
    assert census == CENSUS[p, q, scheme][3] == _ONCE


def test_sectors_contain_their_witness():
    for p, q, scheme, kind, _ in COVERS:
        for s in cover(validate(p, q), scheme, kind):
            copy = Membership(s)
            assert copy.contains(s.witness)
            assert copy.clearance(s.witness) > 0


def test_single_head_copies_partition_the_tiles():
    # every tile of the tessellation belongs to exactly one copy for the
    # schemes whose copies are headed by whole tiles
    for p, q, scheme in [
        (5, 4, Scheme.EVEN_Q),
        (5, 7, Scheme.ODD_V1),
        (4, 5, Scheme.ODD_V1),
    ]:
        pair = validate(p, q)
        kind = Region.S0
        copies = [Membership(s) for s in cover(pair, scheme, kind)]
        for tile in tessellate(pair, 2).tiles:
            assert sum(c.owns(tile) for c in copies) == 1, (p, q, tile.id)


def test_doubled_copies_split_the_near_vertex_tiles():
    # the doubled odd variant cuts each tile at the vertex between two
    # adjacent copies, so those tiles belong to no single copy; every
    # other tile lands in exactly one, and none in two
    for p, q, owned, split in [(5, 7, 21, 5), (4, 5, 10, 7)]:
        pair = validate(p, q)
        cov = cover(pair, Scheme.ODD_V2, Region.S0_PRIME)
        copies = [Membership(s) for s in cov]
        V = cov[0].vertex
        owners = Counter()
        unassigned = []
        for tile in tessellate(pair, 2).tiles:
            n = sum(c.owns(tile) for c in copies)
            owners[n] += 1
            assert n <= 1, (p, q, tile.id)
            if n == 0:
                unassigned.append(tile)
        assert owners == {1: owned, 0: split}, (p, q)
        assert all(hyp_distance(t.center, V) < 3.0 for t in unassigned)


def test_even_sector_reproduces_the_tree_counts():
    # tiles per generation inside one even-q copy follow the splitting
    # counts: the geometric and the combinatorial pictures agree
    pair = validate(5, 4)
    s = Membership(cover(pair, Scheme.EVEN_Q, Region.S0)[0])
    per_gen = Counter()
    for tile in tessellate(pair, 4).tiles:
        if s.owns(tile):
            per_gen[tile.generation] += 1
    assert [per_gen[g] for g in range(5)] == [1, 3, 8, 21, 55]


@pytest.mark.parametrize("p,q", [(5, 7), (4, 5)])
def test_fan_at_the_head_vertex(p, q):
    # inside one S0 copy, the excluded vertex at the far end of the head
    # edge carries the head plus a fan of h-1 tiles, each protruding by
    # exactly one vertex
    pair = validate(p, q)
    head = base_tile(pair)
    w = head.vertices[-1]
    s0 = Membership(cover(pair, Scheme.ODD_V1, Region.S0)[0])
    members = []
    for tile in tessellate(pair, 2).tiles:
        if min(abs(v - w) for v in tile.vertices) > 1e-9:
            continue
        if s0.owns(tile):
            outside = sum(not s0.contains(v) for v in tile.vertices)
            members.append((tile.id, outside))
    assert (0, 1) in members  # the head itself pivots there
    fan = [m for m in members if m[0] != 0]
    assert len(fan) == pair.h - 1
    assert all(outside == 1 for _, outside in fan)


def test_odd_v1_prime_wedge_nests_inside_s0():
    pair = validate(5, 7)
    s0 = Membership(cover(pair, Scheme.ODD_V1, Region.S0)[0])
    sp_sector = cover(pair, Scheme.ODD_V1, Region.S0_PRIME)[0]
    sp = Membership(sp_sector)
    checked = 0
    for i in range(720):
        ang = 2 * math.pi * (i + 0.5) / 720
        for r in (0.3, 0.9, 1.8, 3.0):
            z = point_at(sp_sector.vertex, complex(math.cos(ang), math.sin(ang)), r)
            if sp.contains(z, tol=-1e-6):
                assert s0.contains(z), z
                checked += 1
    assert checked > 100


def test_copies_share_the_vertex_and_rotate():
    pair = validate(5, 7)
    cov = cover(pair, Scheme.ODD_V1, Region.S0)
    # all copies of the one-head odd scheme pivot on the same vertex
    assert all(abs(s.vertex - cov[0].vertex) < 1e-12 for s in cov)
    # witnesses are the q distinct tile centers around it
    witnesses = [s.witness for s in cov]
    for i, a in enumerate(witnesses):
        assert abs(hyp_distance(a, cov[0].vertex) - hyp_distance(0j, cov[0].vertex)) < 1e-9
        for b in witnesses[i + 1 :]:
            assert abs(a - b) > 1e-6


#: The regions each scheme covers the plane with.
_KINDS = {
    Scheme.EVEN_Q: (Region.S0,),
    Scheme.ODD_V1: (Region.S0, Region.S0_PRIME),
    Scheme.ODD_V2: (Region.S0_PRIME,),
}


def test_closure_residual_matches_the_object_oracle():
    # every desk cover, to the bit: the per-ray axis maps, probes and
    # headings are hoisted out of the pairing loop
    checked = 0
    for pair, scheme in verify._desk_cases():
        for kind in _KINDS[scheme]:
            cov = cover(pair, scheme, kind)
            want = geometry_oracle.cover_closure_residual(cov)
            assert cover_closure_residual(cov).hex() == want.hex(), (pair, scheme, kind)
            checked += 1
    assert checked == 44 + 45 * 3
