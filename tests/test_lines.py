"""Zig-zag walks and the mid-point lines they carry (odd q only)."""

import math

import pytest

import geometry_oracle
from hypq.disc import angle_at, hyp_distance, hyp_midpoint, tile_metrics
from hypq.errors import UnsupportedCase
from hypq.lines import h_midpoint_line, zigzag_line
from hypq.schlafli import validate
from hypq.tiling import tessellate


def test_even_q_is_rejected():
    with pytest.raises(UnsupportedCase):
        zigzag_line(validate(5, 4), steps=2)
    with pytest.raises(UnsupportedCase):
        h_midpoint_line(validate(6, 4), steps=2)


def test_step_validation():
    with pytest.raises(ValueError):
        zigzag_line(validate(5, 7), steps=-1)
    with pytest.raises(ValueError):
        h_midpoint_line(validate(5, 7), steps=0)


def test_zigzag_edges_have_tile_length():
    # long walks on large tiles hug the disc rim where coordinates lose
    # precision, so the step count shrinks with the tile size
    for p, q, steps in [(4, 5, 6), (5, 7, 5), (7, 9, 2)]:
        pair = validate(p, q)
        want = 2 * tile_metrics(pair).half_edge
        path = zigzag_line(pair, steps=steps)
        assert len(path.edges) == steps + 1
        for a, b in path.edges:
            assert abs(hyp_distance(a, b) - want) < 1e-9


def test_zigzag_turn_angles_alternate():
    for p, q in [(4, 5), (5, 7)]:
        pair = validate(p, q)
        path = zigzag_line(pair, steps=5)
        want = pair.h * 2 * math.pi / q
        assert abs(path.turn_angle - want) < 1e-12
        for (a, b), (_, c) in zip(path.edges, path.edges[1:]):
            assert abs(angle_at(b, a, c) - want) < 1e-9
        # consecutive edges chain head to tail
        for (_, b), (b2, _) in zip(path.edges, path.edges[1:]):
            assert abs(b - b2) < 1e-12


def test_zigzag_walks_on_tessellation_edges():
    # the walk starts on edge 0 of the base tile and every later edge is
    # a real edge of the tessellation
    pair = validate(4, 5)
    tess = tessellate(pair, 5)
    path = zigzag_line(pair, steps=3)
    for a, b in path.edges:
        tile, e = geometry_oracle.locate_edge(tess, a, b)
        ea, eb = tile.edge(e)
        assert min(abs(ea - a) + abs(eb - b), abs(ea - b) + abs(eb - a)) < 1e-6


def test_midpoints_land_on_one_geodesic():
    for p, q, steps in [(4, 5, 6), (5, 7, 6), (6, 9, 3)]:
        pair = validate(p, q)
        line = h_midpoint_line(pair, steps=steps)
        assert len(line.midpoints) == steps + 1
        assert max(line.residuals()) < 1e-9


def test_midpoints_are_the_edge_midpoints():
    pair = validate(5, 7)
    path = zigzag_line(pair, steps=4)
    line = h_midpoint_line(pair, steps=4)
    for m, e in zip(line.midpoints, path.edges):
        assert abs(m - hyp_midpoint(*e)) < 1e-12


def test_custom_start_edge():
    pair = validate(4, 5)
    tess = tessellate(pair, 1)
    start = tess.tiles[2].edge(1)
    line = h_midpoint_line(pair, start_edge=start, steps=5)
    assert max(line.residuals()) < 1e-9
    assert abs(line.midpoints[0] - hyp_midpoint(*start)) < 1e-12
