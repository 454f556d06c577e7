"""Zig-zag walks and the mid-point lines they carry (odd q only)."""

import math

import pytest

import geometry_oracle
from hypq.disc import angle_at, hyp_distance, hyp_midpoint, tile_metrics
from hypq.errors import PrecisionExhausted, UnsupportedCase
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


def test_walks_refuse_points_off_the_open_disc():
    # the walk stops at the first edge end that rounds onto the unit
    # circle; the mid-point line names the step whose mid-point cannot
    # be taken
    with pytest.raises(PrecisionExhausted, match=r"\{5,117\} zig-zag walk: step 4 "):
        h_midpoint_line(validate(5, 117), steps=4)
    with pytest.raises(PrecisionExhausted, match=r"\{14,15\} zig-zag walk: step 8 "):
        zigzag_line(validate(14, 15), steps=8)
    with pytest.raises(PrecisionExhausted, match=r"\{63,189\} mid-point line: step 6: "):
        h_midpoint_line(validate(63, 189), steps=8)


def test_desk_walks_stay_inside_the_disc():
    # the guard leaves every desk walk alone: the farthest edge end
    # ({10,13}, 8 steps) is 3e-16 short of the unit circle
    worst = 0.0
    for p in range(4, 13):
        for q in (5, 7, 9, 11, 13):
            pair = validate(p, q)
            worst = max(worst, *(abs(b) for _, b in zigzag_line(pair, steps=8).edges))
            h_midpoint_line(pair, steps=4)
    assert 1.0 - 1e-15 < worst < 1.0
