"""Poincare-disc primitives: metric, isometries, geodesics, tiles."""

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import geometry_oracle
from hypq.disc import (
    GEOM_TOL,
    angle_at,
    base_tile,
    direction_toward,
    geodesic_through,
    hyp_distance,
    hyp_midpoint,
    point_at,
    reflect_tile,
    rotation,
    tile_metrics,
    translate_to,
)
from hypq.errors import PrecisionExhausted
from hypq.schlafli import validate

points = st.complex_numbers(
    max_magnitude=0.85, allow_nan=False, allow_infinity=False
)


def test_hyp_distance_basics():
    assert hyp_distance(0j, 0j) == 0.0
    # distance from the origin is 2 artanh r
    for r in (0.1, 0.5, 0.9):
        assert abs(hyp_distance(0j, r) - 2 * math.atanh(r)) < 1e-12
    # nearby points keep their distance, 2 |dz| / (1 - |z|^2)
    assert hyp_distance(0j, 1e-9) == pytest.approx(2e-9, rel=1e-12)
    assert hyp_distance(0.5, 0.5 + 1e-9j) == pytest.approx(2e-9 / 0.75, rel=1e-6)


@given(points, points)
def test_hyp_distance_symmetric(u, v):
    assert abs(hyp_distance(u, v) - hyp_distance(v, u)) < 1e-9
    assert hyp_distance(u, v) >= 0


@given(points, points, points)
def test_hyp_distance_triangle_inequality(u, v, w):
    assert hyp_distance(u, w) <= hyp_distance(u, v) + hyp_distance(v, w) + 1e-9


def test_tile_metrics_right_triangle():
    # circumradius, inradius and half edge form a right hyperbolic
    # triangle with acute angles pi/p and pi/q
    for p, q in [(5, 4), (4, 5), (5, 7), (8, 6)]:
        m = tile_metrics(validate(p, q))
        assert m.circumradius > m.inradius > 0
        assert m.circumradius > m.half_edge > 0
        lhs = math.cosh(m.circumradius)
        assert abs(lhs - math.cosh(m.inradius) * math.cosh(m.half_edge)) < 1e-12
        assert abs(lhs - 1 / (math.tan(math.pi / p) * math.tan(math.pi / q))) < 1e-12
        assert abs(math.cosh(m.inradius) - math.cos(math.pi / q) / math.sin(math.pi / p)) < 1e-12
        assert abs(math.cosh(m.half_edge) - math.cos(math.pi / p) / math.sin(math.pi / q)) < 1e-12


@given(points, points)
def test_translate_to_moves_origin(v, w):
    g = translate_to(v)
    assert abs(g(0j) - v) < 1e-12
    assert abs(hyp_distance(g(0j), g(w)) - hyp_distance(0j, w)) < 1e-9
    back = g.inverse()
    assert abs(back(g(w)) - w) < 1e-9


@given(points, st.floats(0, 2 * math.pi))
def test_rotation_preserves_distance_from_center(z, ang):
    rot = rotation(ang, about=0.3 + 0.1j)
    assert abs(hyp_distance(rot(z), 0.3 + 0.1j) - hyp_distance(z, 0.3 + 0.1j)) < 1e-9


def test_isometry_compose_and_inverse():
    a = rotation(1.0, about=0.2j)
    b = translate_to(0.4 - 0.1j)
    c = a.compose(b)
    for z in (0j, 0.5, -0.3 + 0.4j):
        assert abs(c(z) - a(b(z))) < 1e-12
        assert abs(c.inverse()(c(z)) - z) < 1e-12


def test_point_at_and_direction():
    z = point_at(0j, 1 + 0j, 1.0)
    assert abs(z - math.tanh(0.5)) < 1e-12
    assert abs(hyp_distance(0j, z) - 1.0) < 1e-12
    d = direction_toward(0j, 0.5j)
    assert abs(d - 1j) < 1e-12
    # moving from v toward w by the full distance lands on w
    v, w = 0.3 + 0.2j, -0.1 + 0.5j
    assert abs(point_at(v, direction_toward(v, w), hyp_distance(v, w)) - w) < 1e-9


def test_hyp_midpoint():
    v, w = 0.6, -0.6
    m = hyp_midpoint(v, w)
    assert abs(m) < 1e-12
    v, w = 0.5 + 0.2j, -0.3 + 0.4j
    m = hyp_midpoint(v, w)
    assert abs(hyp_distance(v, m) - hyp_distance(m, w)) < 1e-9
    assert abs(hyp_distance(v, m) - hyp_distance(v, w) / 2) < 1e-9
    # a far end that rounds onto the unit circle has no midpoint
    with pytest.raises(PrecisionExhausted, match="double precision ran out"):
        hyp_midpoint(0.5, 1.0)


def test_angle_at_right_angle():
    assert abs(angle_at(0j, 0.5, 0.5j) - math.pi / 2) < 1e-12
    # angles are conformal: the same construction off-center
    v = 0.3 + 0.1j
    a = point_at(v, cmath.exp(0.3j), 0.7)
    b = point_at(v, cmath.exp(0.3j + math.pi / 3 * 1j), 0.9)
    assert abs(angle_at(v, a, b) - math.pi / 3) < 1e-9


def test_geodesic_through_diameter_and_arc():
    d = geodesic_through(-0.5 + 0j, 0.5 + 0j)
    assert d.center is None  # a diameter
    e1, e2 = d.ideal_endpoints()
    assert abs(abs(e1) - 1) < 1e-12 and abs(abs(e2) - 1) < 1e-12

    g = geodesic_through(0.5, 0.5j)
    assert g.center is not None  # an arc
    # orthogonality to the unit circle: |c|^2 = r^2 + 1
    assert abs(abs(g.center) ** 2 - g.radius**2 - 1) < 1e-12
    assert abs(g.signed_distance(0.5)) < GEOM_TOL
    assert abs(g.signed_distance(0.5j)) < GEOM_TOL
    for e in g.ideal_endpoints():
        assert abs(abs(e) - 1) < 1e-12
        assert abs(abs(e - g.center) - g.radius) < 1e-12


def test_geodesic_signed_distance_and_reflection():
    g = geodesic_through(0.5, 0.5j)
    refl = g.reflection()
    for z in (0j, 0.2 + 0.1j, -0.4j):
        assert abs(refl(refl(z)) - z) < 1e-12
        # reflection swaps the sides and preserves the magnitude
        assert abs(g.signed_distance(refl(z)) + g.signed_distance(z)) < 1e-9
    assert abs(g.signed_distance(0.5)) < 1e-12


@given(points, points)
def test_geodesic_through_contains_both(u, v):
    if abs(u - v) < 1e-3:
        return
    g = geodesic_through(u, v)
    assert abs(g.signed_distance(u)) < 1e-7
    assert abs(g.signed_distance(v)) < 1e-7
    # the signed distance is the hyperbolic distance to the line
    axis = g.to_axis()
    for z in (u, v):
        assert abs(axis(z).imag) < 1e-6 or abs(g.signed_distance(z)) < 1e-6


def test_axis_model_of_geodesic():
    g = geodesic_through(0.3 + 0.4j, -0.2 + 0.35j)
    axis = g.to_axis()
    # to_axis sends the line to the real diameter
    assert abs(axis(0.3 + 0.4j).imag) < 1e-9
    assert abs(axis(-0.2 + 0.35j).imag) < 1e-9


@given(points, points, points)
def test_axis_map_is_built_once_and_measures_distance(u, v, z):
    # a line keeps its axis map; signed_distance reads that map and
    # agrees to the bit with the distance computed from it afresh
    if abs(u - v) < 1e-3:
        return
    for g in (geodesic_through(u, v), geodesic_through(-0.5 + 0j, 0.5 + 0j)):
        assert g.to_axis() is g.to_axis()
        want = geometry_oracle._signed_distance(g, z)
        assert g.signed_distance(z).hex() == want.hex()


def test_geodesic_validation():
    with pytest.raises(ValueError):
        geodesic_through(0.5, 0.5)  # same point
    # two points hugging the rim: the arc center solves inside the unit
    # circle, which is a typed precision failure, not a line
    hug = 1.0 - 1e-12
    near = (0.6 + 0.8j) * hug
    with pytest.raises(PrecisionExhausted, match="outside the unit circle"):
        geodesic_through(near, cmath.exp(1j * (cmath.phase(near) + 1e-9)) * hug)


def test_base_tile_shape():
    for p, q in [(5, 4), (4, 5), (5, 7)]:
        pair = validate(p, q)
        tile = base_tile(pair)
        m = tile_metrics(pair)
        assert len(tile.vertices) == p
        assert tile.center == 0j
        # first vertex on the positive real axis, the rest by rotation
        assert tile.vertices[0].imag == pytest.approx(0.0, abs=1e-12)
        assert tile.vertices[0].real > 0
        for v in tile.vertices:
            assert abs(hyp_distance(0j, v) - m.circumradius) < 1e-9
        for i in range(p):
            e = tile.edge(i)
            assert abs(hyp_distance(*e) - 2 * m.half_edge) < 1e-9
            mid = hyp_midpoint(*e)
            assert abs(hyp_distance(0j, mid) - m.inradius) < 1e-9
            v, before, after = tile.vertices[i], tile.vertices[i - 1], e[1]
            assert abs(angle_at(v, before, after) - 2 * math.pi / q) < 1e-9
        # vertices run counter-clockwise
        area = sum(
            (a.real * b.imag - a.imag * b.real)
            for a, b in zip(tile.vertices, tile.vertices[1:] + tile.vertices[:1])
        )
        assert area > 0


def test_reflect_tile_neighbors():
    pair = validate(5, 4)
    tile = base_tile(pair)
    image = reflect_tile(tile, 2, new_id=1)
    # shares the reflected edge, vertex for vertex
    a, b = tile.edge(2)
    ia, ib = image.edge(0)
    assert sorted((a, b), key=lambda z: (z.real, z.imag)) == pytest.approx(
        sorted((ia, ib), key=lambda z: (z.real, z.imag))
    )
    assert image.generation == tile.generation + 1
    assert image.id == 1
    # reflecting back across the shared edge restores the center
    back = reflect_tile(image, 0, new_id=2)
    assert abs(back.center - tile.center) < 1e-9
    # edge lengths survive the reflection
    for i in range(5):
        assert abs(
            hyp_distance(*image.edge(i)) - hyp_distance(*tile.edge(i))
        ) < 1e-9
