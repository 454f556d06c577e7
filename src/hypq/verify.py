"""Self-verification suite: the package checks its own headline claims.

Each check returns a named pass/fail result with a short detail line;
``run`` executes a scope (core, geometry, numeration, dual, or all) and
never raises, so a broken build reports the failing check by name
instead of a traceback.  The same functions back the test suite and
the ``verify`` subcommand.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

from . import polyint
from .disc import angle_at, base_tile, hyp_distance
from .dual import check_bijection, fibonacci_tree
from .errors import HypqError
from .lines import h_midpoint_line, zigzag_line
from .numeration import _survey, basis, decode, grow, represent_maximal
from .render import midlines_scene, render_svg
from .report import report_json
from .schlafli import (
    Region,
    Scheme,
    build_system,
    characteristic_polynomial,
    splitting_matrix,
    validate,
)
from .sectors import cover, cover_closure_residual
from .spectral import analyze
from .tiling import tessellate
from .tree import generate, max_depth_within_cap, recurrence_check

TOL = 1e-9

#: Desk ranges: every valid pair with p <= 12 and q <= 13.
EVEN_PAIRS = [
    (p, q)
    for p in range(4, 13)
    for q in (4, 6, 8, 10, 12)
    if p * q > 2 * (p + q)
]
ODD_PAIRS = [(p, q) for p in range(4, 13) for q in (5, 7, 9, 11, 13)]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check(name: str):
    """Wrap a check body so failures surface as results, not tracebacks."""

    def deco(fn: Callable[[], str]) -> Callable[[], CheckResult]:
        def run() -> CheckResult:
            try:
                return CheckResult(name, True, fn())
            except (HypqError, AssertionError, ValueError) as exc:
                return CheckResult(name, False, str(exc) or repr(exc))

        run.check_name = name
        return run

    return deco


def _poly(pair, scheme) -> tuple[int, ...]:
    return characteristic_polynomial(
        splitting_matrix(build_system(pair, scheme))
    )


@_check("even-q polynomial identity")
def check_even_polynomials() -> str:
    for p, q in EVEN_PAIRS:
        pair = validate(p, q)
        h = pair.h
        want = (1, -((p - 3) * (h - 1) + 1), -(h - 3))
        got = _poly(pair, Scheme.EVEN_Q)
        assert got == want, f"{pair}: {got} != {want}"
    return f"{len(EVEN_PAIRS)} pairs match the closed form exactly"


@_check("odd-q polynomial identities")
def check_odd_polynomials() -> str:
    for p, q in ODD_PAIRS:
        pair = validate(p, q)
        h = pair.h
        f = (p - 3) * (h - 1)
        g = (p - 2) * (h - 1) - 2
        cubic = (1, -(f + 1), -g, -(h - 3))
        got1 = _poly(pair, Scheme.ODD_V1)
        assert got1 == cubic, f"{pair} first variant: {got1} != {cubic}"
        quad = (1, -(2 * f + 1), -(2 * h - 6))
        rewrite = (1, -((p - 3) * (q - 3) + 1), -(q - 7))
        assert quad == rewrite, f"{pair}: rewrite disagrees"
        got2 = _poly(pair, Scheme.ODD_V2)
        assert got2 == quad, f"{pair} second variant: {got2} != {quad}"
    return f"{len(ODD_PAIRS)} pairs match both closed forms exactly"


@_check("odd-q spot values and reductions")
def check_spot_values() -> str:
    for p, q in ODD_PAIRS:
        pair = validate(p, q)
        h = pair.h
        cubic = _poly(pair, Scheme.ODD_V1)
        assert polyint.eval_at(cubic, -1) == -2, f"{pair}: P(-1) != -2"
        assert polyint.eval_at(cubic, 0) == -h + 3, f"{pair}: P(0) != -h+3"
        if h == 2:
            want = (1, -(p - 2), -(p - 4), 1)
            assert cubic == want, f"{pair}: h=2 form {cubic} != {want}"
        if h == 3:
            reduced = polyint.divide_exact(cubic, (1, 0))
            want = (1, -(2 * p - 5), -(2 * p - 6))
            assert reduced == want, f"{pair}: h=3 reduction {reduced} != {want}"
        if p == 4:
            want = (1, -h, -2 * (h - 2), -h + 3)
            assert cubic == want, f"{pair}: p=4 form {cubic} != {want}"
    return f"{len(ODD_PAIRS)} cubics hit every spot value"


def _desk_cases():
    for p, q in EVEN_PAIRS:
        yield validate(p, q), Scheme.EVEN_Q
    for p, q in ODD_PAIRS:
        yield validate(p, q), Scheme.ODD_V1
        yield validate(p, q), Scheme.ODD_V2


@_check("regularity verdict table")
def check_verdicts() -> str:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    r1 = analyze(validate(4, 5), Scheme.ODD_V1)
    assert r1.polynomial == (1, -2, 0, 1), r1.polynomial
    core = polyint.divide_exact(r1.polynomial, (1, -1))
    assert core == (1, -1, -1), f"dividing out the root 1 left {core}"
    assert any(r.exact == 1 for r in r1.roots.roots), "no exact root 1"
    assert abs(r1.beta - phi) < TOL, r1.beta
    assert not r1.regular and not r1.pisot

    r2 = analyze(validate(4, 5), Scheme.ODD_V2)
    assert r2.polynomial == (1, -3, 2), r2.polynomial
    assert polyint.divide_exact(r2.polynomial, (1, -1)) == (1, -2)
    assert not r2.regular and not r2.pisot

    others = 0
    for pair, scheme in _desk_cases():
        if (pair.p, pair.q) == (4, 5):
            continue
        rep = analyze(pair, scheme)
        assert rep.regular, f"{pair} {scheme.tag}: expected regular"
        others += 1
    return f"{{4,5}} fails as required, {others} other cases regular"


#: (pair, scheme) list for the explicit tree equivalence check.
TREE_CASES = [
    ((5, 4), Scheme.EVEN_Q),
    ((6, 4), Scheme.EVEN_Q),
    ((5, 7), Scheme.ODD_V1),
    ((4, 7), Scheme.ODD_V1),
    ((5, 7), Scheme.ODD_V2),
    ((4, 5), Scheme.ODD_V1),
]


@_check("tree level counts obey the recurrence")
def check_tree_recurrence() -> str:
    details = []
    for (p, q), scheme in TREE_CASES:
        pair = validate(p, q)
        system = build_system(pair, scheme)
        depth = min(8, max_depth_within_cap(system))
        poly = characteristic_polynomial(splitting_matrix(system))
        counts = generate(system, depth).level_counts()
        assert recurrence_check(counts, poly), (
            f"{pair} {scheme.tag}: counts {counts} break the recurrence"
        )
        details.append(f"{pair}@{depth}")
    return "exact for " + ", ".join(details)


@_check("pentagrid counts match the two-son/three-son tree")
def check_fibonacci_counts() -> str:
    depth = 12
    pair = validate(5, 4)
    system = build_system(pair, Scheme.EVEN_Q)
    splitting = generate(system, depth).level_counts()
    fib = fibonacci_tree(depth).level_counts()
    assert splitting == fib, f"{splitting} != {fib}"
    assert splitting[:6] == [1, 3, 8, 21, 55, 144], splitting[:6]
    return f"equal through depth {depth}: {splitting[:5]}..."


@_check("numeration round-trip and maximality")
def check_numeration() -> str:
    cases = 0
    for pair, scheme in _desk_cases():
        rep = analyze(pair, scheme)
        if not rep.regular:
            continue
        seq = basis(pair, scheme, 8)
        b = rep.digit_bound
        assert seq.digit_bound == b
        small = []
        for v in range(10001):
            r = represent_maximal(v, seq)
            assert decode(r.digits, seq) == v, f"{pair} {scheme.tag}: {v}"
            assert all(0 <= d <= b for d in r.digits)
            if v <= 2000:
                small.append(r.digits)
        # a string of a value <= 2000 has at most this many digits
        horizon = bisect_right(grow(seq, 13).terms, 2000)
        brute = _survey(seq, b, horizon, 2000)
        for v in range(1, 2001):
            want = brute[v][0] if v in brute else None
            assert small[v] == want, (
                f"{pair} {scheme.tag}: value {v} maximal string {small[v]}, "
                f"brute force says {want}"
            )
        cases += 1
    return f"{cases} regular cases, 0..10000 round-trip, 0..2000 brute-forced"


GEOMETRY_PAIRS = [(5, 4), (4, 5), (5, 7)]


@_check("disc geometry invariants")
def check_geometry() -> str:
    rng = random.Random(20260815)
    for p, q in GEOMETRY_PAIRS:
        pair = validate(p, q)
        tile = base_tile(pair)
        refl = [tile.edge_geodesic(i).reflection() for i in range(p)]
        for _ in range(100):
            u = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            v = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            R = refl[rng.randrange(p)]
            assert abs(R(R(u)) - u) < TOL, f"{pair}: reflection not involutive"
            assert abs(hyp_distance(R(u), R(v)) - hyp_distance(u, v)) < TOL

        want = 2.0 * math.pi / q
        for k in range(p):
            got = angle_at(
                tile.vertices[k],
                tile.vertices[(k - 1) % p],
                tile.vertices[(k + 1) % p],
            )
            assert abs(got - want) < TOL, f"{pair}: interior angle {got}"

        tess = tessellate(pair, 3)
        # the far side of a vertex ring sits q//2 reflections from the
        # vertex's oldest tile, so only sufficiently old tiles have
        # provably complete rings at this depth
        ripe = 3 - q // 2
        sample = 0
        for z, tile_ids in tess.vertex_groups():
            if all(tess.tiles[t].generation > ripe for t in tile_ids):
                continue
            assert len(tile_ids) == q, (
                f"{pair}: vertex at {z:.3f} has {len(tile_ids)} tiles"
            )
            sample += 1
        assert sample > 0, f"{pair}: no ripe vertices at depth 3"

    for p, q in [(4, 5), (5, 7)]:
        pair = validate(p, q)
        ml = h_midpoint_line(pair, steps=6)
        assert len(ml.midpoints) >= 5
        worst = max(ml.residuals())
        assert worst < TOL, f"{pair}: mid-point residual {worst}"

        zz = zigzag_line(pair, steps=6)
        want = pair.h * 2.0 * math.pi / q
        for (a, b), (b2, c) in zip(zz.edges, zz.edges[1:]):
            got = angle_at(b, a, c)
            assert abs(got - want) < TOL, f"{pair}: zig-zag angle {got}"
    return "involution, isometry, angles, closure, mid-points, zig-zag all inside 1e-9"


@_check("sector covers close up")
def check_sector_covers() -> str:
    pair = validate(5, 7)
    c1 = cover(pair, Scheme.ODD_V1, Region.S0)
    assert len(c1) == pair.q
    r1 = cover_closure_residual(c1)
    assert r1 < TOL, f"first odd scheme residual {r1}"
    c2 = cover(pair, Scheme.ODD_V2, Region.S0_PRIME)
    assert len(c2) == 2 * pair.q
    r2 = cover_closure_residual(c2)
    assert r2 < TOL, f"second odd scheme residual {r2}"
    return f"q and 2q copies close within {max(r1, r2):.2e}"


@_check("dual vertex numbering is a bijection")
def check_dual() -> str:
    rep = check_bijection(3)
    assert not rep.doubly_assigned, f"{len(rep.doubly_assigned)} doubled"
    want_nodes = 1 + 3 + 8 + 21
    assert len(rep.covered) == want_nodes, (
        f"covered {len(rep.covered)} of {want_nodes} nodes"
    )
    assert rep.excluded, "no excluded vertices found"
    assert rep.apex in rep.excluded, "sector vertex not excluded"
    assert rep.right_ray_residual < TOL, (
        f"excluded vertex off the right ray by {rep.right_ray_residual}"
    )
    return (
        f"{len(rep.covered)} vertices once each, {len(rep.excluded)} on the "
        f"right ray within {rep.right_ray_residual:.2e}"
    )


@_check("deterministic outputs")
def check_determinism() -> str:
    pair = validate(5, 7)
    a1 = report_json(analyze(pair, Scheme.ODD_V1))
    a2 = report_json(analyze(pair, Scheme.ODD_V1))
    assert a1 == a2, "analysis JSON differs between runs"

    system = build_system(validate(5, 4), Scheme.EVEN_Q)
    t1 = generate(system, 6).level_counts()
    t2 = generate(system, 6).level_counts()
    assert t1 == t2, "tree counts differ between runs"

    s1 = render_svg(midlines_scene(pair, 2))
    s2 = render_svg(midlines_scene(pair, 2))
    assert s1 == s2, "rendering differs between runs"
    return "analyze, tree and render byte-identical on reruns"


SCOPES: dict[str, list] = {
    "core": [
        check_even_polynomials,
        check_odd_polynomials,
        check_spot_values,
        check_verdicts,
        check_tree_recurrence,
        check_fibonacci_counts,
    ],
    "numeration": [check_numeration],
    "geometry": [check_geometry, check_sector_covers],
    "dual": [check_dual],
}
SCOPES["all"] = (
    SCOPES["core"]
    + SCOPES["geometry"]
    + SCOPES["numeration"]
    + SCOPES["dual"]
    + [check_determinism]
)


def run(scope: str = "all") -> list[CheckResult]:
    if scope not in SCOPES:
        raise ValueError(
            f"unknown scope {scope!r}; pick one of {sorted(SCOPES)}"
        )
    return [fn() for fn in SCOPES[scope]]


def summarize(results: list[CheckResult]) -> tuple[str, bool]:
    lines = [
        f"{'PASS' if r.ok else 'FAIL'}  {r.name}: {r.detail}" for r in results
    ]
    good = sum(r.ok for r in results)
    lines.append(f"{good}/{len(results)} checks passed")
    return "\n".join(lines), good == len(results)
