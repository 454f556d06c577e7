"""Independent oracles for the benchmark's request outputs.

Every oracle reaches its answer by a route that shares no code with the
library path it checks: closed-form polynomials, direct counting of the
substitution rules, brute-force enumeration of digit strings, a fresh
grouping of tile vertices, and SVG parsing with ``xml.etree``.  Each
function returns ``None`` when the output is right and a short reason
when it is not.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from collections import defaultdict
from itertools import islice

SVG_NS = "{http://www.w3.org/2000/svg}"


def closed_form(p: int, q: int, tag: str) -> tuple[int, ...]:
    """The splitting polynomial of {p,q} under a scheme, from the paper."""
    h = q // 2
    if tag == "even-q":
        return (1, -((p - 3) * (h - 1) + 1), -(h - 3))
    f = (p - 3) * (h - 1)
    if tag == "odd-v1":
        return (1, -(f + 1), -((p - 2) * (h - 1) - 2), -(h - 3))
    if tag == "odd-v2":
        return (1, -(2 * f + 1), -(2 * h - 6))
    raise ValueError(f"no closed form for scheme {tag!r}")


def level_sizes(system):
    """Nodes on levels 0, 1, 2, ..., counted straight from the rule table."""
    rules = {r.parent: r.children for r in system.rules}
    level = {system.seed: 1}
    while True:
        yield sum(level.values())
        nxt: dict = defaultdict(int)
        for kind, n in level.items():
            for child, mult in rules[kind]:
                nxt[child] += n * mult
        level = nxt


def rule_counts(system, depth: int) -> list[int]:
    return list(islice(level_sizes(system), depth + 1))


def extend(poly: tuple[int, ...], terms: list[int], n: int) -> list[int]:
    """Continue terms to length n with the recurrence of a monic poly."""
    d = len(poly) - 1
    terms = list(terms)
    while len(terms) < n:
        terms.append(-sum(poly[i] * terms[-i] for i in range(1, d + 1)))
    return terms


def obeys(poly: tuple[int, ...], counts: list[int]) -> bool:
    d = len(poly) - 1
    return all(
        counts[n] == -sum(poly[i] * counts[n - i] for i in range(1, d + 1))
        for n in range(d, len(counts))
    )


def max_depth(system, cap: int) -> int:
    """Largest depth whose whole tree has at most cap nodes."""
    total = 0
    for depth, n in enumerate(level_sizes(system)):
        total += n
        if total > cap:
            return depth - 1


def pk_levels(p: int, depth: int) -> list[int]:
    """Level sizes of the {p,4} sector tree: white -> black + (p-3) white,
    black -> black + (p-4) white, white root."""
    white, black = 1, 0
    out = [1]
    for _ in range(depth):
        white, black = (p - 3) * white + (p - 4) * black, white + black
        out.append(white + black)
    return out


def check_counts(system, poly: tuple[int, ...], counts: list[int]) -> str | None:
    """Level counts equal the rule-table count and obey the closed form."""
    d = len(poly) - 1
    want = rule_counts(system, max(len(counts) - 1, d + 1))
    if counts != want[: len(counts)]:
        return f"level counts {counts[:6]}... differ from the rule count {want[:6]}..."
    if not obeys(poly, want):
        return f"rule counts {want[:6]}... break the closed-form recurrence"
    return None


# ---------------------------------------------------------------------------
# Numeration


def floor_beta(poly: tuple[int, ...]) -> int:
    """floor of the dominant root: the largest m >= 1 with P(m) <= 0.

    Exact for a polynomial whose only root above 1 is the dominant one,
    which holds for every regular case."""
    def at(x: int) -> int:
        return sum(c * x ** (len(poly) - 1 - i) for i, c in enumerate(poly))

    m = 1
    while at(m + 1) <= 0:
        m += 1
    return m


def basis_terms(system, poly: tuple[int, ...], n: int) -> list[int]:
    d = len(poly) - 1
    return extend(poly, rule_counts(system, d - 1), n)


def brute_maximal(terms: list[int], bound: int, limit: int) -> dict[int, tuple]:
    """value -> lexicographically least longest digit string, for 1..limit.

    Enumerates every string with a nonzero leading digit, shortest length
    first and digits in increasing order, so the first string found for a
    value at a new length is the least one of that length."""
    best: dict[int, tuple] = {}
    found_len: dict[int, int] = {}
    max_len = sum(1 for t in terms if t <= limit)

    def walk(pos: int, acc: int, digits: list[int], length: int) -> None:
        lo = 1 if pos == length - 1 else 0
        t = terms[pos]
        for dgt in range(lo, bound + 1):
            val = acc + dgt * t
            if val > limit:
                break
            digits.append(dgt)
            if pos == 0:
                if found_len.get(val, 0) < length:
                    found_len[val] = length
                    best[val] = tuple(digits)
            else:
                walk(pos - 1, val, digits, length)
            digits.pop()

    for length in range(1, max_len + 1):
        walk(length - 1, 0, [], length)
    return best


def check_representation(rep, value: int, terms: list[int], bound: int) -> str | None:
    digits = rep.digits
    if rep.value != value:
        return f"representation of {value} claims value {rep.value}"
    if value == 0:
        return None if digits == (0,) else f"0 written as {digits}"
    if digits[0] == 0:
        return f"{value}: leading zero in {digits}"
    if any(not 0 <= x <= bound for x in digits):
        return f"{value}: digit outside 0..{bound} in {digits}"
    if len(digits) > len(terms):
        return f"{value}: {len(digits)} digits exceed the oracle basis"
    got = sum(x * t for x, t in zip(digits, terms[len(digits) - 1 :: -1]))
    if got != value:
        return f"{value}: digits {digits} evaluate to {got}"
    return None


# ---------------------------------------------------------------------------
# Geometry


def ring_defect(tiles, q: int, generations: int, tol: float = 1e-7) -> str | None:
    """Every ripe vertex is shared by exactly q tiles.

    A vertex is ripe when one of its tiles is old enough that the whole
    ring around it was generated: the far side of a ring sits q//2
    reflections from its oldest tile."""
    ripe = generations - q // 2
    cells: dict[tuple[int, int], list[tuple[complex, int]]] = {}
    rings: list[list[int]] = []  # [tile count, oldest generation]
    for tile in tiles:
        for v in tile.vertices:
            cx, cy = math.floor(v.real / tol), math.floor(v.imag / tol)
            gid = None
            for ix in (cx - 1, cx, cx + 1):
                for iy in (cy - 1, cy, cy + 1):
                    for w, g in cells.get((ix, iy), ()):
                        if abs(v - w) < tol:
                            gid = g
            if gid is None:
                cells.setdefault((cx, cy), []).append((v, len(rings)))
                rings.append([1, tile.generation])
            else:
                ring = rings[gid]
                ring[0] += 1
                ring[1] = min(ring[1], tile.generation)
    ripe_rings = [n for n, oldest in rings if oldest <= ripe]
    if ripe >= 0 and not ripe_rings:
        return "no ripe vertex to check"
    bad = [n for n in ripe_rings if n != q]
    if bad:
        return f"{len(bad)} of {len(ripe_rings)} ripe vertices lack {q} tiles (e.g. {bad[0]})"
    return None


def svg_groups(svg: str) -> dict[str, list]:
    """Parse an SVG document; class name -> child elements of that group."""
    root = ET.fromstring(svg)
    if root.tag != SVG_NS + "svg":
        raise ValueError(f"root element is {root.tag}")
    return {g.get("class"): list(g) for g in root.iter(SVG_NS + "g")}
