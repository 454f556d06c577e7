"""The four workloads: survey, numeration, trees and geometry.

A workload turns a seed into requests, runs one request through the
library's public functions, and checks an output against the oracles.
Requests come in blocks.  Each block holds every request kind in fixed
proportions; the seed picks the parameters and the order.  The runner
measures whole blocks, so runs with different seeds do the same mix of
work and their figures can be compared.

Calls go through module attributes (``lib.tree.generate``) at call time,
so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import accumulate, count
from typing import NamedTuple

import oracles


class Request(NamedTuple):
    kind: str
    args: tuple


def with_schemes(pairs) -> list[tuple[int, int, str]]:
    """(p, q, scheme) for each hyperbolic pair, under each scheme that
    ``--scheme auto`` reports: the even scheme for even q, both odd
    variants for odd q."""
    cases = []
    for p, q in pairs:
        if p * q > 2 * (p + q):
            tags = ("even-q",) if q % 2 == 0 else ("odd-v1", "odd-v2")
            cases.extend((p, q, tag) for tag in tags)
    return cases


class Workload:
    """Base: subclasses fill in the inputs, ``execute`` and ``check``."""

    name = ""
    #: Blocks the traced run replays: a few seconds of requests on a 2-CPU Xeon VM.
    trace_blocks = 1
    #: Values one request of a kind handles, where it is more than one.
    values_per_request: dict[str, int] = {}

    def __init__(self, lib, seed: int, small: bool = False) -> None:
        """small shrinks every size to a toy run for the self-test."""
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")

    def blocks(self):
        raise NotImplementedError

    def warm_up(self) -> list[Request]:
        return []

    def execute(self, req: Request):
        raise NotImplementedError

    def keep(self, req: Request, out):
        """What the oracle needs from an output; runs outside the timer."""
        return out

    def check(self, req: Request, out) -> str | None:
        raise NotImplementedError

    def _pair_scheme(self, p: int, q: int, tag: str):
        s = self.lib.schlafli
        return s.validate(p, q), s.Scheme(tag)


# ---------------------------------------------------------------------------


class Survey(Workload):
    """``hypq analyze --json`` plus ``hypq tree --format counts`` per case.

    Every hyperbolic (p, q, scheme) with p, q >= 4 and p*q <= MAX_PQ is
    visited once, in seeded order.  The bound on p*q bounds the cost of a
    case (tree rule tables and report fans grow with p and q) while the
    grid stays wider than a run can cover, so no case repeats."""

    name = "survey"
    trace_blocks = 10
    TREE_CAP = 4096
    TREE_DEPTH = 6
    MAX_PQ = 3600

    def __init__(self, lib, seed, small=False):
        super().__init__(lib, seed, small)
        top = 60 if small else self.MAX_PQ
        self.cases = with_schemes(
            (p, q) for p in range(4, top // 4 + 1) for q in range(4, top // p + 1)
        )
        self.rng.shuffle(self.cases)
        self.block_size = 8 if small else 200

    def blocks(self):
        for n in count():
            start = (n * self.block_size) % len(self.cases)
            yield [
                Request("case", self.cases[(start + i) % len(self.cases)])
                for i in range(self.block_size)
            ]

    def warm_up(self):
        return [Request("case", c) for c in ((5, 4, "even-q"), (4, 5, "odd-v1"), (7, 9, "odd-v2"))]

    def execute(self, req):
        L = self.lib
        pair, scheme = self._pair_scheme(*req.args)
        system = L.schlafli.build_system(pair, scheme)
        poly = L.schlafli.characteristic_polynomial(L.schlafli.splitting_matrix(system))
        text = L.report.report_json(L.spectral.analyze(pair, scheme))
        depth = min(self.TREE_DEPTH, L.tree.max_depth_within_cap(system, self.TREE_CAP))
        counts = L.tree.generate(system, depth, cap=self.TREE_CAP).level_counts()
        try:
            recurrence = L.tree.recurrence_check(counts, poly)
        except L.errors.TooFewLevels:
            recurrence = None
        return system, poly, text, depth, counts, recurrence

    def check(self, req, out):
        p, q, tag = req.args
        system, poly, text, depth, counts, recurrence = out
        want = oracles.closed_form(p, q, tag)
        if poly != want:
            return f"polynomial {poly} != closed form {want}"
        data = json.loads(text)
        if data["pair"] != {"p": p, "q": q} or data["scheme"] != tag:
            return f"report names {data['pair']} {data['scheme']}"
        if [int(c) for c in data["polynomial"]] != list(want):
            return f"report polynomial {data['polynomial']}"
        if data["regular"] != ((p, q) != (4, 5)):
            return f"verdict regular={data['regular']}"
        if depth != min(self.TREE_DEPTH, oracles.max_depth(system, self.TREE_CAP)):
            return f"depth {depth} is not the deepest within the cap"
        bad = oracles.check_counts(system, want, counts)
        if bad:
            return bad
        if recurrence is not (True if len(counts) >= len(want) else None):
            return f"recurrence_check gave {recurrence} on {len(counts)} levels"
        return None


# ---------------------------------------------------------------------------


class Numeration(Workload):
    """Maximal representations, two ways: small tables and huge batches.

    ``table`` is ``hypq numeration --up-to N`` for one regular desk case;
    ``huge`` represents a batch of seeded values in 10^20..10^30."""

    name = "numeration"
    trace_blocks = 30
    BRUTE_LIMIT = 300

    def __init__(self, lib, seed, small=False):
        super().__init__(lib, seed, small)
        # the regular desk cases: p <= 12, q <= 13, all but {4,5}
        self.cases = with_schemes(
            (p, q) for p in range(4, 13) for q in range(4, 14) if (p, q) != (4, 5)
        )
        self.table_n = 20 if small else 300
        self.batch = 2 if small else 12
        self.values_per_request = {"table": self.table_n + 1, "huge": self.batch}
        self.per_block = 2 if small else 8
        self._oracle: dict[tuple, tuple] = {}

    def blocks(self):
        rng, cases = self.rng, list(self.cases)
        picks = iter(())
        while True:
            block = []
            for _ in range(self.per_block):
                for kind in ("table", "huge"):
                    case = next(picks, None)
                    if case is None:
                        rng.shuffle(cases)
                        picks = iter(cases)
                        case = next(picks)
                    if kind == "table":
                        block.append(Request("table", (*case, self.table_n)))
                    else:
                        values = tuple(
                            rng.randrange(10**20, 10**30) for _ in range(self.batch)
                        )
                        block.append(Request("huge", (*case, values)))
            rng.shuffle(block)
            yield block

    def warm_up(self):
        # Each case's table once, so no timed table request is the first of
        # its case; otherwise the share of cold tables, and with it the
        # throughput, would depend on how many requests a run gets through.
        return [Request("table", (*case, self.table_n)) for case in self.cases] + [
            Request("huge", (7, 9, "odd-v1", (10**25 + 7,)))
        ]

    def execute(self, req):
        L = self.lib
        p, q, tag, arg = req.args
        pair, scheme = self._pair_scheme(p, q, tag)
        seq = L.numeration.basis(pair, scheme, 8)
        if req.kind == "table":
            values = range(arg + 1)
        else:
            values = arg
        reps = []
        for v in values:
            try:
                reps.append(L.numeration.represent_maximal(v, seq))
            except L.errors.Unrepresentable:
                reps.append(None)
        return seq, reps

    def _truth(self, p, q, tag):
        key = (p, q, tag)
        if key not in self._oracle:
            poly = oracles.closed_form(p, q, tag)
            system = self.lib.schlafli.build_system(*self._pair_scheme(p, q, tag))
            terms = oracles.basis_terms(system, poly, 8)
            bound = oracles.floor_beta(poly)
            brute = oracles.brute_maximal(
                oracles.extend(poly, terms, 64), bound, self.BRUTE_LIMIT
            )
            self._oracle[key] = (poly, terms, bound, brute)
        return self._oracle[key]

    def check(self, req, out):
        p, q, tag, arg = req.args
        seq, reps = out
        poly, terms, bound, brute = self._truth(p, q, tag)
        if list(seq.terms) != oracles.extend(poly, terms, len(seq.terms)):
            return f"basis {seq.terms} differs from the oracle"
        if seq.digit_bound != bound:
            return f"digit bound {seq.digit_bound} != floor(beta) {bound}"
        values = range(arg + 1) if req.kind == "table" else arg
        if len(reps) != len(values):
            return f"{len(reps)} representations for {len(values)} values"
        decode = self.lib.numeration.decode
        for v, rep in zip(values, reps):
            if rep is None:
                if v > self.BRUTE_LIMIT or v in brute:
                    return f"{v} reported unrepresentable"
                continue
            long_terms = oracles.extend(poly, terms, len(rep.digits))
            bad = oracles.check_representation(rep, v, long_terms, bound)
            if bad:
                return bad
            if decode(rep.digits, seq) != v:
                return f"decode does not round-trip {v}"
            if 0 < v <= self.BRUTE_LIMIT and rep.digits != brute.get(v):
                return f"{v}: {rep.digits} is not the least longest string {brute.get(v)}"
        return None


# ---------------------------------------------------------------------------


class Trees(Workload):
    """The two tree engines: grow, fib, walk and refuse requests.

    ``refuse`` asks for a {5,4} tree deeper than the node cap allows and
    must raise CapExceeded; its depths are spread evenly up to the largest
    one.  Today every refusal at depth >= 10288 raises ValueError instead,
    and counts as failed."""

    name = "trees"
    CASES = (
        (5, 4, "even-q"),
        (6, 4, "even-q"),
        (5, 7, "odd-v1"),
        (4, 7, "odd-v1"),
        (5, 7, "odd-v2"),
        (4, 5, "odd-v1"),
    )
    REFUSE_CASE = (5, 4, "even-q")

    def __init__(self, lib, seed, small=False):
        super().__init__(lib, seed, small)
        self.grow_cap = 2000 if small else 10**6
        self.walk_cap = 500 if small else 10**5
        self.fib_depths = (3, 4) if small else (9, 10, 11, 12)
        self.refuse_max = 300 if small else 25000
        self.refusals = 2 if small else 5
        self.walks = 2 if small else 36
        self.lookups = 5 if small else 200
        self.walk_trees = []
        for p, q, tag in self.CASES:
            system = lib.schlafli.build_system(*self._pair_scheme(p, q, tag))
            depth = lib.tree.max_depth_within_cap(system, self.walk_cap)
            self.walk_trees.append(lib.tree.generate(system, depth, cap=self.walk_cap))
        system = lib.schlafli.build_system(*self._pair_scheme(*self.REFUSE_CASE))
        self.refuse_min = oracles.max_depth(system, self.grow_cap) + 1

    def blocks(self):
        rng = self.rng
        while True:
            block = [Request("grow", case) for case in self.CASES]
            block += [Request("fib", (d,)) for d in self.fib_depths]
            for _ in range(self.walks):
                i = rng.randrange(len(self.walk_trees))
                size = self.walk_trees[i].size
                ids = tuple(rng.randint(1, size) for _ in range(self.lookups))
                block.append(Request("walk", (i, ids)))
            # one depth near the middle of each of `refusals` equal strata;
            # the jitter stays small because a refusal's cost grows as depth^2
            span = (self.refuse_max - self.refuse_min) / self.refusals
            for j in range(self.refusals):
                depth = self.refuse_min + int((j + 0.4 + 0.2 * rng.random()) * span)
                block.append(Request("refuse", (*self.REFUSE_CASE, depth)))
            # the deepest refusal sets the run's peak memory; pin it
            block.append(Request("refuse", (*self.REFUSE_CASE, self.refuse_max)))
            rng.shuffle(block)
            yield block

    def warm_up(self):
        # one lookup per level fills each walk tree's navigation tables
        reqs = [
            Request("walk", (i, tuple(accumulate([1] + t.level_counts()[:-1]))))
            for i, t in enumerate(self.walk_trees)
        ]
        return reqs + [Request("fib", (3,)), Request("grow", (5, 4, "even-q"))]

    def execute(self, req):
        L = self.lib
        if req.kind == "walk":
            i, ids = req.args
            tree = self.walk_trees[i]
            return [tree.node(n) for n in ids]
        if req.kind == "fib":
            (d,) = req.args
            fib = L.dual.level_counts(L.dual.fibonacci_tree(d))
            system = L.schlafli.build_system(*self._pair_scheme(5, 4, "even-q"))
            return fib, L.tree.generate(system, d).level_counts()
        system = L.schlafli.build_system(*self._pair_scheme(*req.args[:3]))
        if req.kind == "refuse":
            try:
                tree = L.tree.generate(system, req.args[3], cap=self.grow_cap)
            except L.errors.CapExceeded:
                return "refused"
            return f"built {tree.size} nodes"
        depth = L.tree.max_depth_within_cap(system, self.grow_cap)
        counts = L.tree.generate(system, depth, cap=self.grow_cap).level_counts()
        poly = L.schlafli.characteristic_polynomial(L.schlafli.splitting_matrix(system))
        return system, depth, counts, L.tree.recurrence_check(counts, poly)

    def check(self, req, out):
        if req.kind == "refuse":
            return None if out == "refused" else f"depth {req.args[3]}: {out}"
        if req.kind == "fib":
            want = oracles.pk_levels(5, req.args[0])
            return None if list(out[0]) == list(out[1]) == want else f"levels {out}"
        if req.kind == "walk":
            return self._check_walk(self.walk_trees[req.args[0]], out)
        system, depth, counts, recurrence = out
        if depth != oracles.max_depth(system, self.grow_cap):
            return f"depth {depth} is not the deepest within the cap"
        poly = oracles.closed_form(*req.args)
        return oracles.check_counts(system, poly, counts) or (
            None if recurrence is True else "recurrence_check said False"
        )

    def _check_walk(self, tree, nodes):
        """Local consistency: children follow the parent's rule, in order,
        and parent and child links agree both ways."""
        rules = {r.parent: r.children for r in tree.system.rules}
        for node in nodes:
            kids = [tree.node(c) for c in node.children]
            want = [] if node.level == tree.depth else [
                kind for kind, mult in rules[node.kind] for _ in range(mult)
            ]
            if [k.kind for k in kids] != want:
                return f"node {node.id}: children do not follow the rule"
            if any(k.parent != node.id or k.level != node.level + 1 for k in kids):
                return f"node {node.id}: a child does not point back"
            if node.parent is not None and node.id not in tree.node(node.parent).children:
                return f"node {node.id}: missing from its parent's children"
            if (node.parent is None) != (node.id == 1):
                return f"node {node.id}: parent {node.parent}"
        return None


# ---------------------------------------------------------------------------


class Geometry(Workload):
    """Disc geometry: figures, bijection audits and sector covers.

    Figures run the work of ``hypq render``: the scene function (which
    tessellates) and ``render_svg``.  FIGURES mixes dedup-heavy {7,3}
    with dedup-light {4,5}, and holds {8,8} gen 5, which runs out of
    double precision today and counts as failed."""

    name = "geometry"
    #: (p, q, generations, figure, scheme).  Lines and sector covers cost
    #: as much as a small tessellation, so small figures are fixed; where
    #: the figure is None (600 tiles or more) the seed picks tessellation,
    #: midlines or zigzag, which then cost about the same.
    FIGURES = (
        (5, 4, 7, "tessellation", "even-q"),
        (5, 4, 4, "sectors", "even-q"),
        (5, 4, 3, "tessellation", "even-q"),
        (4, 5, 9, None, "odd-v1"),
        (4, 5, 7, "sectors", "odd-v2"),
        (4, 5, 4, "midlines", "odd-v1"),
        (4, 5, 3, "sectors", "odd-v1"),
        (7, 3, 8, None, "odd-v1"),
        (7, 3, 5, None, "odd-v1"),
        (7, 3, 4, "zigzag", "odd-v1"),
        (5, 7, 5, "sectors", "odd-v1"),
        (5, 7, 3, "zigzag", "odd-v1"),
        (5, 7, 2, "sectors", "odd-v2"),
        (6, 4, 5, "sectors", "even-q"),
        (6, 4, 3, "tessellation", "even-q"),
        (6, 4, 2, "sectors", "even-q"),
        (8, 3, 5, None, "odd-v1"),
        (8, 3, 3, "midlines", "odd-v1"),
        (8, 3, 2, "tessellation", "odd-v1"),
        (8, 8, 4, "sectors", "even-q"),
        (8, 8, 5, "tessellation", "even-q"),
        (8, 8, 2, "tessellation", "even-q"),
    )
    SMALL_FIGURES = (
        (5, 4, 3, "sectors", "even-q"),
        (7, 3, 3, "midlines", "odd-v1"),
        (4, 5, 3, "zigzag", "odd-v1"),
    )
    COVERS = (
        (5, 4, "even-q", "S0"),
        (6, 4, "even-q", "S0"),
        (8, 8, "even-q", "S0"),
        (4, 5, "odd-v1", "S0"),
        (4, 5, "odd-v2", "S0_PRIME"),
        (5, 7, "odd-v1", "S0"),
        (5, 7, "odd-v2", "S0_PRIME"),
    )

    def __init__(self, lib, seed, small=False):
        super().__init__(lib, seed, small)
        self.figures = self.SMALL_FIGURES if small else self.FIGURES
        self.audits = (3,) if small else (4, 5)
        self.dual_depth = 2 if small else 4
        self.covers = self.COVERS[:2] if small else self.COVERS
        self._svg: dict[tuple, str] = {}
        self._digest: dict[tuple, str] = {}
        self._tess: dict[tuple, tuple] = {}

    def _figure(self, p, q, gen, what, tag):
        if what is None:  # the edge walks exist for odd q only
            what = self.rng.choice(("tessellation", "midlines", "zigzag"))
        return Request("figure", (p, q, gen, what, tag))

    def blocks(self):
        while True:
            block = [self._figure(*f) for f in self.figures]
            block.append(Request("figure", (4, 5, self.dual_depth, "dual45", "odd-v1")))
            block += [Request("audit", (d,)) for d in self.audits]
            # each cover twice: with the small figures they make up two thirds
            # of a block, so the median falls inside that cluster, not on its edge
            block += [Request("cover", c) for c in self.covers * 2]
            self.rng.shuffle(block)
            yield block

    def warm_up(self):
        return [
            Request("figure", (5, 4, 2, "tessellation", "even-q")),
            Request("cover", self.COVERS[0]),
            Request("audit", (2,)),
        ]

    def execute(self, req):
        L = self.lib
        if req.kind == "audit":
            return L.dual.check_bijection(req.args[0])
        if req.kind == "cover":
            p, q, tag, kind = req.args
            pair, scheme = self._pair_scheme(p, q, tag)
            cover = L.sectors.cover(pair, scheme, L.schlafli.Region[kind])
            return len(cover), L.sectors.cover_closure_residual(cover)
        p, q, gen, what, tag = req.args
        if what == "dual45":
            scene = L.dual.dual_scene(gen)
        elif what == "sectors":
            scene = L.render.sector_scene(*self._pair_scheme(p, q, tag), gen)
        else:
            build = getattr(L.render, f"{what}_scene")
            scene = build(L.schlafli.validate(p, q), gen)
        return L.render.render_svg(scene)

    def keep(self, req, out):
        if req.kind != "figure" or out is None:
            return out
        self._svg.setdefault(req.args, out)
        return hashlib.sha256(out.encode()).hexdigest()

    def check(self, req, out):
        if req.kind == "audit":
            return self._check_audit(req.args[0], out)
        if req.kind == "cover":
            n, residual = out
            p, q, tag, kind = req.args
            want = 2 * q if kind == "S0_PRIME" else q
            if n != want or not residual < 1e-9:
                return f"{n} copies (want {want}), closure residual {residual}"
            return None
        first = self._digest.setdefault(req.args, out)
        if first != out:
            return "figure differs from an earlier rendering of the same request"
        if req.args in self._svg:
            return self._check_svg(req.args, self._svg.pop(req.args))
        return None

    def _check_audit(self, depth, rep):
        want = sum(oracles.pk_levels(5, depth))
        if rep.doubly_assigned:
            return f"{len(rep.doubly_assigned)} vertices numbered twice"
        if len(rep.covered) != want:
            return f"covered {len(rep.covered)} vertices, want {want}"
        if not rep.excluded or rep.apex not in rep.excluded:
            return "sector apex not among the excluded vertices"
        if not rep.right_ray_residual < 1e-9:
            return f"excluded vertex off the right ray by {rep.right_ray_residual}"
        return None

    def _tessellation(self, p, q, gen):
        """Tile count of {p,q} at gen, after the ring and count oracles."""
        key = (p, q, gen)
        if key not in self._tess:
            tess = self.lib.tiling.tessellate(self.lib.schlafli.validate(p, q), gen)
            bad = oracles.ring_defect(tess.tiles, q, gen)
            if q == 4 and not bad:
                want = 1 + p * sum(oracles.pk_levels(p, gen - 1)) if gen else 1
                if len(tess) != want:
                    bad = f"{len(tess)} tiles, want 1 + p*sum(levels) = {want}"
            self._tess[key] = (len(tess), bad)
        return self._tess[key]

    def _check_svg(self, args, svg):
        p, q, gen, what, tag = args
        try:
            groups = oracles.svg_groups(svg)
        except (ValueError, SyntaxError) as exc:
            return f"SVG does not parse: {exc}"
        drawn = len(groups.get("tiles", ()))
        if what == "dual45":
            nodes = sum(oracles.pk_levels(5, gen))
            if drawn != 1 + nodes or len(groups.get("labels", ())) != nodes:
                return f"dual view draws {drawn} tiles for {nodes} nodes"
            return None
        tiles, bad = self._tessellation(p, q, gen)
        if bad:
            return bad
        if drawn != tiles:
            return f"SVG draws {drawn} tiles of {tiles}"
        if what == "sectors":
            copies = 2 * q if tag == "odd-v2" else q
            dots = [e for e in groups.get("sectors", ()) if e.tag.endswith("circle")]
            if len(dots) != copies:
                return f"{len(dots)} sector apexes, want {copies}"
        if what == "midlines" and len(groups.get("geodesics", ())) != p:
            return "midlines: not one line per base edge"
        if what == "zigzag" and not groups.get("geodesics"):
            return "zigzag: no path drawn"
        return None


WORKLOADS = {w.name: w for w in (Survey, Numeration, Trees, Geometry)}
