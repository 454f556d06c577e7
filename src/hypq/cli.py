"""Command-line surface: analyze, tree, numeration, render, verify.

Exit codes: 0 success, 1 verification failure, 2 invalid input (also an
SVG that ``render -o`` cannot write), 3 resource limit (a node or tile
cap exceeded, or double precision exhausted near the disc boundary).
``--scheme auto`` (the default) picks the even scheme for even q and
reports both odd variants for odd q; the subcommands that need a single
scheme require an explicit choice when q is odd.  The node cap honors
the HYPQ_NODE_CAP environment variable; the --node-cap flag beats it.
A HYPQ_NODE_CAP that is not an integer raises ``errors.InvalidNodeCap``,
which exits 2 (invalid input).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify as verify_mod
from .dual import dual_scene
from .errors import (
    CapExceeded,
    HypqError,
    PrecisionExhausted,
    TooFewLevels,
    Unrepresentable,
)
from .numeration import basis, represent_maximal
from .render import (
    midlines_scene,
    render_svg,
    sector_scene,
    tessellation_scene,
    zigzag_scene,
)
from .report import report_json, report_text, reports_json
from .schlafli import (
    SchlafliPair,
    Scheme,
    auto_schemes,
    build_system,
    characteristic_polynomial,
    splitting_matrix,
    validate,
)
from .spectral import analyze
from .tree import generate, recurrence_check, to_dot

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CAP = 3

SCHEME_TAGS = [s.value for s in Scheme]


def _add_pair(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-p", type=int, required=True, help="polygon sides")
    sub.add_argument("-q", type=int, required=True, help="polygons per vertex")


def _add_scheme(sub: argparse.ArgumentParser, with_auto: bool) -> None:
    choices = SCHEME_TAGS + (["auto"] if with_auto else [])
    default = "auto" if with_auto else None
    sub.add_argument(
        "--scheme",
        choices=choices,
        default=default,
        help="splitting scheme" + (" (auto picks by parity)" if with_auto else ""),
    )


def _single_scheme(pair: SchlafliPair, tag: str | None) -> Scheme:
    """Resolve the scheme for subcommands that need exactly one."""
    if tag:
        return Scheme(tag)
    schemes = auto_schemes(pair)
    if len(schemes) == 1:
        return schemes[0]
    raise HypqError(
        f"{pair}: odd q has two splitting variants, pick one with "
        + " or ".join(f"--scheme {s.tag}" for s in schemes)
    )


def cmd_analyze(args) -> int:
    pair = validate(args.p, args.q)
    schemes = auto_schemes(pair) if args.scheme == "auto" else [Scheme(args.scheme)]
    reports = [analyze(pair, s) for s in schemes]
    if args.json:
        out = (
            report_json(reports[0])
            if len(reports) == 1
            else reports_json(reports)
        )
        print(out)
    else:
        print("\n\n".join(report_text(r) for r in reports))
    return EXIT_OK


def cmd_tree(args) -> int:
    pair = validate(args.p, args.q)
    scheme = _single_scheme(pair, args.scheme)
    system = build_system(pair, scheme)
    tree = generate(system, args.depth, cap=args.node_cap)
    counts = tree.level_counts()
    if args.format == "counts":
        poly = characteristic_polynomial(splitting_matrix(system))
        try:
            verdict = "OK" if recurrence_check(counts, poly) else "FAIL"
        except TooFewLevels:
            verdict = "SKIPPED (too few levels)"
        print(" ".join(map(str, counts)) + f" | recurrence: {verdict}")
    elif args.format == "dot":
        to_dot(tree, sys.stdout)
    else:
        print(
            json.dumps(
                {
                    "pair": {"p": pair.p, "q": pair.q},
                    "scheme": scheme.tag,
                    "depth": tree.depth,
                    "counts": counts,
                    "total": tree.size,
                },
                indent=2,
            )
        )
    return EXIT_OK


def cmd_numeration(args) -> int:
    pair = validate(args.p, args.q)
    scheme = _single_scheme(pair, args.scheme)
    if args.up_to < 0:
        raise HypqError("--up-to must be >= 0")
    seq = basis(pair, scheme, 8)
    for v in range(args.up_to + 1):
        try:
            print(f"{v}: {represent_maximal(v, seq)}")
        except Unrepresentable:
            print(f"{v}: unrepresentable")
    return EXIT_OK


def cmd_render(args) -> int:
    pair = validate(args.p, args.q)
    if args.what == "tessellation":
        scene = tessellation_scene(pair, args.depth)
    elif args.what == "sectors":
        scheme = _single_scheme(pair, args.scheme)
        scene = sector_scene(pair, scheme, args.depth)
    elif args.what == "midlines":
        scene = midlines_scene(pair, args.depth)
    elif args.what == "zigzag":
        scene = zigzag_scene(pair, args.depth)
    else:  # dual45
        if (pair.p, pair.q) != (4, 5):
            raise HypqError(
                "the dual numbering view is defined for the pair {4,5}"
            )
        scene = dual_scene(args.depth)
    svg = render_svg(scene)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise HypqError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify_mod.run(args.scope)
    text, ok = verify_mod.summarize(results)
    print(text)
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypq",
        description="Splitting analysis of hyperbolic tessellations {p,q}",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("analyze", help="splitting matrix, polynomial, verdict")
    _add_pair(sub)
    _add_scheme(sub, with_auto=True)
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.set_defaults(fn=cmd_analyze)

    sub = subs.add_parser("tree", help="generate the spanning tree")
    _add_pair(sub)
    _add_scheme(sub, with_auto=False)
    sub.add_argument("--depth", type=int, required=True)
    sub.add_argument(
        "--format", choices=["counts", "dot", "json"], default="counts"
    )
    sub.add_argument(
        "--node-cap",
        type=int,
        default=None,
        help="overrides HYPQ_NODE_CAP and the built-in default",
    )
    sub.set_defaults(fn=cmd_tree)

    sub = subs.add_parser("numeration", help="maximal representations table")
    _add_pair(sub)
    _add_scheme(sub, with_auto=False)
    sub.add_argument("--up-to", type=int, required=True)
    sub.set_defaults(fn=cmd_numeration)

    sub = subs.add_parser("render", help="write an SVG figure")
    _add_pair(sub)
    _add_scheme(sub, with_auto=False)
    sub.add_argument(
        "--what",
        choices=["tessellation", "sectors", "midlines", "zigzag", "dual45"],
        required=True,
    )
    sub.add_argument("--depth", type=int, default=3)
    sub.add_argument("-o", "--out", required=True, help="output SVG path")
    sub.set_defaults(fn=cmd_render)

    sub = subs.add_parser("verify", help="run the self-checks")
    sub.add_argument(
        "scope",
        nargs="?",
        default="all",
        choices=list(verify_mod.SCOPES),
    )
    sub.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CapExceeded, PrecisionExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (HypqError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
