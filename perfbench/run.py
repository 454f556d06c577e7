"""Seeded benchmark of the hypq library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (survey, numeration, trees or geometry) in this single
process and thread, as a closed loop: one client, no think time, each
request sent when the previous one returned.  Requests call the library
directly rather than ``hypq.cli.main``, whose argument parsing costs more
than a whole ``analyze``.  Every output is checked by an independent
oracle after its block has run, outside every timer.

--trace 0 sets up SETUP_REPS times (setup_s is the median), then
measures whole blocks until S seconds of request time have passed and
prints the end-to-end metrics.  --trace 1 runs a fixed list of blocks
through two fresh imports side by side, one plain and one with every
layer function wrapped (see spans.py), and prints the per-layer metrics;
the list is fixed so that call counts repeat exactly for a seed.  The
last line of standard output is the result object; the line before it
carries the machine and code stamp.  Records and spans go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

T_START = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPS = 7

MODULES = (
    "errors", "schlafli", "spectral", "report", "tree", "numeration",
    "dual", "tiling", "disc", "sectors", "lines", "render",
)

END_TO_END = {
    "ops_per_s": "req/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops_frac": "ratio",
}

#: Functions reported with .calls and .self_ms.
TRACED = (
    "schlafli.build_system",
    "schlafli.characteristic_polynomial",
    "spectral.analyze",
    "spectral.find_roots",
    "spectral.strip_factors",
    "spectral.is_pisot",
    "report.report_json",
    "tree.generate",
    "tree.kind_counts",
    "tree.max_depth_within_cap",
    "tree.SpanningTree.node",
    "numeration.basis",
    "numeration.represent_maximal",
    "dual.fibonacci_tree",
    "dual.pentagrid_sector",
    "dual.check_bijection",
    "tiling.tessellate",
    "tiling.Tessellation.vertex_groups",
    "tiling.Tessellation.neighbor_across",
    "disc.geodesic_through",
    "sectors.cover",
    "sectors.cover_closure_residual",
    "lines.h_midpoint_line",
    "lines.zigzag_line",
    "render.render_svg",
    "render.tessellation_scene",
    "render.sector_scene",
    "render.midlines_scene",
    "render.zigzag_scene",
)

#: Functions reported with .calls only.
COUNTED = ("numeration.grow", "disc.reflect_tile")

DERIVED = {
    "tree.nodes": "count",
    "tree.refuse_ms": "ms",
    "numeration.table_value_us": "us",
    "numeration.huge_value_ms": "ms",
    "tiling.tiles": "count",
    "tiling.kept_ratio": "ratio",
    "render.svg_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    units.update(DERIVED)
    return units


def fresh_lib() -> SimpleNamespace:
    """Import hypq afresh, so module-level caches start empty."""
    for name in [m for m in sys.modules if m == "hypq" or m.startswith("hypq.")]:
        del sys.modules[name]
    importlib.import_module("hypq")
    return SimpleNamespace(
        **{m: importlib.import_module(f"hypq.{m}") for m in MODULES}
    )


def setup(name: str, seed: int, small: bool):
    """Import, generate the inputs from the seed, warm up."""
    w = WORKLOADS[name](fresh_lib(), seed, small)
    for req in w.warm_up():
        try:
            w.execute(req)
        except Exception:  # the same request kinds are measured and checked later
            pass
    return w


class Stats:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.busy_ns = 0
        self.kind_ns: dict[str, list[int]] = {}
        self.problems: dict[str, int] = {}
        #: per block: (requests that passed, request time, latencies)
        self.blocks: list[tuple[int, int, list[int]]] = []

    def add(self, req, ns: int, err: BaseException | None, bad: str | None) -> None:
        self.attempted += 1
        self.busy_ns += ns
        self.kind_ns.setdefault(req.kind, []).append(ns)
        if err is not None:
            problem = f"{req.kind}: raised {type(err).__name__}: {str(err)[:120]}"
        elif bad is not None:
            self.wrong += 1
            problem = f"{req.kind}: wrong output: {bad[:160]}"
        else:
            return
        self.failed += 1
        self.problems[problem] = self.problems.get(problem, 0) + 1

    def merge(self, other: "Stats") -> None:
        for req_kind, values in other.kind_ns.items():
            self.kind_ns.setdefault(req_kind, []).extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.busy_ns += other.busy_ns
        self.blocks += other.blocks
        for k, v in other.problems.items():
            self.problems[k] = self.problems.get(k, 0) + v


def measure(w, blocks, seconds: float | None = None, tracer=None) -> Stats:
    """Run whole blocks, timing each request; check outputs after each block."""
    stats = Stats()
    for block in blocks:
        done = []
        for req in block:
            if tracer is not None:
                tracer.begin()
            t0 = perf_counter_ns()
            try:
                out, err = w.execute(req), None
            except Exception as exc:  # a failing request is counted, never fatal
                out, err = None, exc
            ns = perf_counter_ns() - t0
            if tracer is not None:
                tracer.end()
            done.append((req, ns, err, None if err else w.keep(req, out)))
        failed = stats.failed
        for req, ns, err, kept in done:
            bad = None
            if err is None:
                try:
                    bad = w.check(req, kept)
                except Exception as exc:  # an output the oracle cannot read is wrong
                    bad = f"oracle could not read the output: {exc!r}"
            stats.add(req, ns, err, bad)
        latencies = [ns for _req, ns, _err, _kept in done]
        stats.blocks.append((len(done) - (stats.failed - failed), sum(latencies), latencies))
        if seconds is not None and stats.busy_ns >= seconds * 1e9:
            break
    return stats


def quantiles_ms(ns: list[int]) -> list[float]:
    return [x / 1e6 for x in statistics.quantiles(ns, n=100, method="inclusive")]


def end_to_end(stats: Stats, setups: list[float]) -> dict[str, float]:
    """Throughput and latency percentiles are taken per block and reported
    as their median over the blocks, which keeps a passing disturbance on
    the machine from moving a run's figures."""
    per_block = [(ok / (ns / 1e9), quantiles_ms(lat)) for ok, ns, lat in stats.blocks]
    return {
        "ops_per_s": statistics.median(rate for rate, _cuts in per_block),
        "op_p50_ms": statistics.median(cuts[49] for _rate, cuts in per_block),
        "op_p90_ms": statistics.median(cuts[89] for _rate, cuts in per_block),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ops_frac": (stats.attempted - stats.failed) / stats.attempted,
    }


def per_layer(w, plain: Stats, traced: Stats, tracer) -> dict[str, float]:
    agg = tracer.reduce()
    zero = {"calls": 0, "self_ms": 0.0, "count": 0}
    out: dict[str, float] = {}
    for name in TRACED:
        out[f"{name}.calls"] = agg.get(name, zero)["calls"]
        out[f"{name}.self_ms"] = agg.get(name, zero)["self_ms"]
    for name in COUNTED:
        out[f"{name}.calls"] = agg.get(name, zero)["calls"]

    def per_value(kind: str) -> float:
        """Mean request time of one kind (plain side) per value it handles."""
        ns = plain.kind_ns.get(kind)
        return statistics.fmean(ns) / w.values_per_request.get(kind, 1) if ns else 0.0

    tess = agg.get("tiling.tessellate", zero)
    reflections = out["disc.reflect_tile.calls"]
    out.update(
        {
            "tree.nodes": agg.get("tree.generate", zero)["count"],
            "tree.refuse_ms": per_value("refuse") / 1e6,
            "numeration.table_value_us": per_value("table") / 1e3,
            "numeration.huge_value_ms": per_value("huge") / 1e6,
            "tiling.tiles": tess["count"],
            "tiling.kept_ratio": (
                (tess["count"] - tess["calls"]) / reflections if reflections else 0.0
            ),
            "render.svg_bytes": agg.get("render.render_svg", zero)["count"],
            "trace.overhead_frac": traced.busy_ns / plain.busy_ns - 1.0,
        }
    )
    return out


def result_of(stats: Stats, metrics: dict, units: dict) -> dict:
    """The result object: failed counts requests that raised or whose
    output an oracle rejected; correct is false only for the latter."""
    return {
        "correct": stats.wrong == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """One benchmark run; returns (result, info, tracer or None)."""
    if not trace:
        setups = []
        for _ in range(SETUP_REPS):
            gc.collect()  # the previous set-up's garbage is not this one's cost
            t0 = perf_counter()
            w = setup(name, seed, small)
            setups.append(perf_counter() - t0)
        first_request_s = perf_counter() - T_START
        stats = measure(w, w.blocks(), seconds)
        metrics = end_to_end(stats, setups)
        units, tracer = END_TO_END, None
    else:
        # Two independent imports run the same blocks side by side, one
        # plain and one wrapped, alternating which goes first, so both see
        # the same cache state and drift cancels out of the overhead.
        plain_w = setup(name, seed, small)
        traced_w = setup(name, seed, small)
        tracer = spans.Tracer()
        tracer.install()  # patches the import made last
        stats, traced = Stats(), Stats()
        try:
            pairs = islice(zip(plain_w.blocks(), traced_w.blocks()), plain_w.trace_blocks)
            for i, (plain_block, traced_block) in enumerate(pairs):
                sides = [
                    (stats, plain_w, plain_block, None),
                    (traced, traced_w, traced_block, tracer),
                ]
                for into, w, block, tr in sides[:: 1 if i % 2 else -1]:
                    into.merge(measure(w, [block], tracer=tr))
        finally:
            tracer.uninstall()
        first_request_s = None
        metrics = per_layer(traced_w, stats, traced, tracer)
        stats.merge(traced)
        units = per_layer_units()
    result = result_of(stats, metrics, units)
    cuts = quantiles_ms([ns for _ok, _ns, lat in stats.blocks for ns in lat])
    info = {
        "requests": stats.attempted,
        "busy_s": stats.busy_ns / 1e9,
        "op_p99_ms": cuts[98],
        "first_request_s": first_request_s,
        "per_kind": {
            kind: {"n": len(ns), "median_ms": statistics.median(ns) / 1e6}
            for kind, ns in sorted(stats.kind_ns.items())
        },
        "problems": stats.problems,
    }
    return result, info, tracer


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hypq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "hypq" / "__init__.py").is_file():
        print(f"error: no hypq sources under {SRC}", file=sys.stderr)
        return 2
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # The interpreter's string-hash seed changes dict layouts, and with
        # them the speed of a run (by about 10% on a 2-CPU Xeon VM, Python
        # 3.11); let --seed fix it too, so a seed reproduces its run.  exec
        # replaces this process.
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(SRC))

    result, info, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"stamp": stamp(args), "info": info, "result": result}
    OUT.mkdir(exist_ok=True)
    base = f"{args.workload}-seed{args.seed}"
    if tracer is not None:
        info["spans"] = tracer.write_jsonl(OUT / f"{base}.spans.jsonl")
    (OUT / f"{base}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for problem, n in sorted(info["problems"].items()):
        print(f"failed x{n}: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": record["stamp"], "info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
