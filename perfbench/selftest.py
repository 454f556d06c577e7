"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at toy size, plain and traced, in this process, and
checks that

- each run prints exactly the end-to-end (plain) or per-layer (traced)
  metrics that BENCHMARK.json lists, with the same units;
- the traced runs together record at least one span in every layer
  module;
- a deliberately wrong output is counted as failed and clears ``correct``.

Exits with 0 when all of this holds and with 1, listing what broke,
otherwise.
"""

from __future__ import annotations

import json
import sys

import run
import spans
from workloads import WORKLOADS


def metric_units(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e, layer = metric_units(spec, "end_to_end"), metric_units(spec, "per_layer")
    problems = []
    if e2e != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if layer != run.per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_units()")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    layers_seen = set()
    for name in WORKLOADS:
        for trace, want in ((False, e2e), (True, layer)):
            result, _info, tracer = run.run(name, 1, 0.0, trace, small=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(set(got) ^ set(want))}")
            if result["attempted"] < 1 or not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {result['attempted']} attempted, "
                                f"correct={result['correct']}")
            if tracer is not None:
                layers_seen |= {n.split(".")[0] for n in tracer.reduce()}
    missing = sorted(set(spans.LAYER_MODULES) - layers_seen)
    if missing:
        problems.append(f"no span recorded in layers {missing}")

    # a survey whose polynomials are off by one in the constant term
    w = run.setup("survey", 1, True)
    execute = w.execute

    def wrong(req):
        system, poly, *rest = execute(req)
        return (system, poly[:-1] + (poly[-1] + 1,), *rest)

    w.execute = wrong
    stats = run.measure(w, [next(w.blocks())])
    result = run.result_of(stats, {}, {})
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append(f"wrong outputs not counted: {result}")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
