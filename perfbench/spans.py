"""Run-time tracing of hypq from outside the package.

``install`` replaces the public functions of each layer module (and a few
named methods) with wrappers that record one span per call while a
request is active: name, start, end, parent span and request id.  The
originals are put back by ``uninstall``.  Nothing under ``src/`` is
edited; the wrappers are swapped into every module namespace of the
package that holds the original object, so calls made through
``from .x import f`` bindings are caught as well.

Spans live in memory until ``write_jsonl`` and ``reduce`` turn them into
the JSON-lines file and the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter_ns

#: Modules whose public functions are wrapped.  ``polyint`` is left out on
#: purpose: it is arithmetic called dozens of times per ``analyze``, and its
#: time is counted as self time of the schlafli/spectral layer that calls it.
#: ``cli`` and ``verify`` are not on any request path.
LAYER_MODULES = (
    "schlafli",
    "spectral",
    "report",
    "tree",
    "numeration",
    "dual",
    "tiling",
    "disc",
    "sectors",
    "lines",
    "render",
)

#: Methods that are layer entry points in their own right.
METHODS = (
    ("tree", "SpanningTree", "node"),
    ("tiling", "Tessellation", "vertex_groups"),
    ("tiling", "Tessellation", "neighbor_across"),
)


def _size(out) -> int:
    return out.size


#: Work counters read off a wrapped call's return value.
COUNTERS = {
    "tree.generate": _size,
    "tiling.tessellate": len,
    "render.render_svg": len,
}


class Tracer:
    """In-memory span store; records only while ``request`` is set."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.request: int | None = None
        self.requests = 0
        self._originals: list[tuple[object, str, object]] = []

    def begin(self) -> None:
        """Start recording spans under a new request id."""
        self.request = self.requests
        self.requests += 1

    def end(self) -> None:
        self.request = None

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            req = self.request
            if req is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter_ns()
                stack.pop()
                n = count(out) if count is not None and out is not None else None
                spans[idx] = (nid, start, end, parent, req, n)

        return traced

    def install(self, package: str = "hypq") -> None:
        """Swap wrappers in for the layer functions of the imported package."""
        wrapped: dict[object, object] = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{package}.{short}"], cls_name)
            orig = cls.__dict__[meth]
            self._originals.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", orig))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    def done(self) -> list[tuple]:
        if self.stack or any(s is None for s in self.spans):
            raise RuntimeError("a span was left open")
        return self.spans

    def write_jsonl(self, path) -> int:
        """One JSON object per span, times in microseconds from the first."""
        spans = self.done()
        t0 = spans[0][1] if spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (nid, start, end, parent, req, n) in enumerate(spans):
                rec = {
                    "id": i,
                    "name": self.names[nid],
                    "start_us": (start - t0) / 1e3,
                    "end_us": (end - t0) / 1e3,
                    "parent": None if parent < 0 else parent,
                    "request": req,
                }
                if n is not None:
                    rec["count"] = n
                fh.write(json.dumps(rec) + "\n")
        return len(spans)

    def reduce(self) -> dict[str, dict[str, float]]:
        """name -> {calls, self_ms, count}; self time excludes child spans."""
        spans = self.done()
        child_ns = [0] * len(spans)
        for nid, start, end, parent, _req, _n in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (nid, start, end, _parent, _req, n) in enumerate(spans):
            agg = out.setdefault(
                self.names[nid], {"calls": 0, "self_ms": 0.0, "count": 0}
            )
            agg["calls"] += 1
            agg["self_ms"] += (end - start - child_ns[i]) / 1e6
            if n is not None:
                agg["count"] += n
        return out
