"""Span tracer for the benchmark's per-layer numbers.

The tracer times calls into the library's public functions without editing
the library: ``install`` replaces each traced name in every ``critcolor``
module namespace that binds it (that is where a caller looks the name up at
call time) with a wrapper that records a span, and ``uninstall`` puts the
original objects back.  Spans live in flat in-memory arrays while the traced
pass runs and are written out once at the end.

A span is (id, parent id, name, start, end, trace id).  The trace id names
the input graph or workload pass that caused the span; the parent is the
span open at call time, so spans nest exactly because the library is
single-threaded and every traced function returns before its caller does.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Iterable, Optional

# Public functions traced in each library module.  ``cli`` is left out: it is
# argparse glue around these same calls.
LAYER_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "graphs": ("parse_graph6", "to_graph6", "is_connected"),
    "patterns": ("find_induced_subgraph", "find_induced"),
    "chroma": ("is_k_colorable", "chromatic_number", "clique_number"),
    "cograph": ("recognize",),
    "construct": ("color_kk_free",),
    "critical": ("criticality_report", "find_comparable_nonadjacent", "certify_k_colorable"),
    "enumeration": ("canonical_form",),
}

def _found(result: Any) -> bool:
    return result is not None


# Outcome ratios where a layer can waste work: metric name and the test on a
# call's result.  A test of None means "distinct results over calls".
OUTCOMES: dict[str, tuple[str, Optional[Callable[[Any], bool]]]] = {
    "enumeration.canonical_form": ("unique_ratio", None),
    "patterns.find_induced_subgraph": ("hit_ratio", _found),
    "chroma.is_k_colorable": ("colourable_ratio", _found),
    "critical.criticality_report": ("verdict_ratio", lambda report: report.verdict),
}


def traced_names(roots: Iterable[str] = ()) -> list[str]:
    """Every span name a traced run can report: the given root spans, which
    the caller opens around its operations, then the layer functions."""
    return list(roots) + [
        f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns
    ]


class Tracer:
    """In-memory span recorder.  ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("q")
        self.trace = array("q")
        self.start = array("d")
        self.end = array("d")
        self.outcomes: dict[str, Counter] = {}
        self.trace_id = 0
        self._stack = [-1]
        self._patched: list[tuple[Any, str, Any]] = []

    def _intern(self, name: str) -> int:
        code = self._code.get(name)
        if code is None:
            code = self._code[name] = len(self.names)
            self.names.append(name)
        return code

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return fn wrapped so that every call records one span."""
        code = self._intern(name)
        outcome = OUTCOMES.get(name)
        test = outcome[1] if outcome else None
        outcomes = self.outcomes.setdefault(name, Counter()) if outcome else None
        clock, stack = self.clock, self._stack
        name_of, parent, trace, start, end = self.name_of, self.parent, self.trace, self.start, self.end
        tracer = self

        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(code)
            parent.append(stack[-1])
            trace.append(tracer.trace_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if outcomes is not None:
                outcomes[result if test is None else bool(test(result))] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced name wherever a critcolor module binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "critcolor" or k.startswith("critcolor."))]
        for layer, fns in LAYER_FUNCTIONS.items():
            owner = sys.modules[f"critcolor.{layer}"]
            for fn_name in fns:
                original = getattr(owner, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Put back every name that install replaced."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.
        Children of one span run one after another, so they never overlap."""
        covered = [0.0] * len(self.start)
        for sid in range(len(self.start)):
            p = self.parent[sid]
            if p >= 0:
                covered[p] += self.end[sid] - self.start[sid]
        return [self.end[sid] - self.start[sid] - covered[sid] for sid in range(len(self.start))]

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over every recorded span."""
        out: dict[str, list] = {}
        for sid, self_s in enumerate(self.self_times()):
            acc = out.setdefault(self.names[self.name_of[sid]], [0, 0.0])
            acc[0] += 1
            acc[1] += self_s
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def root_seconds(self) -> float:
        """Wall time inside root spans: the traced run's run time."""
        return sum(self.end[s] - self.start[s] for s in range(len(self.start)) if self.parent[s] < 0)

    def layer_metrics(self, roots: Iterable[str] = ()) -> dict[str, float]:
        """calls, self_s and share for every traced name and root span (zero
        where a workload never calls it), plus the outcome ratios."""
        totals = self.totals()
        run_s = self.root_seconds()
        metrics: dict[str, float] = {}
        for name in traced_names(roots):
            calls, self_s = totals.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = self_s
            metrics[f"{name}.share"] = self_s / run_s if run_s else 0.0
            if name in OUTCOMES:
                ratio, test = OUTCOMES[name]
                seen = self.outcomes.get(name, Counter())
                hits = len(seen) if test is None else seen[True]
                metrics[f"{name}.{ratio}"] = hits / calls if calls else 0.0
        return metrics

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line:
        id, parent, name, start, end, trace id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\ttrace\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{names[self.name_of[sid]]}\t"
                         f"{self.start[sid]!r}\t{self.end[sid]!r}\t{self.trace[sid]}\n")
