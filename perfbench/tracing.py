"""Spans around the public functions of ``invdom``, recorded from outside.

``Tracer.install`` replaces each traced function, in every ``invdom``
module that holds a reference to it, by a wrapper that records a span
(name, start, end, parent span, graph id).  Calls inside a module go
through its globals, so they are traced too.  Spans stay in memory in
flat arrays and are written out once, at the end of the run.

The primitives in ``invdom.graph`` are not wrapped: at a microsecond per
call, a wrapper would distort the timing it measures.  Their cost shows in
their callers' self time.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from typing import Callable

from probe import Timeline, now

# (module, function) pairs whose calls are recorded as spans
TRACED = (
    ("generate", "all_graphs"),
    ("generate", "canonical_form"),
    ("generate", "gamma5_corpus"),
    ("graph6", "parse_graph6"),
    ("graph6", "write_graph6"),
    ("harness", "verify_stream"),
    ("harness", "analyze_graph"),
    ("solvers", "gamma"),
    ("solvers", "alpha"),
    ("solvers", "enumerate_min_dominating_sets"),
    ("solvers", "inverse_gamma"),
    ("solvers", "strong_inverse_gamma"),
    ("solvers", "min_dominating_within"),
    ("solvers", "max_induced_bipartite"),
    ("solvers", "optimal_dominating_set"),
    ("constructions", "theorem_main_construct"),
    ("constructions", "bipartite_inverse_construct"),
    ("constructions", "gamma5_construct"),
    ("constructions", "find_special_independent"),
    ("constructions", "inddom_construct"),
    ("certificates", "check_inverse_certificate"),
)

NO_PARENT = -1


class Tracer:
    """Span recorder; ``active`` switches recording on and off."""

    def __init__(self) -> None:
        self.names = [f"{module}.{func}" for module, func in TRACED]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.graph = array("i")
        self.gamma_sets = 0  # counted in the timed phase only, like within_found
        self.within_found = 0
        self.current_graph = -1
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _wrap(self, index: int, fn: Callable) -> Callable:
        on_result = {
            "solvers.enumerate_min_dominating_sets": self._count_sets,
            "solvers.min_dominating_within": self._count_found,
        }.get(self.names[index])

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(self.start)
            self.name_id.append(index)
            self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
            self.graph.append(self.current_graph)
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = now()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_sets(self, result: list[int]) -> None:
        if self.current_graph >= 0:
            self.gamma_sets += len(result)

    def _count_found(self, result: object) -> None:
        if self.current_graph >= 0 and result is not None:
            self.within_found += 1

    def install(self) -> None:
        """Wrap every traced function wherever an ``invdom`` module binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "invdom" or name.startswith("invdom.")]
        for index, (module_name, func_name) in enumerate(TRACED):
            original = getattr(sys.modules[f"invdom.{module_name}"], func_name)
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int, int]]:
        return [
            (self.names[self.name_id[i]], self.start[i], self.end[i],
             self.parent[i], self.graph[i])
            for i in range(len(self.start))
        ]

    def write(self, path: str) -> None:
        """Dump every span as a tab-separated line (raw thread CPU seconds), gzipped."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as out:
            out.write("span\tname\tstart\tend\tparent\tgraph\n")
            for i, (name, start, end, parent, graph) in enumerate(self.spans()):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{graph}\n")


def layer_totals(
    spans: list[tuple[str, float, float, int, int]],
    timeline: Timeline,
    keep: Callable[[tuple], bool] = lambda _span: True,
) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self time, both normalised.

    Self time is a span's duration minus the durations of its direct
    children; a recursive call is its own child, so ``total`` counts only
    outermost spans of a name while ``self`` sums over all of them.  Only
    spans for which ``keep`` holds are counted.
    """
    length = [timeline.span(start, end) for _, start, end, _, _ in spans]
    own = list(length)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent != NO_PARENT:
            own[parent] -= length[i]
    totals: dict[str, dict[str, float]] = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        if not keep(spans[i]):
            continue
        entry = totals.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["self"] += own[i]
        if not _has_ancestor(spans, parent, name):
            entry["total"] += length[i]
    return totals


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent != NO_PARENT:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
