"""The pipeline leaves nothing for the cyclic collector: each search breaks
its own reference cycle where it ends (see ``solvers``), so reference
counting frees a verify run, every construction, the selftest checks and a
cold ``all_graphs`` as soon as they return."""

import gc
from collections import Counter

from invdom import constructions, generate, harness, solvers
from invdom.generate import all_graphs, gamma5_corpus
from invdom.graph6 import write_graph6
from test_golden import SMALL_GRAPHS


def run_pipeline(lines: list[str], gamma5: list) -> None:
    harness.verify_stream(lines, harness.RunConfig(), lambda _report: None)
    for g in gamma5:
        d = solvers.gamma(g)[1]
        constructions.theorem_main_construct(g, d)
        constructions.bipartite_inverse_construct(g, d)
        optimal = solvers.optimal_dominating_set(g).d_set
        s = constructions.find_special_independent(g, optimal)
        if s is not None:
            constructions.inddom_construct(g, optimal, s)
        constructions.gamma5_construct(g)
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    for _, isolate_free_only, check in harness.SELFTEST_CHECKS:
        harness.run_check(check, graphs, isolate_free_only)
    generate._ALL_GRAPHS.clear()
    all_graphs(6)


def test_the_pipeline_leaves_no_reference_cycles(monkeypatch):
    monkeypatch.setattr(generate, "_ALL_GRAPHS", {})
    gamma5 = gamma5_corpus(1)
    lines = SMALL_GRAPHS.read_text().splitlines() + [write_graph6(g) for g in gamma5[:80]]
    run_pipeline(lines, gamma5)  # warm-up: first calls may fill caches that live on
    gc.collect()
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        run_pipeline(lines, gamma5)
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what is found, to name it
        unreachable = gc.collect()
        kinds = Counter(getattr(obj, "__qualname__", type(obj).__name__) for obj in gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert unreachable == 0, kinds.most_common(8)
