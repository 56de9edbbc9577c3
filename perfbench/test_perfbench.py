"""Tests of the benchmark's own arithmetic and of its traced run.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import os
import random
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from invdom import generate, graph6, solvers  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402


# -- the probe is frozen ---------------------------------------------------------

def test_probe_and_reference_are_frozen():
    source = inspect.getsource(probe.probe)
    assert hashlib.sha256(source.encode()).hexdigest()[:16] == "f043cbed3f29ce65"
    assert (probe.PROBE_LOOPS, probe.REF_PROBE_S, probe.EXPONENT) == (2_000, 0.0005, 1.13)


# -- normalisation ---------------------------------------------------------------

def uniform_timeline(duration: float, ref: float, count: int = 5) -> probe.Timeline:
    """Probes at t = 1, 2, ..., each lasting ``duration``."""
    return probe.Timeline([(k, k + duration) for k in range(1, count + 1)], ref, 1.0)


def test_probe_time_is_removed_from_intervals():
    tl = uniform_timeline(0.1, 0.1)  # probe at reference speed: factor 1
    assert tl.span(0.5, 2.5) == pytest.approx(2.0 - 0.2)
    assert tl.span(1.02, 1.08) == 0.0
    assert tl.span(1.1, 2.0) == pytest.approx(0.9)
    assert tl.span(5.5, 7.0) == pytest.approx(1.5)  # after the last probe


def test_stretches_are_rescaled_by_the_nearby_probe():
    tl = uniform_timeline(0.2, 0.1)  # probes twice as slow as the reference
    assert tl.span(1.2, 2.0) == pytest.approx(0.4)
    assert tl.span(0.0, 1.0) == pytest.approx(0.5)
    # the slow half of the run counts at its own rate
    mixed = probe.Timeline([(k, k + (0.1 if k <= 4 else 0.2)) for k in range(1, 9)], 0.1, 1.0)
    assert mixed.span(1.1, 2.0) == pytest.approx(0.9)
    assert mixed.span(7.2, 8.0) == pytest.approx(0.4)


def test_a_stretch_is_rescaled_by_the_probes_on_either_side():
    durations = [0.1, 0.1, 0.3, 0.1]
    tl = probe.Timeline([(10 * k, 10 * k + d) for k, d in enumerate(durations)], 0.1, 1.0)
    assert tl.span(0.1, 10.0) == pytest.approx(9.9)
    assert tl.span(10.1, 20.0) == pytest.approx(9.9 * 0.1 / 0.2)
    assert tl.span(20.3, 30.0) == pytest.approx(9.7 * 0.1 / 0.2)
    assert tl.span(30.1, 31.0) == pytest.approx(0.9)


def test_the_rescaling_follows_the_probe_to_a_power():
    tl = probe.Timeline([(1.0, 1.2), (2.0, 2.2)], 0.1, 1.13)
    assert tl.span(1.2, 2.0) == pytest.approx(0.8 * 0.5 ** 1.13)


def test_probe_clock_fires_inside_a_long_call():
    with probe.ProbeClock(interval=0.02) as clock:
        generate._ALL_GRAPHS.clear()
        generate.all_graphs(6)
    assert len(clock.probes) >= 2
    assert all(end > start for start, end in clock.probes)


# -- percentiles -------------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_the_tail():
    values = list(range(1, 101))
    random.Random(3).shuffle(values)
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    with pytest.raises(ValueError):
        run.percentile(values[:99], 90)
    assert run.percentile([5, 1, 3], 50) == 3


# -- self time from nested spans ------------------------------------------------------

def test_self_time_subtracts_child_spans():
    flat = probe.Timeline([(100.0, 100.1)], 0.1)  # factor 1 everywhere before it
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("d", 2.0, 3.0, 1, 0),
        ("c", 5.0, 6.0, 0, 0),
        ("x", 20.0, 30.0, -1, 1),
        ("x", 22.0, 25.0, 4, 1),  # recursive call
    ]
    totals = layer_totals(spans, flat)
    assert totals["a"]["self"] == pytest.approx(6.0)
    assert totals["b"]["self"] == pytest.approx(2.0)
    assert totals["d"]["self"] == pytest.approx(1.0)
    assert totals["x"] == pytest.approx({"calls": 2, "total": 10.0, "self": 10.0})
    only_b = layer_totals(spans, flat, lambda span: span[0] == "b")
    assert only_b == {"b": pytest.approx({"calls": 1, "total": 3.0, "self": 2.0})}


def test_tracer_records_nesting_and_restores_the_program():
    original = solvers.gamma
    tracer = Tracer()
    tracer.install()
    try:
        assert solvers.gamma is not original
        tracer.active = True
        tracer.current_graph = 0
        solvers.enumerate_min_dominating_sets(generate.cycle_graph(5))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert solvers.gamma is original
    names = [s[0] for s in tracer.spans()]
    assert names == ["solvers.enumerate_min_dominating_sets", "solvers.gamma"]
    assert tracer.spans()[1][3] == 0  # gamma's parent is the enumeration
    assert tracer.gamma_sets == 5


# -- inputs ------------------------------------------------------------------------------

def test_graph6_encoder_matches_the_program():
    graphs = [g for n in range(7) for g in generate.all_graphs(n)]
    rng = random.Random(5)
    graphs += [generate.random_graph(rng, n, 0.4) for n in (17, 30, 62)]
    for g in graphs:
        assert workloads.encode_graph6(g.n, g.adj) == graph6.write_graph6(g)


def test_inputs_depend_only_on_the_seed():
    first = [i.line for batch in workloads.random_setup(4, rounds=3) for i in batch]
    again = [i.line for batch in workloads.random_setup(4, rounds=3) for i in batch]
    other = [i.line for batch in workloads.random_setup(5, rounds=3) for i in batch]
    assert first == again != other
    assert all(checks.isolate_free(graph6.parse_graph6(line)) for line in first)


def test_padded_family_has_its_closed_forms():
    g = workloads.padded_c5(3)
    assert solvers.gamma(g)[0] == solvers.alpha(g)[0] == 5
    assert len(solvers.enumerate_min_dominating_sets(g)) == 5 * 2 ** 3


# -- checks catch wrong output --------------------------------------------------------

def test_report_checks_flag_a_wrong_invariant():
    item = workloads.Item(0, workloads.padded_c5(1), "")
    report = json.loads(workloads.verify_one(workloads.encode_graph6(item.graph.n, item.graph.adj)))
    assert checks.report_problems(item, json.dumps(report), []) == []
    assert checks.independent_problems(item, json.dumps(report)) == []
    report["inv_gamma"] = report["gamma"] - 1
    assert checks.report_problems(item, json.dumps(report), [])
    report = dict(report, inv_gamma=report["gamma"], alpha=report["alpha"] + 1)
    assert checks.independent_problems(item, json.dumps(report))


# -- traced and untraced runs give the same reports -------------------------------------

def run_ops(op, items, traced: bool) -> list:
    tracer = Tracer()
    if traced:
        tracer.install()
        tracer.active = True
    try:
        outcomes = [op(item) for item in items]
    finally:
        tracer.uninstall()
    assert bool(tracer.spans()) == traced
    out = []
    for outcome in outcomes:
        report = json.loads(outcome.report)
        report.pop("elapsed_micros")
        out.append((report, [(k, c) for k, c, _ in outcome.certificates], outcome.raised))
    return out


@pytest.mark.parametrize("name", ["exhaustive8", "random_mid", "structured"])
def test_traced_reports_equal_untraced_reports(name):
    if name == "exhaustive8":
        items = workloads.exhaustive_setup(0, n=5)
    elif name == "random_mid":
        items = [i for batch in workloads.random_setup(2, rounds=2) for i in batch]
    else:
        items = workloads.structured_setup(3, ts=(1, 2, 3))[:30]
    op = workloads.WORKLOADS[name].op
    assert run_ops(op, items, traced=True) == run_ops(op, items, traced=False)


def test_command_prints_the_result_last():
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert run.main(["--workload", "random_mid", "--seed", "9", "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(buffer.getvalue().strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    assert result["metrics"]["solvers.gamma.calls"]["value"] == 4.0
