"""Benchmark of ``invdom verify`` and the certificate constructions.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exhaustive8 --seed 1 --seconds 10 --trace 0

Builds the workload's inputs from the seed (timed as set-up), then repeats
whole rounds of operations for ``--seconds`` seconds with one job, checks
the outputs (one per distinct graph), and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
run with spans around the public functions of each module.  Every time is
probe-normalised (see probe.py).  The line before the result holds the raw
seconds and the probe's spread.  Reports and span dumps go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
DIGEST_GRAPHS = 50  # reports hashed for comparing traced and untraced runs


def import_program():
    """Import ``invdom`` from this checkout's ``src``, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import invdom
    except ImportError as exc:
        sys.exit(f"cannot import invdom from {src}: {exc}")
    if not os.path.abspath(invdom.__file__).startswith(src + os.sep):
        sys.exit(f"invdom came from {invdom.__file__}, not from {src}")


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile; a tail one needs ten samples above it."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))  # ceil(pct * n / 100)
    beyond = len(ordered) - rank
    if pct > 50 and beyond < 10:
        raise ValueError(f"p{pct} of {len(ordered)} samples has only {beyond} beyond it")
    return ordered[rank - 1]


def run_timed(workload, inputs, seed: int, seconds: float, tracer):
    """Whole rounds until ``seconds`` of wall time have passed.

    Returns each operation's (start, end) on the thread's CPU clock, the
    (item, outcome) of each distinct graph's first operation, and the number
    of operations that failed.  Later operations on the same graph are timed
    but their outcomes are dropped, and the times are kept in flat arrays,
    so memory hardly grows with throughput.
    """
    from probe import now

    starts, ends = array("d"), array("d")
    outputs = {}
    failed = 0
    deadline = time.perf_counter() + seconds
    for batch in workload.rounds(inputs, seed):
        if starts and time.perf_counter() >= deadline:
            break
        for item in batch:
            if tracer is not None:
                tracer.current_graph = len(starts)
            starts.append(now())
            outcome = workload.op(item)
            ends.append(now())
            failed += bool(outcome.raised)
            outputs.setdefault(item.index, (item, outcome))
    return list(zip(starts, ends)), list(outputs.values()), failed


def layer_metrics(tracer, timeline, graphs: int, setups: int, raised: int) -> dict:
    from tracing import layer_totals

    spans = tracer.spans()
    in_setup = layer_totals(spans, timeline, lambda span: span[4] < 0)
    in_ops = layer_totals(spans, timeline, lambda span: span[4] >= 0)
    zero = {"calls": 0, "total": 0.0, "self": 0.0}
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def per_setup(name, field, metric):
        value = in_setup.get(name, zero)[field] / setups
        put(metric, value, "count" if field == "calls" else "ref-s")

    def per_graph(name, field, metric):
        value = in_ops.get(name, zero)[field] / graphs
        put(metric, value if field == "calls" else 1000 * value,
            "calls/graph" if field == "calls" else "ref-ms/graph")

    per_setup("generate.all_graphs", "self", "generate.all_graphs.self_s")
    per_setup("generate.canonical_form", "calls", "generate.canonical_form.calls")
    per_setup("generate.canonical_form", "total", "generate.canonical_form.s")
    per_setup("generate.gamma5_corpus", "self", "generate.gamma5_corpus.self_s")
    for name in ("graph6.parse_graph6", "graph6.write_graph6"):
        per_graph(name, "total", f"{name}.s")
    for name in ("harness.verify_stream", "harness.analyze_graph", "solvers.inverse_gamma",
                 "solvers.strong_inverse_gamma", "solvers.optimal_dominating_set",
                 "constructions.theorem_main_construct",
                 "constructions.bipartite_inverse_construct",
                 "constructions.gamma5_construct", "constructions.inddom_construct"):
        per_graph(name, "self", f"{name}.self_s")
    for name in ("solvers.gamma", "solvers.alpha", "solvers.enumerate_min_dominating_sets",
                 "solvers.min_dominating_within", "certificates.check_inverse_certificate"):
        per_graph(name, "calls", f"{name}.calls")
        per_graph(name, "total", f"{name}.s")
    for name in ("solvers.max_induced_bipartite", "constructions.find_special_independent"):
        per_graph(name, "total", f"{name}.s")
    put("solvers.gamma_sets", tracer.gamma_sets / graphs, "sets/graph")
    within = in_ops.get("solvers.min_dominating_within", zero)["calls"]
    put("solvers.min_dominating_within.found_ratio",
        tracer.within_found / within if within else 0.0, "ratio")
    put("constructions.raised", raised, "count")
    return metrics


def probe_summary(timeline) -> dict:
    ms = sorted(1000 * d for d in timeline.durations())
    deciles = statistics.quantiles(ms, n=10) if len(ms) > 1 else ms * 9
    return {"count": len(ms), "min_ms": ms[0], "p10_ms": deciles[0],
            "median_ms": statistics.median(ms), "p90_ms": deciles[-1], "max_ms": ms[-1]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, HERE)
    import checks
    from probe import ProbeClock, now
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    setup_spans = []  # (CPU start, CPU end, wall seconds)
    with ProbeClock() as clock:
        if tracer is not None:
            tracer.active = True
        for _ in range(workload.setup_repeats):
            wall, start = time.perf_counter(), now()
            inputs = workload.setup(args.seed)
            setup_spans.append((start, now(), time.perf_counter() - wall))
        wall, timed_start = time.perf_counter(), now()
        spans, outputs, failed = run_timed(workload, inputs, args.seed, args.seconds, tracer)
        timed_end, timed_wall = now(), time.perf_counter() - wall
        if tracer is not None:
            tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    timeline = clock.timeline()

    # -- correctness, outside the timed phase
    open_false: list[str] = []
    problems = checks.CHECKS[workload.name](inputs, outputs, args.seed, open_false)
    for problem in problems[:50]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for g6 in open_false:
        print(f"conjecture_ok false outside the proved range: {g6}", file=sys.stderr)

    # -- outputs for audit
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".reports.jsonl", "w", encoding="ascii") as handle:
        for _, outcome in outputs:
            handle.write(outcome.report + "\n")
    if tracer is not None:
        tracer.write(stem + ".spans.tsv.gz")
    digest = hashlib.sha256()
    for _, outcome in outputs[:DIGEST_GRAPHS]:
        fields = json.loads(outcome.report)
        fields.pop("elapsed_micros", None)
        digest.update(json.dumps(fields, sort_keys=True).encode())

    graphs = len(spans)
    timed_ref = timeline.span(timed_start, timed_end)
    latencies = [timeline.span(start, end) for start, end in spans]
    setups_ref = [timeline.span(a, b) for a, b, _ in setup_spans]
    print(json.dumps({"audit": {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "graphs": graphs, "open_conjecture_false": len(open_false),
        "check_problems": len(problems),
        "wall_setup_s": [w for _, _, w in setup_spans],
        "cpu_setup_s": [b - a for a, b, _ in setup_spans], "setup_ref_s": setups_ref,
        "wall_timed_s": timed_wall, "cpu_timed_s": timed_end - timed_start,
        "timed_ref_s": timed_ref,
        "wall_graphs_per_s": graphs / timed_wall,
        "cpu_graphs_per_s": graphs / (timed_end - timed_start),
        "graphs_per_ref_s": graphs / timed_ref,
        "probe": probe_summary(timeline),
        "distinct_graphs": len(outputs),
        "reports_sha256_first": [min(len(outputs), DIGEST_GRAPHS), digest.hexdigest()],
    }}))

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setups_ref), "unit": "s"},
            "graphs_per_s": {"value": graphs / timed_ref, "unit": "graphs/ref-s"},
            "graph_p50_ms": {"value": 1000 * percentile(latencies, 50), "unit": "ref-ms"},
            "graph_p90_ms": {"value": 1000 * percentile(latencies, 90), "unit": "ref-ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = layer_metrics(tracer, timeline, graphs, workload.setup_repeats, failed)
    print(json.dumps({"correct": not problems, "attempted": graphs, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
