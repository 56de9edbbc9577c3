"""Report computation, corpus verification, tightness search, and selftest.

One GraphReport per input graph, serialized as JSONL with a fixed field
order.  Checks are individually toggleable; undefined quantities (inverse
domination on graphs with isolates) are omitted rather than faked, and the
three-halves bound is evaluated in exact integer arithmetic.  gamma^-1 and
strong gamma^-1 come from one pass over the minimum dominating sets, run
once per isolate-free graph when any check needs either.  A verify run uses
``RunConfig.jobs`` worker processes (the CLI's ``--jobs``, default 1) and
emits reports in input order either way.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Callable, Iterable, Iterator

from . import constructions, generate, naive, solvers
from .errors import Graph6Error, InternalContradiction
from .graph import Graph, bits, mask_of
from .graph6 import parse_graph6, write_graph6

ALL_CHECKS = frozenset({"conjecture", "three_halves", "main_thm", "strong", "b"})

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_PRECONDITION = 3
EXIT_CONTRADICTION = 4

_REPORT_FIELDS = (
    "graph6",
    "n",
    "m",
    "gamma",
    "alpha",
    "inv_gamma",
    "strong_inv_gamma",
    "b",
    "conjecture_ok",
    "three_halves_ok",
    "main_thm_ok",
    "elapsed_micros",
)


@dataclass
class GraphReport:
    """One record of invariants and bound checks for a single graph."""

    graph6: str
    n: int
    m: int
    gamma: int
    alpha: int
    inv_gamma: int | None = None
    strong_inv_gamma: int | None = None
    b: int | None = None
    conjecture_ok: bool | None = None
    three_halves_ok: bool | str | None = None
    main_thm_ok: bool | None = None
    elapsed_micros: int = 0
    contradiction: bool = False

    def failed_checks(self) -> list[str]:
        out = []
        if self.conjecture_ok is False:
            out.append("conjecture")
        if self.three_halves_ok is False:
            out.append("three_halves")
        if self.main_thm_ok is False:
            out.append("main_thm")
        return out

    def to_json(self) -> str:
        payload = {}
        for name in _REPORT_FIELDS:
            value = getattr(self, name)
            if value is None:
                continue
            payload[name] = value
        return json.dumps(payload, separators=(",", ":"))


@dataclass
class RunConfig:
    """Knobs for a verify run."""

    checks: frozenset[str] = ALL_CHECKS
    jobs: int = 1
    strict: bool = False


def analyze_graph(
    g: Graph, graph6_str: str | None = None, checks: frozenset[str] = ALL_CHECKS
) -> GraphReport:
    """Compute every requested invariant and bound check for one graph."""
    start = time.perf_counter_ns()
    if graph6_str is None:
        graph6_str = write_graph6(g)
    gamma_value, gamma_witness = solvers.gamma(g)
    alpha_value, _ = solvers.alpha(g)
    report = GraphReport(
        graph6=graph6_str, n=g.n, m=g.m, gamma=gamma_value, alpha=alpha_value
    )
    if "b" in checks:
        report.b = solvers.max_induced_bipartite(g)[0]
    isolate_free = g.n > 0 and not g.has_isolated_vertex()
    if isolate_free:
        if checks & {"conjecture", "three_halves", "strong"}:
            inv_gamma, _, strong_inv_gamma = solvers.inverse_pass(g)
            if checks & {"conjecture", "three_halves"}:
                report.inv_gamma = inv_gamma
            if "conjecture" in checks:
                report.conjecture_ok = inv_gamma <= alpha_value
            if "three_halves" in checks:
                if g.is_clique():
                    report.three_halves_ok = "n/a"
                else:
                    report.three_halves_ok = 2 * inv_gamma <= 3 * alpha_value - 2
            if "strong" in checks:
                report.strong_inv_gamma = strong_inv_gamma
        if "main_thm" in checks:
            try:
                cert = constructions.theorem_main_construct(g, gamma_witness)
            except InternalContradiction:
                report.main_thm_ok = False
                report.contradiction = True
            else:
                report.main_thm_ok = (
                    cert.t_set.bit_count() <= alpha_value + (gamma_value - 1) // 2
                )
    report.elapsed_micros = (time.perf_counter_ns() - start) // 1000
    return report


# -- verify -----------------------------------------------------------------------

@dataclass
class VerifySummary:
    graphs: int = 0
    failures: int = 0
    skipped_isolates: int = 0
    parse_errors: int = 0
    contradictions: int = 0
    failing_graph6: list[str] = field(default_factory=list)

    def exit_code(self) -> int:
        if self.contradictions:
            return EXIT_CONTRADICTION
        if self.failures:
            return EXIT_CHECK_FAILED
        return EXIT_OK


def _verify_line(args: tuple[int, str, frozenset[str]]) -> tuple[int, str | None, GraphReport | None]:
    lineno, line, checks = args
    try:
        g = parse_graph6(line)
    except Graph6Error as exc:
        return lineno, f"line {lineno}: {exc}", None
    return lineno, None, analyze_graph(g, line.strip(), checks)


def verify_stream(
    lines: Iterable[str],
    config: RunConfig,
    sink: Callable[[str], None],
    log: Callable[[str], None] = lambda _msg: None,
) -> VerifySummary:
    """Verify a stream of graph6 lines; emit one JSONL report per graph.

    Reports are emitted in input order at any parallelism.  A parse error
    skips the line (and is reported) unless ``strict`` is set.
    """
    summary = VerifySummary()
    work = (
        (lineno, line, config.checks)
        for lineno, line in enumerate(lines, start=1)
        if line.strip()
    )

    def results() -> Iterator[tuple[int, str | None, GraphReport | None]]:
        if config.jobs <= 1:
            for item in work:
                yield _verify_line(item)
        else:
            with Pool(config.jobs) as pool:
                yield from pool.imap(_verify_line, work, chunksize=16)

    for lineno, error, report in results():
        if error is not None:
            summary.parse_errors += 1
            log(error)
            if config.strict:
                break
            continue
        assert report is not None
        summary.graphs += 1
        if report.inv_gamma is None and config.checks & {"conjecture", "three_halves"}:
            summary.skipped_isolates += 1
        failed = report.failed_checks()
        if report.contradiction:
            summary.contradictions += 1
        if failed:
            summary.failures += 1
            summary.failing_graph6.append(report.graph6)
            log(f"line {lineno}: FAILED {','.join(failed)} {report.graph6}")
        sink(report.to_json())
    return summary


# -- search ------------------------------------------------------------------------

def search_run(
    n: int,
    p: float,
    count: int,
    seed: int,
    sink: Callable[[str], None],
) -> dict:
    """Seeded hunt for instances tightening the conjecture and main bound.

    Emits a JSONL event whenever a generated graph achieves a new maximum of
    inv_gamma/alpha or of |T|/bound for the main construction.  Output is
    integer-only and deterministic for a fixed seed.
    """
    import random

    rng = random.Random(seed)
    best_inv: tuple[int, int] | None = None  # ratio as a fraction
    best_main: tuple[int, int] | None = None
    counterexamples = 0

    def stream() -> Iterator[Graph]:
        yield generate.star_graph(n - 1)
        if n >= 3:
            yield generate.cycle_graph(n)
        yield generate.path_graph(n)
        attempts = 0
        while attempts < 60 * count:
            attempts += 1
            g = generate.random_graph(rng, n, p)
            if not g.has_isolated_vertex():
                yield g

    produced = 0
    for g in stream():
        if produced >= count:
            break
        produced += 1
        gamma_value, gamma_witness = solvers.gamma(g)
        alpha_value, _ = solvers.alpha(g)
        inv = solvers.inverse_gamma(g)[0]
        cert = constructions.theorem_main_construct(g, gamma_witness)
        bound = alpha_value + (gamma_value - 1) // 2
        g6 = write_graph6(g)
        if inv > alpha_value:
            counterexamples += 1
            sink(json.dumps({
                "event": "counterexample", "graph6": g6, "n": g.n,
                "inv_gamma": inv, "alpha": alpha_value,
            }, separators=(",", ":")))
        if best_inv is None or inv * best_inv[1] > best_inv[0] * alpha_value:
            best_inv = (inv, alpha_value)
            sink(json.dumps({
                "event": "new_max", "metric": "inv_over_alpha", "graph6": g6,
                "n": g.n, "gamma": gamma_value, "alpha": alpha_value,
                "inv_gamma": inv,
            }, separators=(",", ":")))
        t_size = cert.t_set.bit_count()
        if best_main is None or t_size * best_main[1] > best_main[0] * bound:
            best_main = (t_size, bound)
            sink(json.dumps({
                "event": "new_max", "metric": "construction_over_bound",
                "graph6": g6, "n": g.n, "t_size": t_size, "bound": bound,
            }, separators=(",", ":")))
    summary = {
        "event": "summary", "graphs": produced,
        "best_inv_over_alpha": list(best_inv) if best_inv else None,
        "best_construction_over_bound": list(best_main) if best_main else None,
        "counterexamples": counterexamples,
    }
    sink(json.dumps(summary, separators=(",", ":")))
    return summary


# -- selftest -----------------------------------------------------------------------

def selftest(max_n: int = 7, out: Callable[[str], None] = print) -> bool:
    """Run the invariant suite over the built-in corpus; True iff all pass.

    Covers codec round-trips, solver-vs-oracle equivalence, the Ore
    complement property, optimal-set audits, the ISR pair machinery, and
    single-edge padding.  Prints one line with a count per property.
    """
    from itertools import permutations

    results: list[tuple[str, int, int]] = []  # (name, checked, failed)

    def run(name: str, pairs: Iterable[bool]) -> None:
        checked = failed = 0
        for ok in pairs:
            checked += 1
            if not ok:
                failed += 1
        results.append((name, checked, failed))

    small = [g for n in range(1, max_n + 1) for g in generate.all_graphs(n)]
    isolate_free = [g for g in small if not g.has_isolated_vertex()]

    run("graph6 round-trip", (parse_graph6(write_graph6(g)) == g for g in small))
    run(
        "gamma vs oracle",
        (solvers.gamma(g)[0] == naive.gamma_naive(g)[0] for g in small),
    )
    run(
        "alpha vs oracle",
        (solvers.alpha(g)[0] == naive.alpha_naive(g)[0] for g in small),
    )
    run(
        "inverse gamma vs oracle",
        (
            solvers.inverse_gamma(g)[0] == naive.inverse_gamma_naive(g)
            for g in isolate_free
        ),
    )
    run(
        "strong inverse vs oracle",
        (
            solvers.strong_inverse_gamma(g) == naive.strong_inverse_gamma_naive(g)
            for g in isolate_free
        ),
    )
    run(
        "induced bipartite vs oracle",
        (solvers.max_induced_bipartite(g)[0] == naive.b_naive(g) for g in small),
    )

    def ore_cases() -> Iterator[bool]:
        for g in isolate_free:
            for d in solvers.enumerate_min_dominating_sets(g):
                yield g.is_dominating(g.full & ~d)

    run("Ore complement dominates", ore_cases())

    def optimal_cases() -> Iterator[bool]:
        for g in isolate_free:
            cert = solvers.optimal_dominating_set(g)
            if constructions.lemma41_check(g, cert):
                yield False
                continue
            outcome = constructions.biglemma_trichotomy(g, cert)
            yield outcome.found_s is not None or outcome.conditions is not None

    run("optimal-set audits", optimal_cases())

    def main_cases() -> Iterator[bool]:
        from .certificates import check_inverse_certificate

        for g in isolate_free:
            k, _ = solvers.gamma(g)
            a, _ = solvers.alpha(g)
            for d in solvers.enumerate_min_dominating_sets(g):
                cert = constructions.theorem_main_construct(g, d)
                ok = not check_inverse_certificate(g, cert, k)
                yield ok and cert.t_set.bit_count() <= a + (k - 1) // 2

    run("main construction in bound", main_cases())

    def pair_cases() -> Iterator[bool]:
        for g in isolate_free:
            for d in solvers.enumerate_min_dominating_sets(g):
                dverts = list(bits(d))
                for fbits in range(1, 1 << len(dverts)):
                    f = mask_of(
                        dverts[i] for i in range(len(dverts)) if fbits >> i & 1
                    )
                    if not g.is_independent(f):
                        continue
                    if constructions.expand_to_maximal_independent(g, f, d) != f:
                        continue
                    rest = sorted(bits(d & ~f))
                    orderings = list(permutations(rest)) if len(rest) <= 3 else [tuple(rest)]
                    for ordering in orderings:
                        pair = constructions.two_partial_isrs(g, d, f, ordering)
                        universe = g.full & ~d & ~g.open_neighborhood(f)
                        cells = constructions.standard_partition(g, ordering, universe).cells
                        big = constructions.max_partial_isr(g, cells)
                        ok = not constructions.validate_isr_pair(g, cells, pair)
                        yield ok and 2 * big.size >= len(cells)

    run("ISR pair machinery", pair_cases())

    def padding_cases() -> Iterator[bool]:
        bases = [g for g in isolate_free if g.n <= 6][:40]
        for g in bases:
            k = solvers.gamma(g)[0]
            a = solvers.alpha(g)[0]
            inv = solvers.inverse_gamma(g)[0]
            for t in (1, 2):
                padded = constructions.pad_with_k2(g, t)
                yield (
                    solvers.gamma(padded)[0] == k + t
                    and solvers.alpha(padded)[0] == a + t
                    and solvers.inverse_gamma(padded)[0] == inv + t
                )

    run("single-edge padding shifts", padding_cases())

    all_ok = True
    for name, checked, failed in results:
        status = "PASS" if failed == 0 else "FAIL"
        out(f"{status}  {name}: {checked - failed}/{checked}")
        if failed:
            all_ok = False
    return all_ok
