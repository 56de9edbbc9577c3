"""Report computation, corpus verification, tightness search, and selftest.

One GraphReport per input graph, serialized as JSONL with a fixed field
order.  Checks are individually toggleable; undefined quantities (inverse
domination on graphs with isolates) are omitted rather than faked, and the
three-halves bound is evaluated in exact integer arithmetic.  gamma^-1 and
strong gamma^-1 come from one pass over the minimum dominating sets, run
once per isolate-free graph when any check needs either.  A verify run uses
``RunConfig.jobs`` worker processes (the CLI's ``--jobs``, default 1) and
emits reports in input order either way.  ``search_run`` reads gamma,
alpha, gamma^-1 and the main certificate from ``analyze_graph`` rather than
computing them itself.  ``main_thm_ok`` is True whenever the main
construction returns: it certifies |T| <= alpha + floor((gamma-1)/2) itself,
against that exact bound, and raises InternalContradiction otherwise, which
the report records as False with its reproducer.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import permutations
from multiprocessing import Pool
from typing import Callable, Iterable, Iterator

from . import constructions, generate, naive, solvers
from .certificates import InverseCertificate, check_inverse_certificate
from .errors import Graph6Error, InternalContradiction, TooLarge
from .graph import Graph, bits, mask_of, to_sorted
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
    # Kept out of the JSONL report: the main construction's certificate, read
    # by search_run, and the InternalContradiction.reproducer() of a failed
    # construction, logged by verify_stream and search_run.
    main_cert: InverseCertificate | None = None
    contradiction: dict | None = None

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
            except InternalContradiction as exc:
                report.main_thm_ok = False
                report.contradiction = exc.reproducer(graph6_str)
            else:
                report.main_cert = cert
                report.main_thm_ok = True
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
    except (Graph6Error, TooLarge) as exc:
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
            log(f"line {lineno}: contradiction {json.dumps(report.contradiction)}")
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
    log: Callable[[str], None] = lambda _msg: None,
) -> dict:
    """Seeded hunt for instances tightening the conjecture and main bound.

    Emits a JSONL event whenever a generated graph achieves a new maximum of
    inv_gamma/alpha or of |T|/bound for the main construction, both read
    from ``analyze_graph``.  Output is integer-only and deterministic for a
    fixed seed.  A failed construction logs its reproducer; the returned
    summary adds the count of these to the one emitted.
    """
    import random

    rng = random.Random(seed)
    best_inv: tuple[int, int] | None = None  # ratio as a fraction
    best_main: tuple[int, int] | None = None
    counterexamples = 0
    contradictions = 0

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
        report = analyze_graph(g, checks=frozenset({"conjecture", "main_thm"}))
        g6, inv, alpha_value = report.graph6, report.inv_gamma, report.alpha
        if report.conjecture_ok is False:
            counterexamples += 1
            sink(json.dumps({
                "event": "counterexample", "graph6": g6, "n": g.n,
                "inv_gamma": inv, "alpha": alpha_value,
            }, separators=(",", ":")))
        if best_inv is None or inv * best_inv[1] > best_inv[0] * alpha_value:
            best_inv = (inv, alpha_value)
            sink(json.dumps({
                "event": "new_max", "metric": "inv_over_alpha", "graph6": g6,
                "n": g.n, "gamma": report.gamma, "alpha": alpha_value,
                "inv_gamma": inv,
            }, separators=(",", ":")))
        if report.contradiction:
            contradictions += 1
            log(f"graph {produced}: contradiction {json.dumps(report.contradiction)}")
            continue
        t_size, bound = report.main_cert.t_set.bit_count(), report.main_cert.bound_value
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
    return {**summary, "contradictions": contradictions}


# -- selftest -----------------------------------------------------------------------
# A check maps one graph to its problems, none when the invariant holds.

def _compare(label: str, got: int, oracle: int) -> list[str]:
    return [] if got == oracle else [f"{label} = {got}, oracle says {oracle}"]


def check_graph6_roundtrip(g: Graph) -> list[str]:
    back = parse_graph6(write_graph6(g))
    return [] if back == g else [f"decodes to {write_graph6(back)}"]


def check_gamma(g: Graph) -> list[str]:
    return _compare("gamma", solvers.gamma(g)[0], naive.gamma_naive(g)[0])


def check_alpha(g: Graph) -> list[str]:
    return _compare("alpha", solvers.alpha(g)[0], naive.alpha_naive(g)[0])


def check_inverse_gamma(g: Graph) -> list[str]:
    return _compare("inverse gamma", solvers.inverse_pass(g)[0], naive.inverse_gamma_naive(g))


def check_strong_inverse_gamma(g: Graph) -> list[str]:
    return _compare("strong", solvers.inverse_pass(g)[2], naive.strong_inverse_gamma_naive(g))


def check_induced_bipartite(g: Graph) -> list[str]:
    return _compare("b", solvers.max_induced_bipartite(g)[0], naive.b_naive(g))


def check_component_split(g: Graph) -> list[str]:
    """Solving by component gives the values of one search over the whole
    graph: gamma, alpha, b, the optimal gamma-set and, when g is
    isolate-free, the inverse pass.  The alpha, b and optimal-set witnesses
    and the inverse certificate's D are the whole graph's too.  The gamma
    witness and the certificate's T join each part's first least cover,
    which need not be the whole graph's first, so they are checked for
    validity: the gamma witness dominates with size gamma, and the
    certificate passes ``check_inverse_certificate`` against gamma."""
    covers = solvers._domination_covers(g)
    size, witness = solvers.gamma(g)
    cert = solvers.optimal_dominating_set(g)
    pairs = [
        ("gamma", size, solvers._gamma_part(covers, g.full)[0]),
        ("alpha", solvers.alpha(g), solvers._max_sides(g, g.full, 1)),
        ("b", solvers.max_induced_bipartite(g), solvers._max_sides(g, g.full, 2)),
        (
            "optimal (-alpha(D), edges, D)",
            (-cert.alpha_of_d, cert.induced_edges, cert.d_set),
            solvers._optimal_part(g, covers, g.full),
        ),
    ]
    problems = []
    if witness.bit_count() != size or not g.is_dominating(witness):
        problems.append(f"gamma witness {to_sorted(witness)} is no dominating set of size {size}")
    if not g.has_isolated_vertex():
        inverse_size, inverse, strong = solvers.inverse_pass(g)
        whole_size, _, whole_d, whole_strong = solvers._inverse_part(covers, g.full)
        pairs.append((
            "inverse pass (size, D, strong)",
            (inverse_size, inverse.d_set, strong),
            (whole_size, whole_d, whole_strong),
        ))
        problems += [f"inverse certificate: {p}" for p in check_inverse_certificate(g, inverse, size)]
    return problems + [
        f"{label}: by component {split}, whole graph {whole}"
        for label, split, whole in pairs
        if split != whole
    ]


def check_ore_complement(g: Graph) -> list[str]:
    """V - D dominates for every minimum dominating set D (Ore)."""
    return [
        f"V - D does not dominate for D = {to_sorted(d)}"
        for d in solvers.enumerate_min_dominating_sets(g)
        if not g.is_dominating(g.full & ~d)
    ]


def check_optimal_set(g: Graph) -> list[str]:
    """The optimal gamma-set passes the Lemma 4.1 audit and the trichotomy."""
    cert = solvers.optimal_dominating_set(g)
    violations = constructions.lemma41_check(g, cert)
    if violations:
        return [f"D = {to_sorted(cert.d_set)}: (vertex, private count) {violations}"]
    constructions.biglemma_trichotomy(g, cert)  # raises LemmaViolated if neither branch holds
    return []


def check_main_construction(g: Graph) -> list[str]:
    """For every gamma-set, the main construction re-checks within its bound."""
    k = solvers.gamma(g)[0]
    problems = []
    for d in solvers.enumerate_min_dominating_sets(g):
        cert = constructions.theorem_main_construct(g, d)
        problems += [
            f"D = {to_sorted(d)}: {problem}" for problem in check_inverse_certificate(g, cert, k)
        ]
    return problems


def check_isr_pairs(g: Graph) -> list[str]:
    """For every gamma-set D, maximal independent F inside it and ordering of
    D - F (all orderings up to three vertices), two_partial_isrs returns a
    valid pair and a largest partial ISR hits at least half the cells."""
    problems = []
    for d in solvers.enumerate_min_dominating_sets(g):
        dverts = list(bits(d))
        for fbits in range(1, 1 << len(dverts)):
            f = mask_of(dverts[i] for i in range(len(dverts)) if fbits >> i & 1)
            if not g.is_independent(f):
                continue
            if constructions.expand_to_maximal_independent(g, f, d) != f:
                continue
            rest = sorted(bits(d & ~f))
            orderings = list(permutations(rest)) if len(rest) <= 3 else [tuple(rest)]
            for ordering in orderings:
                cells = constructions.isr_cells(g, d, f, ordering)
                pair = constructions.two_partial_isrs(g, cells)
                found = constructions.validate_isr_pair(g, cells, pair)
                hit = constructions.max_partial_isr(g, cells).bit_count()
                if 2 * hit < len(cells):
                    found.append(f"largest partial ISR hits {hit} of {len(cells)} cells")
                where = f"D = {to_sorted(d)}, F = {to_sorted(f)}, order {list(ordering)}"
                problems += [f"{where}: {problem}" for problem in found]
    return problems


def check_padding(g: Graph) -> list[str]:
    """Adding t = 1, 2 disjoint edges adds t to gamma, alpha and inverse gamma."""

    def invariants(h: Graph) -> tuple[int, int, int]:
        return solvers.gamma(h)[0], solvers.alpha(h)[0], solvers.inverse_pass(h)[0]

    base = invariants(g)
    problems = []
    for t in (1, 2):
        got = invariants(generate.pad_with_k2(g, t))
        if got != tuple(value + t for value in base):
            problems.append(f"t = {t}: (gamma, alpha, inverse gamma) {base} -> {got}")
    return problems


# (name, isolate_free_only, check) in report order.  ``invdom selftest`` sweeps
# the table over all graphs up to --max-n vertices, the test suite on n <= 6.
SELFTEST_CHECKS: tuple[tuple[str, bool, Callable[[Graph], list[str]]], ...] = (
    ("graph6 round-trip", False, check_graph6_roundtrip),
    ("gamma vs oracle", False, check_gamma),
    ("alpha vs oracle", False, check_alpha),
    ("inverse gamma vs oracle", True, check_inverse_gamma),
    ("strong inverse vs oracle", True, check_strong_inverse_gamma),
    ("induced bipartite vs oracle", False, check_induced_bipartite),
    ("split by component", False, check_component_split),
    ("Ore complement dominates", True, check_ore_complement),
    ("optimal-set audits", True, check_optimal_set),
    ("main construction in bound", True, check_main_construction),
    ("ISR pair machinery", True, check_isr_pairs),
    ("single-edge padding shifts", True, check_padding),
)


def run_check(
    check: Callable[[Graph], list[str]], graphs: Iterable[Graph], isolate_free_only: bool
) -> tuple[int, list[tuple[str, list[str]]]]:
    """Sweep one check over graphs: (graphs checked, [(graph6, problems)]).

    An InternalContradiction raised by the check becomes that graph's
    problem, as a JSON reproducer, and the sweep goes on.
    """
    checked = 0
    failures = []
    for g in graphs:
        if isolate_free_only and g.has_isolated_vertex():
            continue
        checked += 1
        try:
            problems = check(g)
        except InternalContradiction as exc:
            problems = [json.dumps(exc.reproducer(write_graph6(g)))]
        if problems:
            failures.append((write_graph6(g), problems))
    return checked, failures


def selftest(max_n: int = 7, out: Callable[[str], None] = print) -> bool:
    """Run every check of SELFTEST_CHECKS on all graphs with 1..max_n
    vertices; True iff all pass.

    Prints one line per check as it finishes, with the number of graphs that
    passed, and under a FAIL line each failing graph6 with its problems.  A
    check that checked no graph fails.
    """
    graphs = [g for n in range(1, max_n + 1) for g in generate.all_graphs(n)]
    all_ok = True
    for name, isolate_free_only, check in SELFTEST_CHECKS:
        checked, failures = run_check(check, graphs, isolate_free_only)
        ok = checked > 0 and not failures
        out(f"{'PASS' if ok else 'FAIL'}  {name}: {checked - len(failures)}/{checked}")
        for graph6, problems in failures:
            out(f"    {graph6}: {'; '.join(problems)}")
        all_ok = all_ok and ok
    return all_ok
