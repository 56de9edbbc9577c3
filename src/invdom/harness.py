"""Report computation, corpus verification, and selftest.

One GraphReport per input graph, serialized as JSONL with a fixed field
order.  Checks are individually toggleable; undefined quantities (inverse
domination on graphs with isolates) are omitted rather than faked, and the
three-halves bound is evaluated in exact integer arithmetic.  Every check
but b needs an isolate-free graph, so a graph with an isolated vertex is
skipped for isolates exactly when the checks asked include another one.
gamma^-1 and strong gamma^-1 come from one pass over the minimum
dominating sets, run once per isolate-free graph when any check needs
either.  A verify run uses
``RunConfig.jobs`` worker processes (the CLI's ``--jobs``, default 1) and
emits reports in input order either way.  gamma and alpha are solved once
per graph: the main construction takes the report's gamma for its gate,
and its bound's alpha is the one the solvers hold from the report's own
call, since they keep each result for the most recent graph (see
``solvers``).  The inverse pass returns (gamma^-1, T, D, strong
gamma^-1), masks and values with no certificate object; when it runs, the
main construction's D is its D, a gamma-set, and gamma is that set's size.
gamma's own search runs only on graphs with isolates or when no check needs
the pass.  A caller that asks the solvers about the same graph after
``analyze_graph``, such as a construction on the same graph6 line parsed
anew, is answered from those held results.
``main_thm_ok`` is True whenever the main construction returns: it
certifies |T| <= alpha + floor((gamma-1)/2) itself, against that exact
bound, and raises InternalContradiction otherwise, which the report
records as False with its reproducer.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
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
    # Kept out of the JSONL report: the InternalContradiction.reproducer() of
    # a failed construction, logged by verify_stream, and whether a requested
    # check went unanswered because the graph has an isolated vertex.
    contradiction: dict | None = None
    skipped_for_isolates: bool = False

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
        return _REPORT_ENCODER.encode(payload)


_REPORT_FIELDS = tuple(
    f.name for f in fields(GraphReport) if f.name not in ("contradiction", "skipped_for_isolates")
)
# json.dumps builds a new encoder on each call that sets separators; one
# shared encoder writes the same bytes
_REPORT_ENCODER = json.JSONEncoder(separators=(",", ":"))


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
    isolated = g.has_isolated_vertex()
    isolate_free = g.n > 0 and not isolated
    inverse = isolate_free and checks & {"conjecture", "three_halves", "strong"}
    if inverse:
        inv_gamma, _, gamma_set, strong_inv_gamma = solvers.inverse_pass(g)
        gamma_value = gamma_set.bit_count()
    else:
        gamma_value, gamma_set = solvers.gamma(g)
    alpha_value, _ = solvers.alpha(g)
    report = GraphReport(
        graph6=graph6_str, n=g.n, m=g.m, gamma=gamma_value, alpha=alpha_value,
        # every check but b needs an isolate-free graph
        skipped_for_isolates=isolated and bool(checks - {"b"}),
    )
    if "b" in checks:
        report.b = solvers.max_induced_bipartite(g)[0]
    if isolate_free:
        if inverse:
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
                constructions.theorem_main_construct(g, gamma_set, gamma=gamma_value)
            except InternalContradiction as exc:
                report.main_thm_ok = False
                report.contradiction = exc.reproducer(graph6_str)
            else:
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
        if report.skipped_for_isolates:
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
    """alpha matches the oracle, and its witness is independent with alpha
    vertices."""
    size, witness = solvers.alpha(g)
    problems = _compare("alpha", size, naive.alpha_naive(g)[0])
    if witness.bit_count() != size or not g.is_independent(witness):
        problems.append(f"alpha witness {to_sorted(witness)} is no independent set of size {size}")
    return problems


def check_inverse_gamma(g: Graph) -> list[str]:
    return _compare("inverse gamma", solvers.inverse_pass(g)[0], naive.inverse_gamma_naive(g))


def check_strong_inverse_gamma(g: Graph) -> list[str]:
    return _compare("strong", solvers.inverse_pass(g)[3], naive.strong_inverse_gamma_naive(g))


def _bipartite_witness(g: Graph, size: int, witness: int) -> list[str]:
    if witness.bit_count() == size and g.is_bipartite_subset(witness):
        return []
    return [f"b witness {to_sorted(witness)} induces no bipartite graph of order {size}"]


def check_induced_bipartite(g: Graph) -> list[str]:
    """b matches the oracle, and its witness induces a bipartite graph with b
    vertices: part of it comes from a greedy seed, so it is checked, not
    trusted."""
    size, witness = solvers.max_induced_bipartite(g)
    return _compare("b", size, naive.b_naive(g)) + _bipartite_witness(g, size, witness)


def check_component_split(g: Graph) -> list[str]:
    """Solving by component gives the values of one search over the whole
    graph: gamma, alpha, b, the optimal gamma-set and, when g is
    isolate-free, the inverse pass.  The alpha and optimal-set witnesses and
    the pass's D are the whole graph's too.  The gamma witness and the
    pass's T join each part's first least cover, which need not be the
    whole graph's first, and b's witness joins each part's seed split or
    the first leaf that beats it, which one unseeded search need not reach.
    So they are checked for validity: the gamma witness dominates with size
    gamma, b's witness induces a bipartite graph with b vertices, and the
    "exact" certificate built from the pass's D and T passes
    ``check_inverse_certificate`` against gamma, so its D, which
    ``analyze_graph`` takes for gamma and the main construction, is a
    gamma-set."""
    covers = solvers._domination_covers(g)
    size, witness = solvers.gamma(g)
    b, b_witness = solvers.max_induced_bipartite(g)
    cert = solvers.optimal_dominating_set(g)
    pairs = [
        ("gamma", size, solvers._gamma_part(covers, g.full)[0]),
        ("alpha", solvers.alpha(g), solvers._max_independent(g, g.full)),
        ("b", b, solvers._max_sides(g, g.full)[0]),
        (
            "optimal (-alpha(D), edges, D)",
            (-cert.alpha_of_d, cert.induced_edges, cert.d_set),
            solvers._optimal_part(g, g.full),
        ),
    ]
    problems = _bipartite_witness(g, b, b_witness)
    if witness.bit_count() != size or not g.is_dominating(witness):
        problems.append(f"gamma witness {to_sorted(witness)} is no dominating set of size {size}")
    if not g.has_isolated_vertex():
        inverse_size, t_set, d_set, strong = solvers.inverse_pass(g)
        whole_size, _, whole_d, whole_strong = solvers._inverse_part(g, g.full)
        pairs.append((
            "inverse pass (size, D, strong)",
            (inverse_size, d_set, strong),
            (whole_size, whole_d, whole_strong),
        ))
        inverse = InverseCertificate(d_set, t_set, "exact", inverse_size)
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
    d = solvers.optimal_dominating_set(g).d_set
    violations = constructions.lemma41_check(g, d)
    if violations:
        return [f"D = {to_sorted(d)}: (vertex, private count) {violations}"]
    constructions.biglemma_trichotomy(g, d)  # raises LemmaViolated if neither branch holds
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
