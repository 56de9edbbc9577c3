"""Which fields each check sets, verify output order under parallelism, the
selftest checks swept over every graph with n <= 6, and 63- and 64-vertex
disconnected graphs solved by component."""

import json
import random

import pytest

from invdom import constructions, harness, solvers
from invdom.certificates import check_inverse_certificate
from invdom.generate import all_graphs, cycle_graph, gamma5_corpus, pad_with_k2, random_graph
from invdom.graph import Graph, disjoint_union
from invdom.graph6 import parse_graph6, write_graph6
from test_golden import gamma5_graphs

BASE_FIELDS = {"graph6", "n", "m", "gamma", "alpha", "elapsed_micros"}


def fields(report: harness.GraphReport) -> dict:
    return json.loads(report.to_json())


def test_strong_check_alone_sets_only_the_strong_value(corpus7):
    for n in range(1, 6):
        for g in corpus7[n]:
            report = fields(harness.analyze_graph(g, checks=frozenset({"strong"})))
            if g.has_isolated_vertex():
                assert set(report) == BASE_FIELDS
            else:
                assert set(report) == BASE_FIELDS | {"strong_inv_gamma"}
                assert report["strong_inv_gamma"] == solvers.strong_inverse_gamma(g)


def test_conjecture_check_alone_sets_the_inverse_value(corpus7):
    for n in range(1, 6):
        for g in corpus7[n]:
            report = fields(harness.analyze_graph(g, checks=frozenset({"conjecture"})))
            if g.has_isolated_vertex():
                assert set(report) == BASE_FIELDS
            else:
                assert set(report) == BASE_FIELDS | {"inv_gamma", "conjecture_ok"}
                assert report["inv_gamma"] == solvers.inverse_gamma(g)[0]
                assert report["conjecture_ok"] == (report["inv_gamma"] <= report["alpha"])


def test_all_checks_on_c5():
    report = fields(harness.analyze_graph(cycle_graph(5)))
    report.pop("elapsed_micros")
    assert report == {
        "graph6": write_graph6(cycle_graph(5)), "n": 5, "m": 5, "gamma": 2, "alpha": 2,
        "inv_gamma": 2, "strong_inv_gamma": 2, "b": 4, "conjecture_ok": True,
        "three_halves_ok": True, "main_thm_ok": True,
    }


GNP16 = random_graph(random.Random(1), 16, 0.3)


@pytest.mark.parametrize(
    "g, checks, gamma_calls, pass_calls",
    [
        (cycle_graph(5), harness.ALL_CHECKS, 0, 1),
        (GNP16, harness.ALL_CHECKS, 0, 1),
        (pad_with_k2(cycle_graph(5), 2), harness.ALL_CHECKS, 0, 1),
        (parse_graph6("FCZnO"), harness.ALL_CHECKS, 0, 1),
        (disjoint_union(cycle_graph(5), Graph(1)), harness.ALL_CHECKS, 1, 0),
        (GNP16, frozenset({"main_thm", "b"}), 1, 0),
    ],
    ids=["C5", "gnp16", "C5+2K2", "FCZnO", "C5+K1", "gnp16-no-inverse-check"],
)
def test_analyze_graph_solves_each_invariant_once(
    monkeypatch, side_searches, g, checks, gamma_calls, pass_calls
):
    # an isolate-free graph takes gamma and the main construction's D from
    # the inverse pass's certificate when one runs; only otherwise is gamma
    # solved.  On FCZnO that D is not the lowest gamma-set.  The main
    # construction's bound asks for alpha again and gets the held one, so
    # each component has one alpha search and one b search
    originals = {name: getattr(solvers, name) for name in ("gamma", "inverse_pass")}
    calls = dict.fromkeys(originals, 0)
    for name, original in originals.items():
        def counted(h, _name=name, _original=original):
            calls[_name] += 1
            return _original(h)

        monkeypatch.setattr(solvers, name, counted)
    given = []
    main_construct = constructions.theorem_main_construct

    def recorded(h, d_set, *, gamma=None):
        given.append((d_set, gamma))
        return main_construct(h, d_set, gamma=gamma)

    monkeypatch.setattr(constructions, "theorem_main_construct", recorded)
    report = harness.analyze_graph(g, checks=checks)
    assert report.main_thm_ok is (None if g.has_isolated_vertex() else True)
    assert calls == {"gamma": gamma_calls, "inverse_pass": pass_calls}
    assert sorted(side_searches) == sorted((part, sides) for part in g.components() for sides in (1, 2))
    if g.has_isolated_vertex():
        assert given == []
    elif pass_calls:
        d = originals["inverse_pass"](g)[2]
        assert given == [(d, d.bit_count())] == [(d, report.gamma)]
    else:
        size, witness = originals["gamma"](g)
        assert given == [(witness, size)]


@pytest.mark.parametrize(
    "g", gamma5_graphs()[:2] + gamma5_corpus(1)[:4],
    ids=["5K2", "5K13"] + [f"gamma5-corpus-{i}" for i in range(4)],
)
def test_verify_and_every_construction_solve_each_component_once(monkeypatch, side_searches, g):
    # verify on the graph6 line, then each construction on the graph itself,
    # as a benchmark operation on structured graphs runs them: every alpha
    # and b search and every gamma-set enumeration runs once per component
    enumerations = []
    cover_search = solvers._cover_search

    def counted(covers, allowed, target, limit, found):
        if allowed == target and limit == allowed.bit_count() + 1:
            enumerations.append(allowed)
        cover_search(covers, allowed, target, limit, found)

    monkeypatch.setattr(solvers, "_cover_search", counted)
    reports: list[str] = []
    harness.verify_stream([write_graph6(g)], harness.RunConfig(), reports.append)
    d = solvers.gamma(g)[1]
    constructions.theorem_main_construct(g, d)
    constructions.bipartite_inverse_construct(g, d)
    optimal = solvers.optimal_dominating_set(g).d_set
    s = constructions.find_special_independent(g, optimal)
    if s is not None:
        constructions.inddom_construct(g, optimal, s)
    constructions.gamma5_construct(g)
    parts = g.components()
    assert json.loads(reports[0])["gamma"] == 5
    assert sorted(allowed for allowed, _ in side_searches if allowed in parts) == sorted(parts * 2)
    assert len(set(side_searches)) == len(side_searches)
    assert sorted(enumerations) == sorted(parts)


def test_c5_plus_29_k2_at_63_vertices():
    # 5 * 2^29 gamma-sets: only a solver that splits by component finishes
    g = pad_with_k2(cycle_graph(5), 29)
    report = fields(harness.analyze_graph(g))
    assert report["n"] == 63
    assert [report[key] for key in ("gamma", "alpha", "inv_gamma", "strong_inv_gamma", "b")] == [
        31, 31, 31, 31, 62,
    ]
    assert report["main_thm_ok"] is True
    d = solvers.gamma(g)[1]
    for build in (constructions.theorem_main_construct, constructions.bipartite_inverse_construct):
        cert = build(g, d)
        assert check_inverse_certificate(g, cert, 31) == []


def test_four_disjoint_gnp_at_64_vertices_report_the_sums_of_their_parts():
    rng = random.Random(64)
    parts: list[Graph] = []
    while len(parts) < 4:
        h = random_graph(rng, 16, 0.3)
        if not h.has_isolated_vertex():
            parts.append(h)
    g = parts[0]
    for h in parts[1:]:
        g = disjoint_union(g, h)
    assert g.n == 64
    whole = fields(harness.analyze_graph(g))
    reports = [fields(harness.analyze_graph(h)) for h in parts]
    for key in ("n", "m", "gamma", "alpha", "inv_gamma", "strong_inv_gamma", "b"):
        assert whole[key] == sum(report[key] for report in reports), key


def run_verify(lines: list[str], jobs: int) -> tuple[list[dict], harness.VerifySummary]:
    out: list[str] = []
    summary = harness.verify_stream(lines, harness.RunConfig(jobs=jobs), out.append)
    reports = [json.loads(line) for line in out]
    for report in reports:
        report.pop("elapsed_micros")
    return reports, summary


def test_two_jobs_emit_the_same_reports_as_one():
    lines = [write_graph6(g) for n in range(1, 6) for g in all_graphs(n)]
    lines.insert(10, "not a graph")
    serial, serial_summary = run_verify(lines, jobs=1)
    parallel, parallel_summary = run_verify(lines, jobs=2)
    assert len(serial) == len(lines) - 1
    assert [r["graph6"] for r in serial] == [line for line in lines if line != "not a graph"]
    assert parallel == serial
    assert parallel_summary == serial_summary
    assert serial_summary.parse_errors == 1


def test_isolates_are_counted_as_skipped():
    lines = [write_graph6(Graph(3, [(0, 1)])), write_graph6(cycle_graph(4))]
    _, summary = run_verify(lines, jobs=1)
    assert summary.graphs == 2
    assert summary.skipped_isolates == 1


@pytest.mark.parametrize(
    "isolate_free_only, check",
    [(only, check) for _, only, check in harness.SELFTEST_CHECKS],
    ids=[name for name, _, _ in harness.SELFTEST_CHECKS],
)
def test_selftest_check_holds_up_to_six_vertices(isolate_free_only, check, corpus7):
    graphs = [g for n in range(1, 7) for g in corpus7[n]]
    checked, failures = harness.run_check(check, graphs, isolate_free_only)
    assert checked >= 100
    assert failures == []


PAW = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])  # alpha = 2, b = 3
NOT_BIPARTITE = "b witness [0, 1, 2] induces no bipartite graph of order 3"


@pytest.mark.parametrize(
    "check, solver, answer, problem",
    [
        (harness.check_alpha, "alpha", (2, 0b0011), "alpha witness [0, 1] is no independent set of size 2"),
        (harness.check_induced_bipartite, "max_induced_bipartite", (3, 0b0111), NOT_BIPARTITE),
        (harness.check_component_split, "max_induced_bipartite", (3, 0b0111), NOT_BIPARTITE),
    ],
    ids=["alpha", "b", "split"],
)
def test_a_witness_with_the_right_value_is_still_checked(monkeypatch, check, solver, answer, problem):
    monkeypatch.setattr(solvers, solver, lambda g: answer)
    assert check(PAW) == [problem]


def test_a_check_that_checked_no_graph_fails():
    lines: list[str] = []
    assert harness.selftest(max_n=1, out=lines.append) is False
    for name, isolate_free_only, _ in harness.SELFTEST_CHECKS:
        expected = f"FAIL  {name}: 0/0" if isolate_free_only else f"PASS  {name}: 1/1"
        assert expected in lines
