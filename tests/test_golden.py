"""One pinned digest over the outputs that form the behaviour contract.

Covers the gamma witness, the inverse-pass certificate, the main
construction's certificate and the ``verify`` JSONL (less its timing field)
on one graph of every class with n <= 6, read from the graph6 fixture
``data/graphs_1_6.g6`` so that a change to the generator's representatives
moves no digest, and on twelve seeded G(16, p) graphs.  A second
digest pins the other three constructions on that corpus and on the gamma = 5
graphs: 5K2, five K1,3 and the pendant-pair gadgets on C5 and K5.  A third
pins all four constructions on the 240 graphs of ``gamma5_corpus(1)``, 26 of
which reach ``superisrs``.  A fourth pins the alpha, b and alpha_within
values and witnesses on the first corpus.  A change that alters any
certificate, report or witness on these corpora fails here; a change that
means to alter them must re-pin the digest and say why.
"""

import hashlib
import json
import random
from pathlib import Path

from invdom import constructions, harness, solvers
from invdom.certificates import InverseCertificate
from invdom.errors import InvdomError
from invdom.generate import (
    all_graphs,
    canonical_form,
    cycle_graph,
    gamma5_corpus,
    pad_with_k2,
    random_graph,
    star_graph,
    with_pendant_pairs,
)
from invdom.graph import Graph, disjoint_union
from invdom.graph6 import parse_graph6, write_graph6
from oracles import complete_graph

GOLDEN_SHA256 = "9bfa2671d69a326cd44745af13f3145abce32b0fea16be077ed76fbbf6e3a08e"
CONSTRUCTIONS_SHA256 = "4875ac4eaf2d275650ac6698314a489486d49c47cbe7a872e3a8cab46eca9d5d"
GAMMA5_CORPUS_SHA256 = "f6dbe57603d1e461fde22b5f8574f188852e0839aa80f70a166e96ba331535b3"
WITNESS_SHA256 = "98500f9a51f69de12632aa0b2b27239bbd26dff0b1c9da8ad47e8a5657d3247d"

# one graph of every class with 1 <= n <= 6, by order: all_graphs(1..6) as an earlier generator labelled them
SMALL_GRAPHS = Path(__file__).parent / "data" / "graphs_1_6.g6"


def small_graphs() -> list[Graph]:
    return [parse_graph6(line) for line in SMALL_GRAPHS.read_text(encoding="ascii").split()]


def golden_corpus():
    graphs = small_graphs()
    for seed in range(1, 5):
        rng = random.Random(seed)
        graphs.extend(random_graph(rng, 16, p) for p in (0.15, 0.3, 0.5))
    return graphs


def five_copies(g: Graph) -> Graph:
    out = g
    for _ in range(4):
        out = disjoint_union(out, g)
    return out


def gamma5_graphs() -> list[Graph]:
    return [
        five_copies(Graph(2, [(0, 1)])),
        five_copies(star_graph(3)),
        with_pendant_pairs(cycle_graph(5), 2),
        with_pendant_pairs(complete_graph(5), 2),
    ]


def rewrite_corpus() -> list[Graph]:
    """The corpus the rewritten loops meet their plain oracles on:
    ``golden_corpus()``, ``gamma5_corpus(1)`` and C5 + t*K2 for t = 1..6."""
    padded = [pad_with_k2(cycle_graph(5), t) for t in range(1, 7)]
    return golden_corpus() + gamma5_corpus(1) + padded


def _outcome(fn, *args):
    """fn(*args), or the name of the InvdomError it raised."""
    try:
        return fn(*args)
    except InvdomError as exc:
        return type(exc).__name__


def _certificates(g) -> dict:
    gamma_value, witness = solvers.gamma(g)
    inverse = _outcome(solvers.inverse_pass, g)
    if not isinstance(inverse, str):
        size, t_set, d_set, strong = inverse
        inverse = [size, InverseCertificate(d_set, t_set, "exact", size).to_dict(), strong]
    main = _outcome(lambda: constructions.theorem_main_construct(g, witness).to_dict())
    return {"gamma": [gamma_value, witness], "inverse_pass": inverse, "main": main}


def golden_lines(graphs) -> list[str]:
    lines = [json.dumps(_certificates(g), sort_keys=True) for g in graphs]
    reports: list[str] = []
    harness.verify_stream((write_graph6(g) for g in graphs), harness.RunConfig(), reports.append)
    for report in reports:
        record = json.loads(report)
        del record["elapsed_micros"]
        lines.append(json.dumps(record))
    return lines


def golden_digest() -> str:
    return hashlib.sha256("\n".join(golden_lines(golden_corpus())).encode()).hexdigest()


def _other_constructions(g) -> dict:
    """bipartite on the gamma witness, inddom on the optimal gamma-set with its
    special set, gamma5; each a certificate or the name of the error raised."""

    def inddom():
        optimal = solvers.optimal_dominating_set(g).d_set
        s = constructions.find_special_independent(g, optimal)
        return None if s is None else constructions.inddom_construct(g, optimal, s).to_dict()

    witness = solvers.gamma(g)[1]
    return {
        "bipartite": _outcome(
            lambda: constructions.bipartite_inverse_construct(g, witness).to_dict()
        ),
        "inddom": _outcome(inddom),
        "gamma5": _outcome(lambda: constructions.gamma5_construct(g).to_dict()),
    }


def constructions_digest() -> str:
    lines = [
        json.dumps(_other_constructions(g), sort_keys=True)
        for g in golden_corpus() + gamma5_graphs()
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def gamma5_corpus_digest() -> str:
    """The main construction on the gamma witness and the other three, on
    every graph of ``gamma5_corpus(1)``."""
    lines = []
    for g in gamma5_corpus(1):
        witness = solvers.gamma(g)[1]
        record = _other_constructions(g)
        record["main"] = _outcome(
            lambda: constructions.theorem_main_construct(g, witness).to_dict()
        )
        lines.append(json.dumps(record, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def witness_digest() -> str:
    """alpha, b and the largest independent set avoiding vertex 0, each with
    its witness mask, on every graph of ``golden_corpus()``."""
    lines = [
        json.dumps(
            [
                solvers.alpha(g),
                solvers.max_induced_bipartite(g),
                solvers.alpha_within(g, g.full & ~1),
            ]
        )
        for g in golden_corpus()
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_the_small_graphs_hold_one_graph_of_every_class():
    by_order: dict[int, list] = {}
    for g in small_graphs():
        by_order.setdefault(g.n, []).append(canonical_form(g)[0])
    assert sorted(by_order) == list(range(1, 7))
    for n, keys in by_order.items():
        assert len(set(keys)) == len(keys)
        assert set(keys) == {canonical_form(g)[0] for g in all_graphs(n)}


def test_certificates_and_reports_match_the_pinned_digest():
    assert golden_digest() == GOLDEN_SHA256


def test_the_main_construction_given_gamma_gives_the_plain_certificate():
    for g in golden_corpus():
        gamma_value, witness = solvers.gamma(g)
        plain = _outcome(constructions.theorem_main_construct, g, witness)
        given = _outcome(lambda: constructions.theorem_main_construct(g, witness, gamma=gamma_value))
        assert given == plain, write_graph6(g)


def test_the_other_constructions_match_their_pinned_digest():
    assert constructions_digest() == CONSTRUCTIONS_SHA256


def test_the_gamma5_corpus_matches_its_pinned_digest():
    assert gamma5_corpus_digest() == GAMMA5_CORPUS_SHA256


def test_the_alpha_and_b_witnesses_match_their_pinned_digest():
    assert witness_digest() == WITNESS_SHA256
