"""The three workloads: how each builds its inputs and what one operation is.

An operation processes one graph: ``harness.verify_stream`` on its graph6
line with every check on and ``jobs = 1``, plus, on ``structured``, every
construction that applies, each re-checked by
``certificates.check_inverse_certificate``.  A run repeats whole rounds of
operations until ``--seconds`` have passed; each workload says what a
round is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Callable, Iterator

from invdom import certificates, constructions, generate, graph6, harness, solvers
from invdom.graph import Graph

CONFIG = harness.RunConfig()  # all checks, one job, not strict

EXHAUSTIVE_N = 8
EXHAUSTIVE_CHUNK = 500  # graphs per round on exhaustive8

RANDOM_N = 16
RANDOM_PS = (0.15, 0.3, 0.5)
RANDOM_POOL_ROUNDS = 1024  # rounds generated up front; a run that uses them all starts over

PAD_TS = tuple(range(6, 13))  # C5 + t*K2
# gamma5_corpus pads a seeded sample of the 1,032 isolate-free graphs on 2..7
# vertices; asking for 600 graphs instead of its default 200 uses more than
# half of them, which cuts the seed-to-seed spread of the per-graph times
GAMMA5_MINIMUM = 600


def encode_graph6(n: int, adj: tuple[int, ...] | list[int]) -> str:
    """graph6 line for adjacency rows, written apart from ``invdom.graph6``."""
    out = [chr(n + 63)]
    bits = [adj[u] >> v & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    for i in range(0, len(bits), 6):
        out.append(chr(63 + int("".join(map(str, bits[i:i + 6])), 2)))
    return "".join(out)


def isolate_free_random(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p) conditioned on no isolated vertex, by rejection."""
    while True:
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
        touched = {x for e in edges for x in e}
        if len(touched) == n:
            return Graph(n, edges)


def padded_c5(t: int) -> Graph:
    """C5 plus t disjoint edges."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + 2 * i, 6 + 2 * i) for i in range(t)]
    return Graph(5 + 2 * t, edges)


@dataclass
class Item:
    """One input graph: its index in the workload, the graph, its graph6 line."""

    index: int
    graph: Graph
    line: str
    pad_t: int | None = None


@dataclass
class Outcome:
    """What one operation produced."""

    report: str | None = None
    certificates: list[tuple[str, certificates.InverseCertificate, list[str]]] = field(
        default_factory=list
    )
    raised: list[str] = field(default_factory=list)


def verify_one(line: str) -> str:
    reports: list[str] = []
    harness.verify_stream([line], CONFIG, reports.append)
    if len(reports) != 1:
        raise RuntimeError(f"verify_stream gave {len(reports)} reports for one line")
    return reports[0]


# -- exhaustive8 -----------------------------------------------------------------

def exhaustive_setup(_seed: int, n: int = EXHAUSTIVE_N) -> list[Item]:
    generate._ALL_GRAPHS.clear()  # set-up always starts from an empty cache
    return [Item(i, g, "") for i, g in enumerate(generate.all_graphs(n))]


def exhaustive_rounds(items: list[Item], seed: int, chunk: int = EXHAUSTIVE_CHUNK):
    order = list(items)
    random.Random(seed).shuffle(order)
    while True:
        for i in range(0, len(order), chunk):
            yield order[i:i + chunk]


def exhaustive_op(item: Item) -> Outcome:
    return Outcome(report=verify_one(graph6.write_graph6(item.graph)))


# -- random_mid ------------------------------------------------------------------

def random_setup(seed: int, rounds: int = RANDOM_POOL_ROUNDS) -> list[list[Item]]:
    rng = random.Random(seed)
    pool = []
    index = 0
    for _ in range(rounds):
        batch = []
        for p in RANDOM_PS:
            g = isolate_free_random(rng, RANDOM_N, p)
            batch.append(Item(index, g, encode_graph6(g.n, g.adj)))
            index += 1
        pool.append(batch)
    return pool


def random_rounds(pool: list[list[Item]], _seed: int):
    while True:
        yield from pool


def verify_op(item: Item) -> Outcome:
    return Outcome(report=verify_one(item.line))


# -- structured ------------------------------------------------------------------

def structured_setup(seed: int, ts: tuple[int, ...] = PAD_TS, minimum: int = GAMMA5_MINIMUM) -> list[Item]:
    generate._ALL_GRAPHS.clear()
    corpus = generate.gamma5_corpus(seed, minimum)
    items = [Item(i, padded_c5(t), "", t) for i, t in enumerate(ts)]
    items += [Item(len(ts) + i, g, "") for i, g in enumerate(corpus)]
    for item in items:
        item.line = encode_graph6(item.graph.n, item.graph.adj)
    return items


def structured_rounds(items: list[Item], _seed: int):
    while True:
        yield items


def structured_op(item: Item) -> Outcome:
    """verify_stream, then every construction that applies, each re-checked."""
    out = Outcome(report=verify_one(item.line))
    g = item.graph
    k, d = solvers.gamma(g)

    def attempt(kind: str, build) -> None:
        try:
            cert = build()
        except Exception as exc:  # a construction that raises is a failed operation
            out.raised.append(f"{kind}: {type(exc).__name__}: {exc}")
            return
        out.certificates.append((kind, cert, certificates.check_inverse_certificate(g, cert, k)))

    attempt("theorem_main", lambda: constructions.theorem_main_construct(g, d))
    attempt("bipartite", lambda: constructions.bipartite_inverse_construct(g, d))
    optimal = solvers.optimal_dominating_set(g).d_set
    s = constructions.find_special_independent(g, optimal)
    if s is not None:
        attempt("inddom", lambda: constructions.inddom_construct(g, optimal, s))
    if k == 5:
        attempt("gamma5", lambda: constructions.gamma5_construct(g))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Any]  # seed -> inputs; timed as set-up
    rounds: Callable[[Any, int], Iterator[list[Item]]]  # (inputs, seed) -> rounds
    op: Callable[[Item], Outcome]
    setup_repeats: int


WORKLOADS = {
    "exhaustive8": Workload("exhaustive8", exhaustive_setup, exhaustive_rounds, exhaustive_op, 1),
    "random_mid": Workload("random_mid", random_setup, random_rounds, verify_op, 5),
    "structured": Workload("structured", structured_setup, structured_rounds, structured_op, 3),
}
