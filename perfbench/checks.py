"""Correctness checks, run after the timed phase.

Each check compares the program's output with a result computed apart
from its solvers (the ``naive`` oracles, networkx, brute force here), with
a closed form, or with a property every correct result has.  Nothing is
compared with a saved copy of earlier output.  Every function returns a
list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import json
import random

from invdom import naive, solvers
from invdom.graph import Graph

from workloads import Item, Outcome, encode_graph6

# graphs on n = 1..8 vertices (OEIS A000088) and the isolate-free ones at n = 8 (A002494)
GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)
ISOLATE_FREE_8 = 11302
PROVEN_N = 16  # the conjecture is proved for n <= 16 and for gamma <= 5
PROVEN_GAMMA = 5


def closed(g: Graph) -> list[int]:
    return [g.adj[v] | 1 << v for v in range(g.n)]


def dominates(cl: list[int], mask: int, full: int) -> bool:
    reach = 0
    for v in range(len(cl)):
        if mask >> v & 1:
            reach |= cl[v]
    return reach == full


def isolate_free(g: Graph) -> bool:
    return g.n > 0 and all(g.adj)


def is_clique(g: Graph) -> bool:
    return all(g.adj[v] | 1 << v == g.full for v in range(g.n))


def dominated_by(cl: list[int], k: int, undominated: int) -> bool:
    """True iff at most k vertices dominate ``undominated`` (exhaustive search).

    Any dominating set holds a vertex of N[u] for the lowest undominated u,
    so branching over N[u] at every level tries every candidate set.
    """
    if not undominated:
        return True
    if k == 0:
        return False
    u = (undominated & -undominated).bit_length() - 1
    options = cl[u]
    while options:
        low = options & -options
        if dominated_by(cl, k - 1, undominated & ~cl[low.bit_length() - 1]):
            return True
        options ^= low
    return False


def brute_gamma_is(g: Graph, k: int) -> bool:
    """True iff some k-set dominates and no (k-1)-set does."""
    cl = closed(g)
    return dominated_by(cl, k, g.full) and not dominated_by(cl, k - 1, g.full)


def networkx_alpha(g: Graph) -> int:
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1)
    return nx.max_weight_clique(nx.complement(h), weight=None)[1]


# -- report properties -------------------------------------------------------------

def report_problems(item: Item, line: str, open_false: list[str]) -> list[str]:
    """Properties every report must have; records open conjecture failures."""
    r = json.loads(line)
    g = item.graph
    tag = f"graph {item.index} {r.get('graph6')}"
    out = []
    if r["graph6"] != encode_graph6(g.n, g.adj):
        out.append(f"{tag}: graph6 differs from the input")
    if r["n"] != g.n or r["m"] != sum(a.bit_count() for a in g.adj) // 2:
        out.append(f"{tag}: n or m wrong")
    if not r["gamma"] <= r["alpha"] <= r["b"] <= r["n"]:
        out.append(f"{tag}: gamma <= alpha <= b <= n fails")
    if not isolate_free(g):
        if any(key in r for key in ("inv_gamma", "strong_inv_gamma", "conjecture_ok", "main_thm_ok")):
            out.append(f"{tag}: inverse fields on a graph with isolates")
        return out
    if not r["gamma"] <= r["inv_gamma"] <= r["strong_inv_gamma"]:
        out.append(f"{tag}: gamma <= inv_gamma <= strong_inv_gamma fails")
    if r["three_halves_ok"] != ("n/a" if is_clique(g) else True):
        out.append(f"{tag}: three_halves_ok = {r['three_halves_ok']!r}")
    if r["main_thm_ok"] is not True:
        out.append(f"{tag}: main_thm_ok = {r['main_thm_ok']!r}")
    if r["conjecture_ok"] is not (r["inv_gamma"] <= r["alpha"]):
        out.append(f"{tag}: conjecture_ok disagrees with inv_gamma and alpha")
    if r["conjecture_ok"] is False:
        if g.n <= PROVEN_N or r["gamma"] <= PROVEN_GAMMA:
            out.append(f"{tag}: conjecture_ok false where it is proved")
        else:
            open_false.append(r["graph6"])
    return out


def certificate_problems(item: Item, line: str, outcome: Outcome) -> list[str]:
    """Every certificate passes the program's re-check and an independent one."""
    r = json.loads(line)
    g = item.graph
    cl = closed(g)
    expected = {
        "alpha": r["alpha"],
        "main_theorem": r["alpha"] + (r["gamma"] - 1) // 2,
        "bipartite_b": r["b"],
    }
    out = [f"graph {item.index}: {msg}" for msg in outcome.raised]
    for kind, cert, problems in outcome.certificates:
        tag = f"graph {item.index} {r['graph6']} {kind}"
        if problems:
            out.append(f"{tag}: check_inverse_certificate: {problems}")
        if cert.d_set & cert.t_set or (cert.d_set | cert.t_set) & ~g.full:
            out.append(f"{tag}: D and T overlap or leave the graph")
        if not (dominates(cl, cert.d_set, g.full) and dominates(cl, cert.t_set, g.full)):
            out.append(f"{tag}: D or T does not dominate")
        if cert.d_set.bit_count() != r["gamma"]:
            out.append(f"{tag}: |D| != gamma")
        if cert.bound_value != expected.get(cert.bound_kind):
            out.append(f"{tag}: claims bound {cert.bound_kind}={cert.bound_value}")
        if cert.t_set.bit_count() > cert.bound_value:
            out.append(f"{tag}: |T| = {cert.t_set.bit_count()} > {cert.bound_value}")
    if r["gamma"] == 5 and isolate_free(g) and not any(k == "gamma5" for k, _, _ in outcome.certificates):
        out.append(f"graph {item.index}: no gamma5 certificate for a gamma = 5 graph")
    return out


# -- recomputation apart from the solvers --------------------------------------------

def oracle_problems(item: Item, line: str) -> list[str]:
    """n <= 8: every invariant against the naive oracles."""
    r = json.loads(line)
    g = item.graph
    got = (r["gamma"], r["alpha"], r["b"], r.get("inv_gamma"), r.get("strong_inv_gamma"))
    want = (naive.gamma_naive(g)[0], naive.alpha_naive(g)[0], naive.b_naive(g), None, None)
    if isolate_free(g):
        want = want[:3] + (naive.inverse_gamma_naive(g), naive.strong_inverse_gamma_naive(g))
    if got != want:
        return [f"graph {item.index} {r['graph6']}: (gamma, alpha, b, inv, strong) {got} != oracle {want}"]
    return []


def independent_problems(item: Item, line: str) -> list[str]:
    """Larger graphs: gamma by brute force, alpha by networkx."""
    r = json.loads(line)
    g = item.graph
    out = []
    if not brute_gamma_is(g, r["gamma"]):
        out.append(f"graph {item.index} {r['graph6']}: brute force disagrees with gamma = {r['gamma']}")
    if networkx_alpha(g) != r["alpha"]:
        out.append(f"graph {item.index} {r['graph6']}: networkx disagrees with alpha = {r['alpha']}")
    return out


# -- per workload: (inputs, [(item, outcome)] one per graph, seed, open_false) -> problems

def sample(records: list, seed: int, size: int) -> list:
    return random.Random(seed * 7919 + 1).sample(records, min(size, len(records)))


def check_exhaustive(inputs: list[Item], records: list, seed: int, open_false: list[str]) -> list[str]:
    from invdom import generate

    out = []
    counts = tuple(len(generate.all_graphs(n)) for n in range(1, 9))
    if counts != GRAPH_COUNTS:
        out.append(f"all_graphs counts {counts} != {GRAPH_COUNTS}")
    free = sum(isolate_free(item.graph) for item in inputs)
    if free != ISOLATE_FREE_8:
        out.append(f"{free} isolate-free graphs on 8 vertices, expected {ISOLATE_FREE_8}")
    for item, outcome in records:
        out += report_problems(item, outcome.report, open_false)
    for item, outcome in sample(records, seed, 40):
        out += oracle_problems(item, outcome.report)
    return out


def check_random(_inputs, records: list, seed: int, open_false: list[str]) -> list[str]:
    out = []
    for item, outcome in records:
        out += report_problems(item, outcome.report, open_false)
    for item, outcome in sample(records, seed, 12):
        out += independent_problems(item, outcome.report)
    return out


def check_structured(_inputs, records: list, seed: int, open_false: list[str]) -> list[str]:
    out = []
    for item, outcome in records:
        out += report_problems(item, outcome.report, open_false)
        out += certificate_problems(item, outcome.report, outcome)
        r = json.loads(outcome.report)
        if item.pad_t is not None:
            t = item.pad_t
            want = (t + 2,) * 4 + (2 * t + 4,)
            got = (r["gamma"], r["alpha"], r["inv_gamma"], r["strong_inv_gamma"], r["b"])
            if got != want:
                out.append(f"C5 + {t}K2: (gamma, alpha, inv, strong, b) {got} != {want}")
            if t <= 9 and len(solvers.enumerate_min_dominating_sets(item.graph)) != 5 * 2 ** t:
                out.append(f"C5 + {t}K2: gamma-set count != 5 * 2^{t}")
        elif r["gamma"] != 5 or not brute_gamma_is(item.graph, 5):
            out.append(f"gamma5_corpus graph {item.index} {r['graph6']}: gamma is not 5")
    corpus = [(item, outcome) for item, outcome in records if item.pad_t is None]
    for item, outcome in sample(corpus, seed, 12):
        out += independent_problems(item, outcome.report)
    return out


CHECKS = {"exhaustive8": check_exhaustive, "random_mid": check_random, "structured": check_structured}
