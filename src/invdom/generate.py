"""Graph corpora: exhaustive isomorphism-free generation, structured
families, and seeded random graphs.

The exhaustive generator grows graphs one vertex at a time and
deduplicates with a canonical form computed by color refinement plus
individualization, so no external tooling is needed for the small-order
sweeps (n <= 8: 1, 2, 4, 11, 34, 156, 1044, 12346 graphs).
"""

from __future__ import annotations

import random
from itertools import combinations

from . import solvers
from .graph import Graph, disjoint_union


# -- canonical forms -----------------------------------------------------------

def _refine(adj: tuple[int, ...], n: int, colors: list[int]) -> list[int]:
    """Equitable color refinement: split classes by neighbor counts.

    Keys are packed base-(n+1) integers: a vertex's current color followed
    by its neighbor count into every class, so sorting keys sorts classes.
    """
    base = n + 1
    while True:
        class_masks: dict[int, int] = {}
        for v, c in enumerate(colors):
            class_masks[c] = class_masks.get(c, 0) | (1 << v)
        ordered = [class_masks[c] for c in sorted(class_masks)]
        keys = []
        for v in range(n):
            row = adj[v]
            k = colors[v]
            for cm in ordered:
                k = k * base + (row & cm).bit_count()
            keys.append(k)
        relabel = {k: i for i, k in enumerate(sorted(set(keys)))}
        new_colors = [relabel[k] for k in keys]
        if new_colors == colors:
            return colors
        colors = new_colors


def _encode(adj: tuple[int, ...], order: list[int]) -> int:
    """Upper-triangle bits of the relabeled graph packed into an int."""
    out = 0
    for i in range(len(order)):
        row = adj[order[i]]
        for j in range(i + 1, len(order)):
            out = (out << 1) | (row >> order[j] & 1)
    return out


def canonical_form(g: Graph) -> tuple[int, int]:
    """(n, bits) pair identical across isomorphic graphs."""
    n = g.n
    if n <= 1:
        return n, 0
    adj = g.adj
    best: int | None = None

    def rec(colors: list[int]) -> None:
        nonlocal best
        target = -1
        for c in sorted(set(colors)):
            if colors.count(c) > 1:
                target = c
                break
        if target < 0:
            order = sorted(range(n), key=lambda v: colors[v])
            enc = _encode(adj, order)
            if best is None or enc < best:
                best = enc
            return
        for v in range(n):
            if colors[v] == target:
                split = [2 * colors[u] + (0 if u == v else 1) for u in range(n)]
                relabel = {k: i for i, k in enumerate(sorted(set(split)))}
                rec(_refine(adj, n, [relabel[k] for k in split]))

    rec(_refine(adj, n, [0] * n))
    assert best is not None
    return n, best


# -- exhaustive corpus -----------------------------------------------------------

_ALL_GRAPHS: dict[int, tuple[Graph, ...]] = {}


def all_graphs(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic simple graphs on exactly n vertices."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n in _ALL_GRAPHS:
        return _ALL_GRAPHS[n]
    if n == 0:
        out: tuple[Graph, ...] = (Graph(0),)
    else:
        seen: dict[tuple[int, int], None] = {}
        found: list[Graph] = []
        new = n - 1
        for parent in all_graphs(n - 1):
            for attach in range(1 << new):
                rows = [
                    parent.adj[v] | ((attach >> v & 1) << new) for v in range(new)
                ]
                rows.append(attach)
                child = Graph.from_rows(rows)
                key = canonical_form(child)
                if key not in seen:
                    seen[key] = None
                    found.append(child)
        out = tuple(found)
    _ALL_GRAPHS[n] = out
    return out


# -- structured families -----------------------------------------------------------

def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def with_pendant_pairs(base: Graph, leaves: int = 2) -> Graph:
    """Attach ``leaves`` private leaves to every base vertex.

    With at least two leaves each, the base is the unique minimum
    dominating set, which makes these good fixtures for constructions
    that need control over G[D].
    """
    if leaves < 2:
        raise ValueError("need at least two leaves per vertex")
    edges = list(base.edges())
    k = base.n
    for v in range(base.n):
        for j in range(leaves):
            edges.append((v, k))
            k += 1
    return Graph(k, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


# -- seeded corpora -----------------------------------------------------------------

def gamma5_corpus(seed: int = 20250517, minimum: int = 200) -> list[Graph]:
    """At least ``minimum`` isolate-free graphs with domination number 5.

    Mix of structured families (pendant-pair gadgets over every small base,
    disjoint stars, padded small graphs, long cycles) and seeded random
    search; every member is solver-verified to have gamma exactly 5.
    """
    rng = random.Random(seed)
    out: list[Graph] = []

    def admit(g: Graph) -> bool:
        if g.n > 20 or g.has_isolated_vertex():
            return False
        if solvers.gamma(g)[0] != 5:
            return False
        out.append(g)
        return True

    # pendant-pair gadgets: unique minimum dominating set = the 5-vertex base
    for base in all_graphs(5):
        admit(with_pendant_pairs(base, 2))
        admit(with_pendant_pairs(base, 3))

    # five disjoint one-edge components, five disjoint stars
    k2 = Graph(2, [(0, 1)])
    five_k2 = k2
    for _ in range(4):
        five_k2 = disjoint_union(five_k2, k2)
    admit(five_k2)
    stars = star_graph(3)
    five_stars = stars
    for _ in range(4):
        five_stars = disjoint_union(five_stars, star_graph(3))
    admit(five_stars)

    for n in (13, 14, 15):
        admit(cycle_graph(n))

    # small isolate-free bases padded with single-edge components up to gamma 5
    from .constructions import pad_with_k2

    bases = [g for n in range(2, 8) for g in all_graphs(n) if not g.has_isolated_vertex()]
    rng.shuffle(bases)
    for base in bases:
        k = solvers.gamma(base)[0]
        if 1 <= k <= 4 and base.n + 2 * (5 - k) <= 16:
            admit(pad_with_k2(base, 5 - k))
        if len(out) >= minimum:
            break

    # seeded random search for organic instances
    target = max(minimum, len(out) + 40)
    attempts = 0
    while len(out) < target and attempts < 4000:
        attempts += 1
        n = rng.randint(11, 16)
        g = random_graph(rng, n, rng.uniform(0.08, 0.2))
        admit(g)

    if len(out) < minimum:
        raise RuntimeError(f"gamma-5 corpus came up short: {len(out)} < {minimum}")
    return out
