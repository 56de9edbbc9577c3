"""Brute-force oracles that only tests use.

``components`` labels vertices by union-find over the edge list, apart from
the bitmask walk of ``Graph.components``.

``refine`` is the plain form of ``generate._refine``: it keys every vertex
into every class in every round, singletons included.

``grow_bipartite`` is the plain form of ``constructions._grow_bipartite``:
it tests the whole of B + v for each vertex v.  ``optimal_key`` is the plain
form of ``solvers._optimal_part`` on the whole graph: alpha(G[D]) solved for
every gamma-set D.  Both stand on solvers and Graph methods that tests check
against ``invdom.naive``, so they take graphs of any order.

``cover_search`` is the plain form of ``solvers._cover_search``: each node
sweeps every available candidate for the union of their covers and the
largest coverage, then picks the vertex to branch on in a second loop.
Every child is a call of its own, a cover or a child with no pick left
too, and a node with one pick left branches as any other does, where
``_cover_search`` settles these in the parent and scans for the last pick.

``relabelled_bits`` packs a graph's upper triangle under a vertex order,
the code ``generate.canonical_form`` keys a leaf by.

``haxell_condition`` is Haxell's sufficient condition for an independent
transversal, checked here as a property of ``find_isr``.  Everything else
here tries every subset or every relabelling, so keep the cells and graphs
small.
"""

from itertools import combinations, permutations
from typing import Callable, Sequence

from invdom import solvers
from invdom.graph import Graph, bits, mask_of


def grow_bipartite(g: Graph, seed: int, universe: int) -> int | None:
    """B grown from seed by each vertex of the universe, by id, for which
    G[B + v] stays bipartite; None if G[seed] is not bipartite."""
    if not g.is_bipartite_subset(seed):
        return None
    b = seed
    for v in bits(universe & ~seed):
        if g.is_bipartite_subset(b | 1 << v):
            b |= 1 << v
    return b


def optimal_key(g: Graph) -> tuple[int, int, int]:
    """Least (-alpha(G[D]), induced edges of D, D) over every gamma-set D."""
    return min(
        (-solvers.alpha_within(g, d)[0], g.induced_edge_count(d), d)
        for d in solvers.enumerate_min_dominating_sets(g)
    )


def cover_search(
    covers: tuple[int, ...],
    allowed: int,
    target: int,
    limit: int,
    found: Callable[[int, int], int],
) -> None:
    """``solvers._cover_search`` with the union sweep over every candidate."""

    def search(chosen: int, count: int, undom: int, avail: int) -> None:
        nonlocal limit
        if not undom:
            if count < limit:
                limit = found(chosen, count)
            return
        slack = limit - count - 1
        if slack <= 0:
            return
        maxcov = 0
        union = 0
        for v in bits(avail):
            c = (covers[v] & undom).bit_count()
            maxcov = max(maxcov, c)
            union |= covers[v]
        if undom & ~union or maxcov == 0:
            return
        if (undom.bit_count() + maxcov - 1) // maxcov > slack:
            return
        u = min(bits(undom), key=lambda w: (covers[w] & avail).bit_count())
        cands = sorted((-(covers[v] & undom).bit_count(), v) for v in bits(covers[u] & avail))
        remaining = avail
        for _, v in cands:
            search(chosen | (1 << v), count + 1, undom & ~covers[v], remaining & ~(1 << v))
            remaining &= ~(1 << v)

    search(0, 0, target, allowed)


def gamma_induced(g: Graph, sub: int) -> int:
    """Domination number of the induced subgraph G[sub], by trying every subset."""
    vertices = list(bits(sub))
    for k in range(len(vertices) + 1):
        for d in combinations(vertices, k):
            if not sub & ~g.closed_neighborhood(mask_of(d)):
                return k
    raise AssertionError("sub dominates itself")


def haxell_condition(g: Graph, cells: Sequence[int]) -> tuple[int, ...] | None:
    """Check gamma(G[V_S]) >= 2|S| - 1 for every index subset S.

    Returns None when the condition holds (an independent transversal is
    then guaranteed to exist), otherwise the first violating index set in
    increasing-bitmask order, as a tuple of 0-based cell indices.
    """
    for s_mask in range(1, 1 << len(cells)):
        union = 0
        for i in bits(s_mask):
            union |= cells[i]
        if gamma_induced(g, union) < 2 * s_mask.bit_count() - 1:
            return tuple(bits(s_mask))
    return None


def relabelled_bits(g: Graph, order: Sequence[int]) -> int:
    """Upper triangle of g with vertex order[i] placed at position i, packed row by row."""
    out = 0
    for i, j in combinations(range(g.n), 2):
        out = out << 1 | (g.adj[order[i]] >> order[j] & 1)
    return out


def canonical_form(g: Graph) -> tuple[int, int]:
    """(n, smallest packed upper triangle over all n! vertex orders)."""
    return g.n, min(relabelled_bits(g, order) for order in permutations(range(g.n)))


def refine(adj: Sequence[int], n: int, colors: list[int]) -> list[int]:
    """Equitable color refinement, every vertex keyed in every round.

    ``colors`` are dense (0..k-1).  Each round keys every vertex by its
    color followed by its neighbor count into every class, packed base
    n + 1, and renumbers the colors by the rank of the key; the coloring is
    stable once no class splits.  ``generate._refine`` must give the same
    colors while keying only the members of classes that can split, and
    only by their counts into the classes that split last.
    """
    base = n + 1
    k = max(colors) + 1
    while True:
        class_masks = [0] * k
        for v, c in enumerate(colors):
            class_masks[c] |= 1 << v
        keys = []
        for v in range(n):
            row = adj[v]
            key = colors[v]
            for cm in class_masks:
                key = key * base + (row & cm).bit_count()
            keys.append(key)
        distinct = sorted(set(keys))
        if len(distinct) == k:
            return colors
        relabel = {key: i for i, key in enumerate(distinct)}
        colors = [relabel[key] for key in keys]
        k = len(distinct)


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every permutation p (p[v] = image of v) that maps edges to edges."""
    return [
        p for p in permutations(range(g.n))
        if all(g.adj[p[u]] >> p[v] & 1 == g.adj[u] >> v & 1 for u, v in combinations(range(g.n), 2))
    ]


def components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, by union-find over the edges."""
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges():
        root[find(u)] = find(v)
    parts: dict[int, int] = {}
    for v in range(g.n):
        parts[find(v)] = parts.get(find(v), 0) | 1 << v
    return sorted(parts.values(), key=lambda part: part & -part)
