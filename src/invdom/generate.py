"""Graph corpora: exhaustive isomorphism-free generation, structured
families, and seeded random graphs.

The exhaustive generator grows graphs one vertex at a time and keeps a
child when it is the first to reach its isomorphism class, recognised by
a canonical form computed by color refinement plus individualization, so
no external tooling is needed for the small-order sweeps (n <= 8: 1, 2,
4, 11, 34, 156, 1044, 12346 graphs).  The automorphisms the canonical
form finds prune twice: subtrees of its own search that are images of
explored ones, and children that an automorphism of the parent maps to
an earlier child.  Both skip only work whose outcome is already decided,
so the canonical keys, the representatives and their order are those of
the unpruned search.  Refinement keeps a coloring as its list of class
masks and refines only against what just split (McKay 1981; McKay and
Piperno, "Practical graph isomorphism, II", 2014).  It keys only the
members of classes that can split, and only by their counts into the
fresh classes: the pieces of the classes that split the round before,
less the last piece of each.  A singleton class never splits, and its
place in the color order does not depend on its key.  The members of a
class already agree on their counts into every class that did not split
and into each class that split, taken whole, so a count into a last
piece follows from the counts into the pieces before it and never
decides an order.  Individualizing a vertex v of an equitable coloring
needs no keyed round: the members of each class agree on their counts
into v's cell, so the first round splits each class into its
non-neighbors of v, then its neighbors, one mask operation per class.
The colorings, and with them the keys, are those of keying every vertex
into every class (``tests/oracles.py`` keeps that plain form).  A leaf's
code is packed straight from its singleton masks, which also serve as
its vertex order.
"""

from __future__ import annotations

import random
from itertools import combinations

from . import solvers
from .graph import Graph, disjoint_union


# -- canonical forms -----------------------------------------------------------

def _refine(
    adj: tuple[int, ...], n: int, masks: list[int], fresh: list[int] | None = None
) -> list[int]:
    """Equitable color refinement: split classes by neighbor counts.

    A coloring is the list of its class masks, ``masks[c]`` the vertices of
    color ``c``.  Each round walks the classes in color order.  A singleton
    cannot split and keeps its place; the members of a larger class are
    keyed by their neighbor count into every fresh class, in color order,
    packed base n + 1, and the class splits into one class per distinct
    key, in sorted order.  ``fresh`` is every class when not given, and in
    each later round the parts of the classes that split in the round
    before, less the last part of each, in color order.

    Precondition: for each class of ``masks`` and each class C not in
    ``fresh``, the members of the class agree on their counts into C, or C
    is the last part of a split class whose other parts are fresh and they
    agree on their counts into that split class taken whole.  It holds
    when ``masks`` is an equitable coloring with one class split and
    ``fresh`` all its parts but the last, such as ``[{v}]`` for ``{v}``
    and the rest of v's cell.  Each round keeps it true: members with one
    key agree on every fresh class, and so on each last part, whose count
    is the whole's less its siblings'.  So counts into a class of the first
    kind would add digits equal across a class, and a count into a last
    part can differ between two members only after a sibling's, earlier
    in color order, has: the order of (old color, counts into every class)
    over all vertices, the coloring of keying every vertex into every
    class, is the one found.  The coloring is stable once no class splits.
    """
    base = n + 1
    if fresh is None:
        fresh = masks
    while True:
        split = []
        parted = []
        for cell in masks:
            if not cell & (cell - 1):
                split.append(cell)
                continue
            parts: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                row = adj[low.bit_length() - 1]
                key = 0
                for cm in fresh:
                    key = key * base + (row & cm).bit_count()
                parts[key] = parts.get(key, 0) | low
            if len(parts) == 1:
                split.append(cell)
            else:
                pieces = [parts[key] for key in sorted(parts)]
                split += pieces
                parted += pieces[:-1]
        if not parted:
            return masks
        masks = split
        fresh = parted


def _closure(mask: int, perms: list[bytes]) -> int:
    """Union of the orbits of ``mask``'s vertices under the group ``perms`` generate."""
    frontier = mask
    while frontier:
        images = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            v = low.bit_length() - 1
            for p in perms:
                images |= 1 << p[v]
        frontier = images & ~mask
        mask |= frontier
    return mask


def canonical_form(g: Graph) -> tuple[tuple[int, int], tuple[bytes, ...]]:
    """(n, bits) key identical across isomorphic graphs, and automorphisms of g.

    The key is the smallest code over the leaves of the
    individualization-refinement tree.  A node is an equitable coloring
    from ``_refine``, as class masks; its target cell is its first class
    with two or more vertices, and it is a leaf once every class is a
    singleton, its classes in color order giving the vertex order.  A
    child individualizes one vertex v of the target cell: v keeps the
    target color, the rest of the cell and every later class move up one.
    The node is equitable, so the members of any class agree on their
    counts into the target cell, and the first round of refinement, keyed
    by counts into ``{v}`` and the rest of the cell, splits each class
    into its non-neighbors of v, then its neighbors.  ``rec`` does that
    round itself, one mask operation per class, and calls ``_refine`` only
    if some class split, with the non-neighbor pieces fresh (the neighbor
    pieces are the last parts); otherwise the child is already stable.  A
    leaf's code is the upper triangle of the graph relabeled by that
    order, packed from its singleton masks: row i holds one bit
    per later position j, the first of them highest, and each vertex's
    later neighbors are placed at their positions, so a row costs its
    degree.  Two leaves with the same code differ by an automorphism, the
    permutation taking the first leaf's order to the other's; each one
    found is recorded as bytes ``p`` with ``p[v]`` the image of ``v``
    (compact, since ``all_graphs`` keeps them for every graph it
    generates).  A node individualizes one vertex of its target cell per
    orbit under the automorphisms found so far that fix the node's
    individualized vertices: a skipped subtree is the image of an explored
    one, with the same codes, so the minimum is that of the whole tree.
    Since every leaf is compared with the first leaf of its code, the
    automorphisms returned generate all of Aut(g) (McKay, "Practical graph
    isomorphism", 1981).
    """
    n = g.n
    if n <= 1:
        return (n, 0), ()
    adj = g.adj
    full = (1 << n) - 1
    leaves: dict[int, list[int]] = {}
    autos: list[bytes] = []
    fixed_by: list[int] = []  # fixed_by[i]: mask of the vertices autos[i] fixes

    def rec(masks: list[int], path: int) -> None:
        if len(masks) == n:
            place = [0] * n  # place[v]: v's bit in the row of any earlier position
            bit = 1 << n
            for cell in masks:
                bit >>= 1
                place[cell.bit_length() - 1] = bit
            code = 0
            later = full
            width = n
            for cell in masks:
                later ^= cell
                width -= 1
                rest = adj[cell.bit_length() - 1] & later
                row = 0
                while rest:
                    low = rest & -rest
                    rest ^= low
                    row |= place[low.bit_length() - 1]
                code = code << width | row
            first = leaves.setdefault(code, masks)
            if first is not masks:
                p = [0] * n
                fixed = 0
                for a, b in zip(first, masks):
                    p[a.bit_length() - 1] = b.bit_length() - 1
                    if a == b:
                        fixed |= a
                autos.append(bytes(p))
                fixed_by.append(fixed)
            return
        target = 0
        while not masks[target] & (masks[target] - 1):
            target += 1
        cell = masks[target]
        head = masks[:target]
        tail = masks[target + 1:]
        explored = covered = 0
        stabilizer: list[bytes] = []  # the autos found so far that fix path
        checked = 0
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            if covered & low:
                continue
            # the rest of the cell and every later class move up one, each
            # split into v's non-neighbors (fresh), then its neighbors; the
            # classes of head are singletons
            row = adj[low.bit_length() - 1]
            child = head + [low]
            fresh = []
            for other in [cell ^ low] + tail:
                inside = other & row
                if inside and inside != other:
                    child += (other ^ inside, inside)
                    fresh.append(other ^ inside)
                else:
                    child.append(other)
            rec(_refine(adj, n, child, fresh) if fresh else child, path | low)
            explored |= low
            for i in range(checked, len(autos)):
                if not path & ~fixed_by[i]:
                    stabilizer.append(autos[i])
            checked = len(autos)
            covered = _closure(explored, stabilizer) if stabilizer else explored

    rec(_refine(adj, n, [full]), 0)
    return (n, min(leaves)), tuple(autos)


# -- exhaustive corpus -----------------------------------------------------------

# n -> (the graphs on n vertices, the automorphisms canonical_form found for each)
_ALL_GRAPHS: dict[int, tuple[tuple[Graph, ...], tuple[tuple[bytes, ...], ...]]] = {}


def _mask_images(p: bytes, width: int) -> list[int]:
    """images[m] = the vertex set m mapped by p, for every m below 1 << width."""
    images = [0] * (1 << width)
    for m in range(1, 1 << width):
        low = m & -m
        images[m] = images[m ^ low] | 1 << p[low.bit_length() - 1]
    return images


def all_graphs(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic simple graphs on exactly n vertices.

    Each graph on n - 1 vertices (a parent) is extended by one vertex
    joined to a set ``attach`` of parent vertices (a child), parents in
    the order of ``all_graphs(n - 1)`` and masks in increasing order, and
    a child is kept if it is the first to reach its isomorphism class.
    A mask is tried only if it is the smallest in its orbit under the
    parent's automorphisms: if p(attach) < attach, the child of p(attach)
    is isomorphic and comes earlier, so the later one could never be kept.
    The graphs kept, their labels and their order are therefore the same
    as with every mask tried.  A parent's automorphisms are those
    ``canonical_form`` found when the parent was kept as a child.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n in _ALL_GRAPHS:
        return _ALL_GRAPHS[n][0]
    seen: set[tuple[int, int]] = set()
    graphs: list[Graph] = []
    automorphisms: list[tuple[bytes, ...]] = []
    if n == 0:
        graphs.append(Graph(0))
        automorphisms.append(())
    else:
        new = n - 1
        for parent, parent_autos in zip(all_graphs(new), _ALL_GRAPHS[new][1]):
            images = [_mask_images(p, new) for p in parent_autos]
            tried = bytearray(1 << new)  # masks already met in some orbit
            for attach in range(1 << new):
                if tried[attach]:
                    continue
                # attach is the first mask of its orbit met, so the smallest: mark the orbit
                stack = [attach]
                tried[attach] = 1
                while stack:
                    m = stack.pop()
                    for table in images:
                        if not tried[table[m]]:
                            tried[table[m]] = 1
                            stack.append(table[m])
                rows = [
                    parent.adj[v] | ((attach >> v & 1) << new) for v in range(new)
                ]
                rows.append(attach)
                child = Graph(n)  # rows symmetric and loop-free by construction
                child.adj = tuple(rows)
                key, autos = canonical_form(child)
                if key not in seen:
                    seen.add(key)
                    graphs.append(child)
                    automorphisms.append(autos)
    _ALL_GRAPHS[n] = tuple(graphs), tuple(automorphisms)
    return _ALL_GRAPHS[n][0]


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


def pad_with_k2(g: Graph, t: int) -> Graph:
    """Disjoint union of g with t single-edge components; ``TooLarge`` past the vertex cap."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    out = g
    for _ in range(t):
        out = disjoint_union(out, Graph(2, [(0, 1)]))
    return out


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
        if g.has_isolated_vertex():
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
    admit(pad_with_k2(Graph(0), 5))
    five_stars = star_graph(3)
    for _ in range(4):
        five_stars = disjoint_union(five_stars, star_graph(3))
    admit(five_stars)

    for n in (13, 14, 15):
        admit(cycle_graph(n))

    # small isolate-free bases padded with single-edge components up to gamma 5
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
