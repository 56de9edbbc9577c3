"""Graph corpora: exhaustive isomorphism-free generation, structured
families, and seeded random graphs.

The exhaustive generator grows graphs one vertex at a time by canonical
augmentation (McKay, "Isomorph-free exhaustive generation", 1998): a
child is kept iff its new vertex lies in the automorphism orbit of the
last vertex of its canonical labelling, so no set of keys is kept and
each parent's children depend on that parent alone.  Two cheap tests, the
new vertex's degree and refining the child's degree classes until that
decides, settle most children, most of them from the parent's degree
classes before the child is built; the rest run ``canonical_form`` from
test 2's coloring, a search by color refinement plus individualization,
so no external tooling is needed for the small-order sweeps (n <= 8: 1,
2, 4, 11, 34, 156, 1044, 12346 graphs).  The automorphisms the canonical
form finds prune twice: subtrees of its own search that are images of
explored ones, and attach masks that an automorphism of the parent maps
to a smaller one.  Both skip only work whose outcome is already decided.
``all_graphs`` says why each cheap test is sound and how the
automorphisms are computed lazily.

Refinement keeps a coloring as its list of class masks and refines only
against what just split (McKay 1981; McKay and Piperno, "Practical graph
isomorphism, II", 2014).  It keys only the
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
from typing import Sequence

from . import solvers
from .graph import Graph, disjoint_union


# -- canonical forms -----------------------------------------------------------

def _round(
    adj: tuple[int, ...], n: int, masks: list[int], fresh: list[int]
) -> tuple[list[int], list[int]]:
    """One round of ``_refine``: the members of each class of two or more
    are keyed by their neighbor counts into the ``fresh`` classes, in color
    order, packed base n + 1, and the class splits by key, in sorted order.
    Returns the coloring and the classes fresh in the next round, the parts
    of each class that split less its last part, in color order.
    """
    base = n + 1
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
    return split, parted


def _refine(
    adj: tuple[int, ...], n: int, masks: list[int], fresh: list[int] | None = None
) -> list[int]:
    """Equitable color refinement: split classes by neighbor counts.

    A coloring is the list of its class masks, ``masks[c]`` the vertices of
    color ``c``.  ``_round`` runs from ``fresh``, every class when not
    given, until no class splits.

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
    class, is the one found.
    """
    if fresh is None:
        fresh = masks
    while fresh:
        masks, fresh = _round(adj, n, masks, fresh)
    return masks


def _closure(mask: int, perms: Sequence[bytes]) -> int:
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


def canonical_form(
    g: Graph, root: list[int] | None = None
) -> tuple[tuple[int, int], tuple[bytes, ...], bytes]:
    """(n, bits) key identical across isomorphic graphs, automorphisms of g,
    and the vertex order of the first leaf with the least code.

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
    (compact, since ``all_graphs`` keeps them for the graphs it
    generates).  A node individualizes one vertex of its target cell per
    orbit under the automorphisms found so far that fix the node's
    individualized vertices: a skipped subtree is the image of an explored
    one, with the same codes, so the minimum is that of the whole tree.
    Since every leaf is compared with the first leaf of its code, the
    automorphisms returned generate all of Aut(g) (McKay, "Practical graph
    isomorphism", 1981).  The order comes as bytes, ``order[i]`` the vertex
    at position i; relabelling g by it, ``order[i]`` to i, gives the graph
    the key encodes.  Any two leaves with the least code differ by an
    automorphism, so the orbit of ``order[-1]`` under Aut(g) is a
    canonical choice of vertex: an isomorphism between two graphs maps
    the one orbit onto the other.  The search starts from the refinement
    of the unit coloring, or from ``root`` if given, which must be it.
    ``rec`` deletes its own cell once the root returns.
    """
    n = g.n
    if n <= 1:
        return (n, 0), (), bytes(n)
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

    rec(root or _refine(adj, n, [full]), 0)
    del rec
    least = min(leaves)
    return (n, least), tuple(autos), bytes(cell.bit_length() - 1 for cell in leaves[least])


# -- exhaustive corpus -----------------------------------------------------------

# n -> (the graphs on n vertices, generators of each one's automorphism group:
# those canonical_form found, or None until the next order needs them)
_ALL_GRAPHS: dict[int, tuple[tuple[Graph, ...], list[tuple[bytes, ...] | None]]] = {}


def _mask_images(p: bytes, width: int) -> list[list[int]]:
    """[low, high]: p maps each m below 1 << width to ``low[m & (1 << half)
    - 1] | high[m >> half]``, half = ceil(width / 2), in 2^half +
    2^(width - half) entries."""
    half = width + 1 >> 1
    tables = []
    for part in (p[:half], p[half:width]):
        images = [0] * (1 << len(part))
        for m in range(1, len(images)):
            low = m & -m
            images[m] = images[m ^ low] | 1 << part[low.bit_length() - 1]
        tables.append(images)
    return tables


def _attach_masks(classes: list[int], autos: tuple[bytes, ...]) -> list[int]:
    """The neighborhoods a new vertex is given in a parent whose vertices of
    degree d are ``classes[d]``, in increasing order.

    A mask is left out when the new vertex would have less than the
    child's largest degree (test 1): some parent vertex already has more
    neighbors, or as many and gains the new vertex.  Of the rest, only the
    smallest mask of each orbit under the group ``autos`` generate is
    kept: the children of one orbit are isomorphic by an isomorphism that
    fixes the new vertex.  An orbit passes or fails test 1 as a whole,
    since its masks have one size and the parent's largest-degree vertices
    are a union of orbits.  Each generator maps masks by ``_mask_images``.
    """
    new = len(classes)
    top = max((d for d, cell in enumerate(classes) if cell), default=0)
    busiest = classes[top] if classes else 0
    half = new + 1 >> 1
    lows = (1 << half) - 1
    images = [_mask_images(p, new) for p in autos]
    tried = bytearray(1 << new)  # masks already met in some orbit
    masks = []
    for attach in range(1 << new):
        size = attach.bit_count()
        if size < top or size == top and attach & busiest or tried[attach]:
            continue
        masks.append(attach)
        # attach is the first mask of its orbit met, so the smallest: mark the orbit
        stack = [attach]
        while stack:
            m = stack.pop()
            for low, high in images:
                image = low[m & lows] | high[m >> half]
                if not tried[image]:
                    tried[image] = 1
                    stack.append(image)
    return masks


def _settled(
    adj: tuple[int, ...], classes: list[int], attach: int
) -> tuple[tuple[int, ...], list[int] | None] | None:
    """Test 2 on the child joining v = len(adj) to ``attach``, a mask test 1
    passed, in the parent with rows ``adj`` and degree classes ``classes``:
    None to reject it, else its rows and None to keep it or, when only
    ``canonical_form`` can tell, its root coloring.

    The last class of the child's root coloring holds every vertex that
    can come last in a leaf, and is a union of Aut(child)-orbits.  So v
    is outside the canonical last vertex's orbit if it is outside that
    class, and is that vertex if the class is {v}.  The child's class of
    degree d is the parent's outside ``attach`` and its class d - 1 inside;
    v's, of degree |attach|, is the last.  Round one keeps of it those
    keyed highest by counts into the classes before it, which miss v, so
    a member's key is its parent row's: a key above v's rejects the child
    and none tying it keeps it, before any rows are built.  Otherwise
    refinement runs from the degree classes until it decides, since each
    round's last class lies in the one before.
    """
    n = len(adj) + 1
    v = 1 << n - 1
    by_degree = [0] * n
    for d, cell in enumerate(classes):
        if cell:
            by_degree[d] |= cell & ~attach
            by_degree[d + 1] |= cell & attach
    by_degree[attach.bit_count()] |= v
    masks = [cell for cell in by_degree if cell]
    fresh = masks[:-1]
    key = [(attach & cell).bit_count() for cell in fresh]
    tied = False
    rest = masks[-1] ^ v
    while rest:
        low = rest & -rest
        rest ^= low
        row = adj[low.bit_length() - 1]
        other = [(row & cell).bit_count() for cell in fresh]
        if other >= key:
            if other != key:
                return None
            tied = True
    rows = (*[row | v if attach >> u & 1 else row for u, row in enumerate(adj)], attach)
    if not tied:
        return rows, None
    while fresh and masks[-1] & v and masks[-1] != v:
        masks, fresh = _round(rows, n, masks, fresh)
    if not masks[-1] & v:
        return None
    return rows, None if masks[-1] == v else masks


def all_graphs(n: int) -> tuple[Graph, ...]:
    """All non-isomorphic simple graphs on exactly n vertices.

    Orderly generation by canonical augmentation (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998).  Each graph P of
    ``all_graphs(n - 1)`` (a parent) is extended by a vertex v = n - 1
    joined to a mask of P's vertices (a child C), parents in order and
    masks in increasing order, one mask per orbit under Aut(P).  C is kept
    iff v lies in the Aut(C)-orbit of C's canonical last vertex, the last
    vertex of the order ``canonical_form`` returns.  Every class is kept
    once: deleting the canonical last vertex of any graph of the class
    leaves a graph isomorphic to one parent, and one mask orbit of it
    gives the class that way; two kept children of one class differ by an
    isomorphism taking v to v, so they share a parent and their masks
    share an orbit of Aut(P).  No set of keys is kept, and each parent's
    children depend on that parent alone.

    Two cheap tests decide most children before any search.  A leaf's
    order refines the root's equitable coloring in place, and the first
    round of refinement sorts vertices by degree, ascending, so the last
    position always lies in the root's last class, and that class holds
    only vertices of the largest degree.  Test 1 (``_attach_masks``)
    rejects C if v has less than the largest degree, read off the parent's
    degrees before C is built.  Test 2 (``_settled``) refines C's degree
    classes and rejects C once v is outside the last class, or keeps it
    once the last class is {v}.  It reads round one off P's degree classes,
    so C's rows are built only if C is kept or left open.  Only the
    children it leaves open run ``canonical_form``, from the root coloring
    test 2 refined, and the orbit of the last vertex comes from
    ``_closure`` over the automorphisms it found, which generate Aut(C).

    A kept child's automorphisms are kept with it for the masks of the
    next order: those its search found, or for a child kept by test 2,
    those of a ``canonical_form`` run when ``all_graphs(n + 1)`` first
    needs them.  So the top order runs no search on the children test 2
    keeps.  Each representative is labelled as its parent plus v.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n in _ALL_GRAPHS:
        return _ALL_GRAPHS[n][0]
    graphs: list[Graph] = []
    automorphisms: list[tuple[bytes, ...] | None] = []
    if n == 0:
        graphs.append(Graph(0))
        automorphisms.append(())
    else:
        new = n - 1
        bit = 1 << new
        parents = all_graphs(new)
        parent_autos = _ALL_GRAPHS[new][1]
        for i, parent in enumerate(parents):
            if parent_autos[i] is None:
                parent_autos[i] = canonical_form(parent)[1]
            classes = [0] * new
            for u, row in enumerate(parent.adj):
                classes[row.bit_count()] |= 1 << u
            for attach in _attach_masks(classes, parent_autos[i]):
                settled = _settled(parent.adj, classes, attach)
                if settled is None:
                    continue
                child = Graph(n)  # rows symmetric and loop-free by construction
                child.adj, root = settled
                autos = None
                if root is not None:
                    _, autos, order = canonical_form(child, root)
                    if not _closure(1 << order[-1], autos) & bit:
                        continue
                graphs.append(child)
                automorphisms.append(autos)
    _ALL_GRAPHS[n] = tuple(graphs), automorphisms
    return _ALL_GRAPHS[n][0]


# -- structured families -----------------------------------------------------------

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
    return disjoint_union(g, Graph(2 * t, [(2 * i, 2 * i + 1) for i in range(t)]))


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
