"""Exact solvers for the domination-theory invariants.

All searches are branch-and-bound over bitmask vertex sets, tuned for
graphs of a few dozen vertices, and two of them serve every solver.  One
set-cover search serves gamma, ``min_dominating_within``, the minimum
dominating sets and the inverse pass: it branches on the undominated vertex
with the fewest candidates, most-dominating candidate first, and excludes
earlier siblings from later branches, so it reaches each set once.  One
search for the largest subset that splits into one or two independent sides
serves alpha, ``alpha_within`` and b(G).  No solver runs another for a seed.

Besides the count of its candidates, that second search bounds a node by
what its candidates must lose (``_side_loss``): a greedy matching inside the
vertices that can join only one side, and greedy vertex-disjoint triangles
inside those that can join either.  The bound cuts only subtrees that cannot
beat the best so far, so the search meets the same improving leaves in the
same order, and every alpha and b witness is the one it returned without it.

gamma, alpha, b, the inverse pass and ``optimal_dominating_set`` run their
searches once per connected component, on the component's mask
(``Graph.components``).  A closed neighborhood stays inside its component,
so a search over one component's mask solves the subgraph it induces.  The
values add over components, and ``_by_component`` joins the parts: each
witness is the union of the parts' own witnesses.  For alpha, b, the
inverse certificate's D and the optimal gamma-set, that union is also what
one search over the whole graph returns.  For the least covers behind
gamma and the certificate's T it is a least cover too, but not always the
first one a whole-graph search reaches.  The gamma-sets do not add: their
number is the product of the parts' counts (5 * 2^t on C5 + t*K2), so
``enumerate_min_dominating_sets``, whose output is that product, is the one
search still run on the whole graph.  ``min_dominating_within`` and
``alpha_within`` take an arbitrary ``allowed`` mask and do not split either.

The inverse pass searches V - D for each minimum dominating set D only as
far as D can still move gamma^-1 or strong gamma^-1.  Once D's best cover
so far cannot raise the largest size seen, the limit drops to the least
size seen; a limit of at most gamma = |D| skips the search, since no
dominating set is smaller.

Every result is deterministic: minimum dominating sets come back in
increasing bitmask order, each component's witness is the first optimum
its search reaches, and ties in ``optimal_dominating_set`` break toward the
smallest bitmask.
"""

from __future__ import annotations

from operator import add
from typing import Callable

from .certificates import DominationCertificate, InverseCertificate
from .errors import HasIsolates
from .graph import Graph


# -- independent sides: alpha and b(G) -------------------------------------

def _side_loss(adj: tuple[int, ...], cand_a: int, cand_b: int) -> int:
    """A lower bound on the vertices of ``cand_a | cand_b`` that every split
    into an independent A <= cand_a and an independent B <= cand_b leaves out.

    A vertex of only one candidate set joins only that side, so each edge of
    a greedy matching inside those vertices, one group per side, loses an
    end.  The vertices of both sets that are taken induce a bipartite graph,
    so each of their greedy vertex-disjoint triangles loses a vertex.  The
    three groups are disjoint, so the losses add.
    """
    loss = 0
    both = cand_a & cand_b
    for rest in (cand_a & ~both, cand_b & ~both):
        while rest:
            low = rest & -rest
            rest ^= low
            mate = adj[low.bit_length() - 1] & rest
            if mate:
                rest ^= mate & -mate
                loss += 1
    rest = both
    while rest:
        low = rest & -rest
        rest ^= low
        nbrs = adj[low.bit_length() - 1] & rest
        while nbrs:  # a triangle low, w, x with w < x both in rest
            w = nbrs & -nbrs
            nbrs ^= w
            third = adj[w.bit_length() - 1] & nbrs
            if third:
                rest &= ~(w | (third & -third))
                loss += 1
                break
    return loss


def _max_sides(g: Graph, allowed: int, sides: int) -> tuple[int, int]:
    """Largest subset of ``allowed`` splitting into ``sides`` (1 or 2)
    independent sets A and B: (size, witness A | B).

    A node takes every free candidate (no candidate neighbour), onto A where
    A can take it, then puts the pivot (highest candidate degree, lowest id)
    on A, on B, or leaves it out.  B opens only once A is non-empty, since
    the sides are interchangeable until then.

    A node is cut when its size plus its candidates, less ``_side_loss``,
    cannot beat the best so far.  A leaf is reached only when it beats the
    best, and a cut subtree holds no such leaf, so the cuts change neither
    the order in which the best improves nor the witness.
    """
    g.check_subset(allowed)
    adj = g.adj
    best, best_mask = 0, 0

    def grow(a: int, b: int, count: int, cand_a: int, cand_b: int) -> None:
        nonlocal best, best_mask
        cand = cand_a | cand_b
        bound = count + cand.bit_count()
        if bound <= best or bound - _side_loss(adj, cand_a, cand_b) <= best:
            return
        # taking a free vertex changes no candidate degree: one pass finds both
        free = 0
        pivot, pivot_deg = -1, 0
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            d = (adj[v] & cand).bit_count()
            if not d:
                free |= low
            elif d > pivot_deg:
                pivot, pivot_deg = v, d
        a |= free & cand_a
        b |= free & ~cand_a
        count += free.bit_count()
        cand_a &= ~free
        cand_b &= ~free
        if pivot < 0:
            best, best_mask = count, a | b
            return
        pb = 1 << pivot
        if cand_a & pb:
            grow(a | pb, b, count + 1, cand_a & ~(adj[pivot] | pb), cand_b & ~pb)
        if a and cand_b & pb:
            grow(a, b | pb, count + 1, cand_a & ~pb, cand_b & ~(adj[pivot] | pb))
        grow(a, b, count, cand_a & ~pb, cand_b & ~pb)

    grow(0, 0, 0, allowed, allowed if sides == 2 else 0)
    return best, best_mask


def alpha_within(g: Graph, allowed: int) -> tuple[int, int]:
    """Largest independent subset of ``allowed``: (size, witness mask).

    Independence inside ``allowed`` equals independence in the induced
    subgraph, so this doubles as alpha of G[allowed].
    """
    return _max_sides(g, allowed, 1)


def _by_component(g: Graph, solve: Callable[[int], tuple[int, ...]]) -> tuple[int, ...]:
    """Run ``solve`` on each component mask and add its results term by term.

    Sizes add over components, and the parts' witness masks are disjoint, so
    their sum is their union.  The empty graph is solved as one empty part.
    """
    parts = g.components() or (0,)
    total = solve(parts[0])
    for part in parts[1:]:
        total = tuple(map(add, total, solve(part)))
    return total


def alpha(g: Graph) -> tuple[int, int]:
    """Independence number with a maximum independent set witness."""
    return _by_component(g, lambda part: _max_sides(g, part, 1))


def max_induced_bipartite(g: Graph) -> tuple[int, int]:
    """Largest vertex set inducing an odd-cycle-free subgraph: (b(G), witness)."""
    return _by_component(g, lambda part: _max_sides(g, part, 2))


# -- domination --------------------------------------------------------------

def _greedy_cover(covers: tuple[int, ...], allowed: int, target: int) -> int | None:
    """Greedy max-coverage solution mask, or None if allowed cannot cover."""
    chosen = 0
    undom = target
    while undom:
        pick, gain = -1, 0
        rest = allowed & ~chosen
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            c = (covers[v] & undom).bit_count()
            if c > gain:
                pick, gain = v, c
        if pick < 0:
            return None
        chosen |= 1 << pick
        undom &= ~covers[pick]
    return chosen


def _cover_search(
    covers: tuple[int, ...],
    allowed: int,
    target: int,
    limit: int,
    found: Callable[[int, int], int],
) -> None:
    """Call ``found(S, |S|)`` on covers S <= allowed of target with |S| < limit.

    ``found`` returns the new limit.  Each cover is reached at most once, and
    every inclusion-minimal one below the limit of the moment is reached.
    ``covers`` must be symmetric (u in covers[v] iff v in covers[u]), as
    closed neighborhoods are.
    """

    def search(chosen: int, count: int, undom: int, avail: int) -> None:
        nonlocal limit
        if not undom:
            if count < limit:  # a sibling's subtree may have lowered the limit
                limit = found(chosen, count)
            return
        slack = limit - count - 1  # picks we may still spend
        if slack <= 0:
            return
        maxcov = 0
        union = 0
        rest = avail
        while rest:
            low = rest & -rest
            rest ^= low
            cover = covers[low.bit_length() - 1]
            c = (cover & undom).bit_count()
            if c > maxcov:
                maxcov = c
            union |= cover
        if undom & ~union or maxcov == 0:
            return
        if (undom.bit_count() + maxcov - 1) // maxcov > slack:
            return
        # branch on the hardest uncovered vertex
        u, u_opts = -1, 1 << 30
        rest = undom
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            k = (covers[w] & avail).bit_count()
            if k < u_opts:
                u, u_opts = w, k
        # most-covering candidate first, lowest id on ties
        cands = []
        rest = covers[u] & avail
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            cands.append((-(covers[v] & undom).bit_count(), v))
        cands.sort()
        remaining = avail  # later branches exclude earlier siblings
        for _, v in cands:
            search(chosen | (1 << v), count + 1, undom & ~covers[v], remaining & ~(1 << v))
            remaining &= ~(1 << v)

    search(0, 0, target, allowed)


def _min_cover(covers: tuple[int, ...], allowed: int, target: int) -> tuple[int, int] | None:
    """Smallest S <= allowed with union of covers[S] >= target, or None.

    The witness is the first cover of least size that the search reaches,
    or the greedy cover if the search finds none smaller.
    """
    greedy = _greedy_cover(covers, allowed, target)
    if greedy is None:
        return None
    best = greedy

    def improve(chosen: int, count: int) -> int:
        nonlocal best
        best = chosen
        return count

    _cover_search(covers, allowed, target, greedy.bit_count(), improve)
    return best.bit_count(), best


def _domination_covers(g: Graph) -> tuple[int, ...]:
    return tuple(g.adj[v] | (1 << v) for v in range(g.n))


def _gamma_part(covers: tuple[int, ...], part: int) -> tuple[int, int]:
    """Domination number of G[part] with its witness."""
    result = _min_cover(covers, part, part)
    assert result is not None  # part always dominates itself
    return result


def gamma(g: Graph) -> tuple[int, int]:
    """Domination number with a minimum dominating set witness."""
    covers = _domination_covers(g)
    return _by_component(g, lambda part: _gamma_part(covers, part))


def min_dominating_within(g: Graph, allowed: int) -> tuple[int, int] | None:
    """Smallest dominating set of g contained in ``allowed``, if any.

    No code in ``invdom`` calls it, but ``perfbench/tracing.py::TRACED``
    names it, so deleting it is a benchmark change.
    """
    g.check_subset(allowed)
    return _min_cover(_domination_covers(g), allowed, g.full)


def _min_covers(covers: tuple[int, ...], part: int) -> list[int]:
    """All dominating sets of G[part] of size gamma(G[part]), in increasing
    bitmask order."""
    out: list[int] = []

    def collect(chosen: int, count: int) -> int:
        if out and count < out[0].bit_count():
            out.clear()
        out.append(chosen)
        return count + 1

    # A smaller cover drops the larger ones collected.  The limit never drops
    # below gamma + 1, and the search reaches every inclusion-minimal cover
    # below its limit, so every gamma-set is found.
    _cover_search(covers, part, part, part.bit_count() + 1, collect)
    out.sort()
    return out


def enumerate_min_dominating_sets(g: Graph) -> list[int]:
    """All dominating sets of size gamma(g), in increasing bitmask order."""
    return _min_covers(_domination_covers(g), g.full)


# -- inverse domination -------------------------------------------------------

def _require_isolate_free(g: Graph) -> None:
    if g.has_isolated_vertex():
        raise HasIsolates("a graph with isolates cannot have an inverse dominating set")


def _inverse_part(covers: tuple[int, ...], part: int) -> tuple[int, int, int, int]:
    """The inverse pass on an isolate-free G[part]: (gamma^-1, T, D, strong
    gamma^-1), with (D, T) the certificate."""
    best = (part.bit_count() + 1, 0, 0)  # (size, t_mask, d_mask); every real size is <= |part|
    worst = 0
    size = t_mask = 0  # least cover of part - D found so far for the current D

    def threshold(chosen: int, count: int) -> int:
        nonlocal size, t_mask
        size, t_mask = count, chosen
        return count if count > worst else min(count, best[0])

    for d in _min_covers(covers, part):
        allowed = part & ~d
        greedy = _greedy_cover(covers, allowed, part)
        assert greedy is not None  # Ore: part - D dominates for isolate-free G[part]
        limit = threshold(greedy, greedy.bit_count())
        if limit > d.bit_count():
            _cover_search(covers, allowed, part, limit, threshold)
        if size < best[0]:
            best = (size, t_mask, d)
        worst = max(worst, size)
    size, t_mask, d_mask = best
    return size, t_mask, d_mask, worst


def inverse_pass(g: Graph) -> tuple[int, InverseCertificate, int]:
    """gamma^-1 with its certificate, and strong gamma^-1, from one pass.

    For each minimum dominating set D, the smallest dominating set disjoint
    from D; gamma^-1 is the least of these sizes, certified by the first D
    in bitmask order that reaches it, and strong gamma^-1 the largest.
    Defined only for isolate-free graphs.  Each component runs its own
    pass: both values add over components, and the certificate's D and T
    are the unions of the parts' sets.

    Each D's search stops once it can move neither value.  It starts from
    the greedy cover of V - D.  After a cover of size c the limit is c while
    c exceeds the largest size so far, since D may still raise strong
    gamma^-1; otherwise it is min(c, least size so far), so the search only
    looks for a cover that would lower gamma^-1.  No dominating set is
    smaller than gamma = |D|, so a starting limit of at most |D| skips the
    search.  A D that moves either value still gets its exact size, and the
    limit stays above that size until the search reaches its first least
    cover, so the certificate is the one an unlimited search would give.
    """
    _require_isolate_free(g)
    covers = _domination_covers(g)
    size, t_mask, d_mask, strong = _by_component(g, lambda part: _inverse_part(covers, part))
    return size, InverseCertificate(d_mask, t_mask, "exact", size), strong


def inverse_gamma(g: Graph) -> tuple[int, InverseCertificate]:
    """Smallest inverse dominating set size, with a realizing (D, T) pair.

    ``inverse_pass`` serves every caller in ``invdom``; this wrapper stays
    because ``perfbench/tracing.py::TRACED`` names it, so deleting it is a
    benchmark change.
    """
    size, cert, _ = inverse_pass(g)
    return size, cert


def strong_inverse_gamma(g: Graph) -> int:
    """Largest, over minimum dominating sets D, of the best disjoint size.

    Kept, like ``inverse_gamma``, because ``perfbench/tracing.py::TRACED``
    names it.
    """
    return inverse_pass(g)[2]


# -- optimal dominating sets ----------------------------------------------------

def _optimal_part(g: Graph, covers: tuple[int, ...], part: int) -> tuple[int, int, int]:
    """Least key (-alpha(G[D]), induced edges of D, D) over the minimum
    dominating sets D of G[part]."""
    return min(
        (-alpha_within(g, d)[0], g.induced_edge_count(d), d) for d in _min_covers(covers, part)
    )


def optimal_dominating_set(g: Graph) -> DominationCertificate:
    """Minimum dominating set maximizing induced independence, then fewest
    induced edges, then smallest bitmask.

    Each term of the key adds over components, so each component picks its
    own least key and the set is the union of the parts' picks.
    """
    covers = _domination_covers(g)
    neg_alpha, edges, d = _by_component(g, lambda part: _optimal_part(g, covers, part))
    return DominationCertificate(
        d_set=d,
        size=d.bit_count(),
        alpha_of_d=-neg_alpha,
        induced_edges=edges,
        isolate_count=g.induced_isolates(d).bit_count(),
    )
