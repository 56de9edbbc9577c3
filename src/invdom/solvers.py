"""Exact solvers for the domination-theory invariants.

All searches are branch-and-bound over bitmask vertex sets, tuned for
graphs of a few dozen vertices, and three of them serve every solver.  One
set-cover search serves gamma, ``min_dominating_within``, the minimum
dominating sets and the inverse pass: it branches on the undominated vertex
with the fewest candidates, most-dominating candidate first, and excludes
earlier siblings from later branches, so it reaches each set once.  One
search for the largest independent set (``_max_independent``) serves alpha
and ``alpha_within``, by the textbook rule (Fomin and Kratsch, Exact
Exponential Algorithms, ch. 1): a candidate with at most one candidate
neighbour is taken outright, and otherwise the search branches over the
closed neighbourhood N[v] of a least-degree candidate v, since every
largest set holds a vertex of N[v].  One search for the largest subset that
splits into two independent sides (``_max_sides``) serves b(G).  b reads
the held alpha's witness: its size on a component is the sides' cap, and
the witness with a greedy independent set of the component's other
vertices is the split b's search starts from and only has to beat.  No
other solver runs another for a seed.

The cover search runs a node only where vertices are undominated and a
pick is left, and settles the other children in the parent.  A node with
one pick left scans its candidates in increasing id and reports each one
that dominates every undominated vertex: exactly the children through
which a full node reaches a cover, and in its order, since they cover the
most and each lies in every undominated vertex's candidate set.  A node
with s >= 2 picks left and u vertices undominated can end in a cover only
if some candidate covers at least ceil(u / s) of them, so it is cut when
none does: the cut that a sweep for the largest coverage makes.  Its pass
over the candidates stops at the first one that does, which most nodes
reach after a few.  The loop that picks the vertex to branch on ends the
node at an undominated vertex with no candidate left.  Covers are
symmetric, so that is the sweep's test that the candidates' covers reach
every undominated vertex.  In its loop over the children, a pick that
dominates the rest is reported there, a child with a pick left is
searched, and any other child is skipped, since it has no pick to spend.
The nodes cut and branch as the sweep did, so every search reaches the
same covers in the same order.

Besides the count of its candidates, each of the two independent-set
searches bounds a node by what its candidates must lose (``_side_loss``): a
greedy matching inside the vertices that can join only one side, and greedy
vertex-disjoint triangles inside those that can join either.  alpha's
search has one side, so its loss is a matching.  The bound cuts only
subtrees that cannot beat the best so far, so a search meets the same
improving leaves in the same order, and every alpha and b witness is the
one it returned without it.  An edge loses one of two vertices and a
triangle one of three, so the loss is at most half the candidates, and it
is computed only where that much would cut.  The count stops at the first
edge or triangle that closes the gap between the node's bound and the best,
which is all the cut asks.  For b, each side is independent, so neither
holds more than alpha of the component; where 2 * alpha is below the
component's order, a node is also cut when its sides, each capped at alpha,
cannot beat the best.

gamma, alpha, b, the inverse pass and ``optimal_dominating_set`` run their
searches once per connected component, on the component's mask
(``Graph.components``).  A closed neighborhood stays inside its component,
so a search over one component's mask solves the subgraph it induces.  The
values add over components, and ``_by_component`` joins the parts: each
witness is the union of the parts' own witnesses.  For alpha, the inverse
certificate's D and the optimal gamma-set, that union is also what one
search over the whole graph returns: there, each component's picks keep
the order of its own search.  For the least covers behind gamma
and the certificate's T it is a least cover too, but not always the first
one a whole-graph search reaches, and for b it is a largest bipartite
split: the parts' seeds or the leaves that beat them, which a search from
no seed need not reach.  The gamma-sets do not add: their
number is the product of the parts' counts (5 * 2^t on C5 + t*K2), so
``enumerate_min_dominating_sets``, whose output is that product, is the one
search still run on the whole graph.  ``min_dominating_within`` and
``alpha_within`` take an arbitrary ``allowed`` mask and do not split either.

The inverse pass returns (gamma^-1, T, D, strong gamma^-1), with (D, T)
the masks of its certificate.  D is a gamma-set, so ``verify`` takes gamma
and the main construction's D from it in place of gamma's own search.
``inverse_pass``'s docstring says how the pass limits or skips each
gamma-set's search.

``optimal_dominating_set`` solves alpha(G[D]) only for a D whose key, with
a greedy matching's bound in place of alpha, is below the least key so far.

Every recursive closure in ``invdom`` deletes its own cell once its root
call returns, and a recursion a caller may abandon is module-level, so a
call leaves no cycle for the cyclic collector (test_reference_cycles.py).

Every result is deterministic: minimum dominating sets come back in
increasing bitmask order, each component's witness is the first optimum
its search reaches (for b, its seed or the first leaf that beats it), and
ties in ``optimal_dominating_set`` break toward the smallest bitmask.

The solvers that one graph's callers ask more than once (gamma, alpha, b,
the closed neighborhoods, each component's gamma-sets and the optimal
gamma-set) keep their results for one graph, the most recent, keyed on the
content of ``g.adj``, which fixes n.  A different graph replaces them all.
So ``verify`` and every construction after it solve each of these once per
graph, the constructions' gates on one graph share one gamma search, and a
graph parsed afresh from the same graph6 line shares the results of one
built from edges.  Nothing is stored on the ``Graph``, and an object's
identity is no key: a caller that hands the same graph again after others
asks it afresh, as a benchmark that repeats its rounds does.  The results
held are immutable; ``enumerate_min_dominating_sets`` copies its gamma-sets
into a new list.
"""

from __future__ import annotations

from functools import wraps
from operator import add
from sys import maxsize
from typing import Callable

from .certificates import DominationCertificate, InverseCertificate
from .errors import HasIsolates
from .graph import Graph


# -- one graph's results -------------------------------------------------------

# the adjacency of the graph whose results are held, and those results by
# (solver, args)
_held: tuple[tuple[int, ...] | None, dict] = (None, {})
_MISSING = object()


def _per_graph(solve: Callable) -> Callable:
    """``solve(g, *args)``, answered from the held results when g has the
    held graph's adjacency; any other graph replaces what is held."""

    @wraps(solve)
    def memoized(g: Graph, *args):
        global _held
        adj, results = _held
        if adj != g.adj:
            results = {}
            _held = (g.adj, results)
        key = (solve, args)
        result = results.get(key, _MISSING)
        if result is _MISSING:
            result = results[key] = solve(g, *args)
        return result

    return memoized


# -- independent sides: alpha and b(G) -------------------------------------

def _side_loss(adj: tuple[int, ...], cand_a: int, cand_b: int, enough: int = maxsize) -> int:
    """A lower bound on the vertices of ``cand_a | cand_b`` that every split
    into an independent A <= cand_a and an independent B <= cand_b leaves out,
    or a count of at least ``enough`` once the bound reaches it.

    A vertex of only one candidate set joins only that side, so each edge of
    a greedy matching inside those vertices, one group per side, loses an
    end.  The vertices of both sets that are taken induce a bipartite graph,
    so each of their greedy vertex-disjoint triangles loses a vertex.  The
    three groups are disjoint, so the losses add.  The count stops at the
    edge or triangle that brings it to ``enough``: a caller that asks only
    whether the loss closes a gap needs no more, and one that leaves
    ``enough`` out gets the whole count.
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
                if loss >= enough:
                    return loss
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
                if loss >= enough:
                    return loss
                break
    return loss


def _max_sides(g: Graph, allowed: int, cap: int | None = None, seed: int = 0) -> tuple[int, int]:
    """Largest subset of ``allowed`` splitting into two independent sets A
    and B, the search behind b(G): (size, witness A | B).

    A node takes every free candidate (no candidate neighbour), onto A where
    A can take it, then puts the pivot (highest candidate degree, lowest id)
    on A, on B, or leaves it out.  B opens only once A is non-empty, since
    the sides are interchangeable until then.

    A node is cut when its size plus its candidates, less ``_side_loss``,
    cannot beat the best so far.  ``cap``, when given, is alpha(G[allowed]):
    no side holds more, so a node is also cut when min(|A| + |cand_a|, cap)
    + min(|B| + |cand_b|, cap) cannot beat the best.  That cut is tried only
    where 2 * cap < |allowed|, the dense case, where it pays.  A leaf is
    reached only when it beats the best, and a cut subtree holds no such
    leaf, so the cuts change neither the order in which the best improves
    nor the witness.  ``grow`` deletes its own cell once the root returns.

    ``seed``, when given, is a split of ``allowed`` into two independent
    sets, and the best starts at it.  The witness is then the seed, or the
    first leaf that beats it.  A seed of min(2 * cap, |allowed|) vertices
    ends the search at its root.
    """
    g.check_subset(allowed)
    adj = g.adj
    best, best_mask = seed.bit_count(), seed
    capped = cap is not None and 2 * cap < allowed.bit_count()

    def grow(a: int, b: int, count: int, cand_a: int, cand_b: int) -> None:
        nonlocal best, best_mask
        cand = cand_a | cand_b
        size = cand.bit_count()
        bound = count + size
        if bound <= best:
            return
        # the sides' sizes x and y have x + y > best here, so min(x, cap) +
        # min(y, cap) <= best exactly when 2 * cap <= best or one of x, y is
        # at most best - cap
        if capped and best >= cap and (
            best >= 2 * cap
            or a.bit_count() + cand_a.bit_count() <= best - cap
            or b.bit_count() + cand_b.bit_count() <= best - cap
        ):
            return
        # the loss is at most size // 2, so it cuts only a gap of at most that,
        # and its count stops once it closes the gap
        gap = bound - best
        if 2 * gap <= size and _side_loss(adj, cand_a, cand_b, gap) >= gap:
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

    grow(0, 0, 0, allowed, allowed)
    del grow
    return best, best_mask


def _max_independent(g: Graph, allowed: int) -> tuple[int, int]:
    """Largest independent subset of ``allowed``: (size, witness mask), the
    search behind alpha and ``alpha_within``.

    A node first takes, while one is left, the candidate with at most one
    candidate neighbour (least degree, lowest id) and drops that neighbour:
    some largest set holds such a vertex.  It is cut when its size plus its
    candidates, less ``_side_loss`` with one side, cannot beat the best so
    far.  Otherwise it branches on v, the candidate of least degree with the
    lowest id.  Every largest set holds a vertex of N[v], so one branch per
    vertex of N[v] covers them all: each neighbour u of v, by id, adds u and
    drops the neighbours branched on before it, and v's own branch comes
    last, which leaves b a larger seed more often than taking v first.  The
    parent skips a child that cannot beat the best by its count alone, and
    v's branch runs in the node's own loop.  A leaf is reached only when it
    beats the best, and the cuts change neither the order in which the best
    improves nor the witness, the first largest set the search reaches.
    ``grow`` deletes its own cell once the root returns.
    """
    g.check_subset(allowed)
    adj = g.adj
    best, best_mask = 0, 0

    def grow(chosen: int, count: int, cand: int) -> None:
        nonlocal best, best_mask
        while True:  # one node a pass: v's branch, the last, runs in place
            size = cand.bit_count()
            if count + size <= best:
                return
            # a free vertex stays free and changes no candidate degree, so
            # the pass takes the free vertices up to the lowest vertex of
            # degree one and stops there, or scans all and finds v
            free = one = 0
            v, least = -1, maxsize
            rest = cand
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                d = (adj[u] & cand).bit_count()
                if d > 1:
                    if d < least:
                        v, least = u, d
                elif not d:
                    free |= low
                else:
                    one = low
                    break
            if free:
                chosen |= free
                cand ^= free
                taken = free.bit_count()
                count += taken
                size -= taken
            if one:
                chosen |= one
                count += 1
                cand &= ~(adj[one.bit_length() - 1] | one)
                continue
            if v < 0:
                best, best_mask = count, chosen
                return
            # the loss is at most size // 2, so it cuts only a gap of at most
            # that, and its count stops once it closes the gap
            gap = count + size - best
            if 2 * gap <= size and _side_loss(adj, cand, 0, gap) >= gap:
                return
            count += 1
            rest = adj[v] & cand
            while rest:
                low = rest & -rest
                rest ^= low
                cand ^= low  # later branches drop this neighbour
                child = cand & ~adj[low.bit_length() - 1]
                if count + child.bit_count() > best:
                    grow(chosen | low, count, child)
            low = 1 << v
            chosen |= low
            cand ^= low

    grow(0, 0, allowed)
    del grow
    return best, best_mask


def alpha_within(g: Graph, allowed: int) -> tuple[int, int]:
    """Largest independent subset of ``allowed``: (size, witness mask), from
    one ``_max_independent`` search over the whole mask.

    Independence inside ``allowed`` equals independence in the induced
    subgraph, so this doubles as alpha of G[allowed].
    """
    return _max_independent(g, allowed)


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


@_per_graph
def alpha(g: Graph) -> tuple[int, int]:
    """Independence number with a maximum independent set witness."""
    return _by_component(g, lambda part: _max_independent(g, part))


def _greedy_independent(adj: tuple[int, ...], allowed: int) -> int:
    """An independent subset of ``allowed``, each pick a vertex of least
    degree among those left, lowest id on ties, its neighbours then dropped."""
    chosen = 0
    rest = allowed
    while rest:
        pick, least = 0, maxsize
        scan = rest
        while scan:
            low = scan & -scan
            scan ^= low
            d = (adj[low.bit_length() - 1] & rest).bit_count()
            if d < least:
                pick, least = low, d
        chosen |= pick
        rest &= ~(adj[pick.bit_length() - 1] | pick)
    return chosen


@_per_graph
def max_induced_bipartite(g: Graph) -> tuple[int, int]:
    """Largest vertex set inducing an odd-cycle-free subgraph: (b(G), witness).

    Each side is independent, so alpha caps it: a component's cap is the
    part of alpha's witness, the first largest set ``_max_independent``
    reaches, inside it, held when alpha was asked first.  That part and a
    greedy independent set of the component's other vertices are two
    disjoint independent sets, so together they induce a bipartite graph:
    the seed split, which the component's ``_max_sides`` search only has to
    beat.  The witness is the seed, or the first leaf the search reaches
    that beats it.
    """
    independent = alpha(g)[1]

    def solve(part: int) -> tuple[int, int]:
        inside = independent & part
        seed = inside | _greedy_independent(g.adj, part & ~inside)
        return _max_sides(g, part, inside.bit_count(), seed)

    return _by_component(g, solve)


# -- domination --------------------------------------------------------------

def _greedy_cover(covers: tuple[int, ...], allowed: int, target: int) -> int | None:
    """Greedy max-coverage solution mask, or None if allowed cannot cover.

    Each pick is the candidate covering the most of what is left, the lowest
    id on ties.  A picked candidate covers nothing left, so it stays listed.
    """
    cands = []
    rest = allowed
    while rest:
        low = rest & -rest
        rest ^= low
        cands.append((low, covers[low.bit_length() - 1]))
    chosen = 0
    undom = target
    while undom:
        pick = gain = 0
        for bit, cover in cands:
            c = (cover & undom).bit_count()
            if c > gain:
                pick, gain, picked = bit, c, cover
        if not pick:
            return None
        chosen |= pick
        undom &= ~picked
    return chosen


def _cover_search(
    covers: tuple[int, ...],
    allowed: int,
    target: int,
    limit: int,
    found: Callable[[int, int], int],
) -> None:
    """Call ``found(S, |S|)`` on covers S <= allowed of target with |S| < limit.

    ``found`` returns the new limit, at most the old one.  Each cover is
    reached at most once, and every inclusion-minimal one below the limit of
    the moment is reached.  ``covers`` must be symmetric (u in covers[v] iff
    v in covers[u]), as closed neighborhoods are.

    One call of ``search`` is one node: it has vertices left to dominate and
    at least one pick to spend, and it reports the children that are covers
    itself.  With one pick left it scans for the candidates that dominate
    the rest; with more it branches (see the module docstring).  ``search``
    deletes its own cell once the root returns.
    """

    def search(chosen: int, count: int, undom: int, avail: int) -> None:
        nonlocal limit
        slack = limit - count - 1  # picks we may still spend, at least one
        if slack == 1:
            # the candidates that cover all of undom, by id; each lies in the
            # covers of undom's lowest vertex
            low = undom & -undom
            rest = avail & covers[low.bit_length() - 1]
            count += 1
            while rest and count < limit:
                low = rest & -rest
                rest ^= low
                if not undom & ~covers[low.bit_length() - 1]:
                    limit = found(chosen | low, count)
            return
        # the slack picks left cover all of undom only if one of them covers
        # need; the first such candidate ends the pass, and none cuts the node
        need = -(-undom.bit_count() // slack)
        rest = avail
        while rest:
            low = rest & -rest
            rest ^= low
            if (covers[low.bit_length() - 1] & undom).bit_count() >= need:
                break
        else:
            return
        # branch on the hardest uncovered vertex: fewest candidates, lowest id
        u_opts, u_cands = 1 << 30, 0
        rest = undom
        while rest:
            low = rest & -rest
            rest ^= low
            opts = covers[low.bit_length() - 1] & avail
            if not opts:
                return  # nothing left can cover it
            k = opts.bit_count()
            if k < u_opts:
                u_opts, u_cands = k, opts
        # most-covering candidate (fewest left uncovered) first, lowest id on ties
        cands = []
        rest = u_cands
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            left = undom & ~covers[v]
            cands.append((left.bit_count(), v, left))
        cands.sort()
        count += 1
        remaining = avail  # later branches exclude earlier siblings
        for _, v, left in cands:
            bit = 1 << v
            remaining &= ~bit
            if not left:
                if count < limit:  # a sibling's subtree may have lowered the limit
                    limit = found(chosen | bit, count)
            elif count + 1 < limit:
                search(chosen | bit, count, left, remaining)

    if not target:
        if limit > 0:
            found(0, 0)
    elif limit > 1:
        search(0, 0, target, allowed)
    del search


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


@_per_graph
def _domination_covers(g: Graph) -> tuple[int, ...]:
    return tuple(g.adj[v] | (1 << v) for v in range(g.n))


def _gamma_part(covers: tuple[int, ...], part: int) -> tuple[int, int]:
    """Domination number of G[part] with its witness."""
    result = _min_cover(covers, part, part)
    assert result is not None  # part always dominates itself
    return result


@_per_graph
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


@_per_graph
def _min_covers(g: Graph, part: int) -> tuple[int, ...]:
    """All dominating sets of G[part] of size gamma(G[part]), in increasing
    bitmask order: the one enumeration of a component that the inverse pass
    and ``optimal_dominating_set`` share."""
    out: list[int] = []

    def collect(chosen: int, count: int) -> int:
        if out and count < out[0].bit_count():
            out.clear()
        out.append(chosen)
        return count + 1

    # A smaller cover drops the larger ones collected.  The limit never drops
    # below gamma + 1, and the search reaches every inclusion-minimal cover
    # below its limit, so every gamma-set is found.
    _cover_search(_domination_covers(g), part, part, part.bit_count() + 1, collect)
    return tuple(sorted(out))


def enumerate_min_dominating_sets(g: Graph) -> list[int]:
    """All dominating sets of size gamma(g), in increasing bitmask order."""
    return list(_min_covers(g, g.full))


# -- inverse domination -------------------------------------------------------

def _inverse_part(g: Graph, part: int) -> tuple[int, int, int, int]:
    """The inverse pass on an isolate-free G[part]: (gamma^-1, T, D, strong
    gamma^-1), with (D, T) the certificate."""
    covers = _domination_covers(g)
    sets = _min_covers(g, part)
    gamma = sets[0].bit_count()
    best = (part.bit_count() + 1, 0, 0)  # (size, t_mask, d_mask); every real size is <= |part|
    worst = 0
    size = t_mask = 0  # least cover of part - D found so far for the current D
    floor = 0  # no cover of part - D is smaller
    found: list[tuple[int, int]] = []  # (size, mask) of every cover of part met so far

    def threshold(chosen: int, count: int) -> int:
        nonlocal size, t_mask
        size, t_mask = count, chosen
        found.append((count, chosen))
        limit = count if count > worst else min(count, best[0])
        return limit if limit > floor else 0

    for d in sets:
        partnered = not all(map(d.__and__, sets))  # some gamma-set is disjoint from d
        floor = gamma if partnered else gamma + 1
        if floor >= best[0] and (
            partnered or any(count <= worst and not d & cover for count, cover in found)
        ):
            # D cannot lower the least size, and a disjoint gamma-set (then
            # gamma is the least size) or kept cover caps D at the largest
            continue
        allowed = part & ~d
        greedy = _greedy_cover(covers, allowed, part)
        assert greedy is not None  # Ore: part - D dominates for isolate-free G[part]
        limit = threshold(greedy, greedy.bit_count())
        if limit:
            _cover_search(covers, allowed, part, limit, threshold)
        if size < best[0]:
            best = (size, t_mask, d)
        worst = max(worst, size)
    size, t_mask, d_mask = best
    return size, t_mask, d_mask, worst


def inverse_pass(g: Graph) -> tuple[int, int, int, int]:
    """(gamma^-1, T, D, strong gamma^-1) from one pass, with (D, T) the
    masks that certify gamma^-1.

    For each minimum dominating set D, the smallest dominating set disjoint
    from D; gamma^-1 is the least of these sizes, certified by the first D
    in bitmask order that reaches it and its least disjoint cover T, and
    strong gamma^-1 the largest.  Defined only for isolate-free graphs.
    Each component runs its own pass: both values add over components, and
    D and T are the unions of the parts' sets.  No certificate object is
    built here; ``inverse_gamma`` builds the "exact" one.

    Each D's search stops once it can move neither value.  It starts from
    the greedy cover of V - D.  After a cover of size c the limit is c while
    c exceeds the largest size so far, since D may still raise strong
    gamma^-1; otherwise it is min(c, least size so far), so the search only
    looks for a cover that would lower gamma^-1.  No cover of V - D is
    smaller than D's floor: gamma if some gamma-set is disjoint from D, and
    gamma + 1 if none is, since every dominating set of size gamma is a
    gamma-set.  So a limit of at most the floor ends the search, or skips
    it when the greedy cover already sets one.  A D is skipped outright
    when its floor is at least the least size so far, so it cannot lower
    gamma^-1, and some gamma-set or cover met earlier in the pass (greedy
    or searched) is disjoint from D with size at most the largest so far,
    so it cannot raise strong gamma^-1.  A D that moves either value still
    gets its exact size, and the limit stays above that size until the
    search reaches its first least cover, so the certificate is the one an
    unlimited search would give.
    """
    if g.has_isolated_vertex():
        raise HasIsolates("a graph with isolates cannot have an inverse dominating set")
    return _by_component(g, lambda part: _inverse_part(g, part))


def inverse_gamma(g: Graph) -> tuple[int, InverseCertificate]:
    """Smallest inverse dominating set size, with a realizing (D, T) pair.

    ``inverse_pass`` serves every caller in ``invdom``; this wrapper stays
    because ``perfbench/tracing.py::TRACED`` names it, so deleting it is a
    benchmark change.
    """
    size, t_mask, d_mask, _ = inverse_pass(g)
    return size, InverseCertificate(d_mask, t_mask, "exact", size)


def strong_inverse_gamma(g: Graph) -> int:
    """Largest, over minimum dominating sets D, of the best disjoint size.

    Kept, like ``inverse_gamma``, because ``perfbench/tracing.py::TRACED``
    names it.
    """
    return inverse_pass(g)[3]


# -- optimal dominating sets ----------------------------------------------------

def _optimal_part(g: Graph, part: int) -> tuple[int, int, int]:
    """Least key (-alpha(G[D]), induced edges of D, D) over the minimum
    dominating sets D of G[part].

    A greedy matching of m edges inside D (``_side_loss`` with one side
    only) gives alpha(G[D]) <= |D| - m, so (m - |D|, edges, D) is at most
    D's key.  alpha(G[D]) is solved only when that lower key is below the
    least key so far; every D skipped has a key above it, so the least key
    is the one over all D.
    """
    best = (1, 0, 0)  # above every key, since -alpha(G[D]) <= 0
    for d in _min_covers(g, part):
        matched = _side_loss(g.adj, d, 0)
        edges = g.induced_edge_count(d)
        if (matched - d.bit_count(), edges, d) < best:
            best = min(best, (-alpha_within(g, d)[0], edges, d))
    return best


@_per_graph
def optimal_dominating_set(g: Graph) -> DominationCertificate:
    """Minimum dominating set maximizing induced independence, then fewest
    induced edges, then smallest bitmask.

    Each term of the key adds over components, so each component picks its
    own least key and the set is the union of the parts' picks.
    """
    neg_alpha, edges, d = _by_component(g, lambda part: _optimal_part(g, part))
    return DominationCertificate(d_set=d, alpha_of_d=-neg_alpha, induced_edges=edges)
