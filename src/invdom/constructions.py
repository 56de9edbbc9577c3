"""Constructive machinery: standard partitions, ISR search, and the
certificate-producing inverse-domination constructions.

Each construction mirrors its existence proof step by step and re-checks
every claim the proof asserts; a failed check raises InternalContradiction
rather than emitting a bad certificate.  "Pick an arbitrary neighbor"
always means the lowest vertex id, so certificates are reproducible.

Every vertex set is a plain int mask, partial ISRs included.  The cells of
a standard partition are disjoint, so the cell a member represents follows
from the member itself, and a partial ISR needs no index bookkeeping.
Only ``isr_cells`` builds (V-D)-N(F) over D-F; ISR searches take cells.
One transversal search, the generator ``_transversals(adj, cells,
skips)``, serves ``find_isr``, ``max_partial_isr``, ``two_partial_isrs``,
``superisrs`` and the gamma = 5 pair loop.

The constructions reach the exact solvers in two places only: the gate
``_require_minimum_dominating`` decides that D is a gamma-set, because
every proof starts from a minimum dominating set, and ``_certify`` solves
the one bound a certificate is stated against (alpha, alpha +
floor((gamma-1)/2), or b), because a certificate names a number the
construction itself never derives.  The gate checks |D| against gamma:
``theorem_main_construct`` takes gamma from a caller that has already
solved it, as ``analyze_graph`` has, and ``gamma5_construct`` hands gamma =
|D| to ``inddom_construct``, since its D comes from a complete enumeration;
every other gate asks ``solvers.gamma``.  Three more functions call solvers,
for inputs to the proof rather than bounds: ``biglemma_trichotomy`` and
``superisrs`` ask alpha(G[D]) of ``solvers.alpha_within``, and
``gamma5_construct`` asks ``solvers.optimal_dominating_set`` for its D.
The trichotomy layer takes D as a mask and derives |D| and the isolates of
G[D] from it, so a caller cannot hand it a wrong statistic.  The solvers
hold their results for the most recent graph, so gamma, alpha, b and the
optimal gamma-set, asked again by a later construction on the same graph or
by a caller before it, are not solved again.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from . import solvers
from .certificates import InverseCertificate, check_inverse_certificate
from .errors import HasIsolates, InternalContradiction, LemmaViolated, PreconditionViolated
from .graph import Graph, bits, mask_of, to_sorted


# -- validators (used by tests and by the constructions themselves) ------------

def validate_partial_isr(g: Graph, cells: Sequence[int], isr: int) -> list[str]:
    """Problems with ``isr`` as a partial ISR of the disjoint ``cells``."""
    problems = []
    if not g.is_independent(isr):
        problems.append("members are not independent")
    covered = 0
    for i, cell in enumerate(cells):
        hits = (isr & cell).bit_count()
        if hits > 1:
            problems.append(f"cell {i} has {hits} members")
        covered |= cell
    if isr & ~covered:
        problems.append(f"vertices {to_sorted(isr & ~covered)} lie in no cell")
    return problems


def validate_isr_pair(g: Graph, cells: Sequence[int], pair: tuple[int, int]) -> list[str]:
    """Problems with ``pair`` as two partial ISRs that split the cells between them."""
    r1, r2 = pair
    problems = validate_partial_isr(g, cells, r1) + validate_partial_isr(g, cells, r2)
    for i, cell in enumerate(cells):
        if r1 & cell and r2 & cell:
            problems.append(f"cell {i} represented by both sides")
        elif not (r1 | r2) & cell:
            problems.append(f"cell {i} represented by neither side")
    return problems


# -- standard partitions and ISR search ----------------------------------------

def standard_partition(g: Graph, x_ordered: Sequence[int], y: int) -> tuple[int, ...]:
    """Cells V_i = N_y(x_ordered[i]) minus all earlier cells: the greedy
    partition of y in the given order of x.

    Requires x and y disjoint and every y-vertex to have an x-neighbor.
    """
    x_mask = mask_of(x_ordered)
    g.check_subset(x_mask | y)
    if len(x_ordered) != x_mask.bit_count():
        raise ValueError("ordering repeats a vertex")
    if x_mask & y:
        raise ValueError("x and y intersect")
    if y & ~g.open_neighborhood(x_mask):
        missing = y & ~g.open_neighborhood(x_mask)
        raise ValueError(f"universe vertices {list(bits(missing))} have no neighbor in x")
    cells = []
    taken = 0
    for d in x_ordered:
        cell = g.adj[d] & y & ~taken
        cells.append(cell)
        taken |= cell
    return tuple(cells)


def isr_cells(g: Graph, d_set: int, f_set: int, ordering: Sequence[int]) -> tuple[int, ...]:
    """The standard partition of (V-D)-N(F) over ``ordering``, an ordering of
    D-F: the cells the main and bipartite proofs draw partial ISRs from."""
    return standard_partition(g, ordering, g.full & ~d_set & ~g.open_neighborhood(f_set))


def _transversals(
    adj: Sequence[int], cells: Sequence[int], skips: int = 0, i: int = 0, isr: int = 0
) -> Iterator[int]:
    """The partial ISRs of the disjoint cells that skip at most ``skips`` of
    them (full ISRs by default), as masks, in lexicographic order of their
    representatives of cells[0], cells[1], ..., a skipped cell ranking after
    every vertex: a cell is skipped only after each of its vertices has been
    tried, and only while a skip is left.  ``i`` and ``isr``, which callers
    leave out, are the recursion's cell and the members chosen before it;
    the generator is module-level, as callers may abandon it.
    """
    if i == len(cells):
        yield isr
        return
    for v in bits(cells[i]):
        if not adj[v] & isr:
            yield from _transversals(adj, cells, skips, i + 1, isr | 1 << v)
    if skips:
        yield from _transversals(adj, cells, skips - 1, i + 1, isr)


def find_isr(g: Graph, cells: Sequence[int]) -> int | None:
    """The lexicographically first full independent transversal, or None."""
    return next(_transversals(g.adj, cells), None)


def max_partial_isr(g: Graph, cells: Sequence[int]) -> int:
    """The first partial ISR, in ``_transversals``' order, hitting the most
    cells: the first yielded for the fewest ``skips`` that yields one."""
    return next(s for skips in range(len(cells) + 1) for s in _transversals(g.adj, cells, skips))


def two_partial_isrs(g: Graph, cells: Sequence[int]) -> tuple[int, int]:
    """Split ``cells`` between two partial ISRs that together represent each
    cell once.

    For ``isr_cells`` of a minimum dominating set D and a maximal
    independent F inside it the split exists, so an exhausted search
    signals violated preconditions or a bug.
    """
    n = len(cells)

    for i1_mask in range(1 << n):
        r1 = find_isr(g, [cells[i] for i in range(n) if i1_mask >> i & 1])
        if r1 is None:
            continue
        r2 = find_isr(g, [cells[i] for i in range(n) if not i1_mask >> i & 1])
        if r2 is None:
            continue
        problems = validate_isr_pair(g, cells, (r1, r2))
        if problems:
            raise InternalContradiction(
                "ISR pair failed validation", {"problems": problems}
            )
        return r1, r2
    raise InternalContradiction(
        "no ISR bipartition exists; d_set is likely not minimum or f_set not maximal",
        {"cells": list(cells)},
    )


def expand_to_maximal_independent(g: Graph, seed: int, universe: int) -> int:
    """Greedy (by vertex id) maximal independent superset of seed in universe."""
    g.check_subset(universe)
    if seed & ~universe:
        raise ValueError("seed not contained in universe")
    if not g.is_independent(seed):
        raise ValueError(f"seed {list(bits(seed))} spans an edge")
    adj = g.adj
    out = seed
    rest = universe & ~seed
    while rest:
        low = rest & -rest
        rest ^= low
        if not adj[low.bit_length() - 1] & out:
            out |= low
    return out


# -- certificate constructions ---------------------------------------------------

def _certify(g: Graph, d_set: int, t: int, kind: str, where: str) -> InverseCertificate:
    """The certificate (d_set, t) against the bound ``kind`` names, re-checked.

    The only place a construction asks for a bound, and each call asks for
    one: alpha for "alpha", alpha + floor((|D|-1)/2) for "main_theorem" (|D|
    is gamma once the gate has passed), b for "bipartite_b".  Each call
    solves one, unless the solvers already hold it for g, as they hold
    ``verify``'s alpha when its main construction asks.  Callers read the
    bound from the returned ``bound_value`` instead of asking again.  A
    certificate that fails ``check_inverse_certificate`` raises
    InternalContradiction rather than leaving the construction.
    """
    if kind == "bipartite_b":
        bound = solvers.max_induced_bipartite(g)[0]
    else:
        bound = solvers.alpha(g)[0]
        if kind == "main_theorem":
            bound += (d_set.bit_count() - 1) // 2
    cert = InverseCertificate(d_set, t, kind, bound)
    problems = check_inverse_certificate(g, cert)
    if problems:
        raise InternalContradiction(
            f"{where} produced an invalid certificate", {"problems": problems, "cert": cert}
        )
    return cert


def _patch(g: Graph, t: int, vertices: int, d_set: int, where: str) -> int:
    """t plus the lowest neighbor outside d_set of each vertex in ``vertices``."""
    while vertices:
        low = vertices & -vertices
        vertices ^= low
        v = low.bit_length() - 1
        outside = g.adj[v] & ~d_set
        if not outside:
            raise InternalContradiction(
                f"{where}: vertex {v} of the dominating set has no outside neighbor "
                "(d_set cannot be a minimum dominating set of an isolate-free graph)",
                {"vertex": v, "d_set": d_set},
            )
        t |= outside & -outside
    return t


def _grow_bipartite(g: Graph, seed: int, universe: int) -> int | None:
    """Greedy (by vertex id) maximal B with seed <= B <= seed | universe
    inducing a bipartite graph, or None if G[seed] is not bipartite.

    The seed joins first, then the rest of the universe, one vertex at a
    time.  B keeps its components and one side of a 2-colouring of each.
    A vertex can join iff, in each component it touches, its neighbours lie
    on one side, which is iff G[B + v] is bipartite: it goes opposite its
    neighbours, after the components whose neighbours of v lie on the other
    side swap sides, and the components it touches merge.
    """
    adj = g.adj
    b = side = 0  # side: one colour class of G[B]
    parts: list[int] = []  # the components of G[B]

    def join(low: int) -> bool:
        nonlocal b, side, parts
        nbrs = adj[low.bit_length() - 1] & b
        merged, flip, kept = low, 0, []
        for part in parts:
            hit = nbrs & part
            if not hit:
                kept.append(part)
                continue
            if hit & ~side:
                if hit & side:
                    return False
                flip |= part
            merged |= part
        kept.append(merged)
        parts = kept
        side ^= flip
        b |= low
        return True

    rest = seed
    while rest:
        low = rest & -rest
        rest ^= low
        if not join(low):
            return None
    rest = universe & ~seed
    while rest:
        low = rest & -rest
        rest ^= low
        join(low)
    return b


def _maximal_f_and_cells(g: Graph, d_set: int) -> tuple[int, tuple[int, ...]]:
    """Greedy maximal independent F inside D, and ``isr_cells`` over sorted D-F."""
    f_set = expand_to_maximal_independent(g, 0, d_set)
    return f_set, isr_cells(g, d_set, f_set, sorted(bits(d_set & ~f_set)))


def _require_isolate_free(g: Graph, where: str) -> None:
    if g.has_isolated_vertex():
        raise HasIsolates(f"{where} needs an isolate-free graph")


def _require_minimum_dominating(
    g: Graph, d_set: int, where: str, gamma: int | None = None
) -> None:
    """Every construction's gate: g nonempty and isolate-free, d_set a
    gamma-set.

    |d_set| is checked against gamma(G): the given ``gamma``, or else
    ``solvers.gamma``'s, which is solved only if no earlier call on g did.
    """
    if g.n == 0:
        raise PreconditionViolated(f"{where}: empty graph")
    _require_isolate_free(g, where)
    g.check_subset(d_set)
    if not g.is_dominating(d_set):
        raise PreconditionViolated(f"{where}: d_set does not dominate")
    if gamma is None:
        gamma = solvers.gamma(g)[0]
    if d_set.bit_count() != gamma:
        raise PreconditionViolated(
            f"{where}: |d_set| = {d_set.bit_count()} but gamma = {gamma}"
        )


def inddom_construct(
    g: Graph, d_set: int, s: int, *, gamma: int | None = None
) -> InverseCertificate:
    """Inverse dominating set of size <= alpha(G) from a special independent set.

    Requires S independent with S-D dominating D-S.  Expands S-D to a
    maximal independent set of G-D, then patches the still-undominated part
    of D with one outside neighbor each.

    ``gamma``, when given, must be gamma(g): the gate checks |d_set| against
    it instead of asking the solvers.  ``gamma5_construct`` passes |D|, as
    its D is a gamma-set by a complete enumeration.
    """
    _require_minimum_dominating(g, d_set, "inddom_construct", gamma)
    g.check_subset(s)
    if not g.is_independent(s):
        raise PreconditionViolated("s is not independent")
    s_out = s & ~d_set
    if d_set & ~s & ~g.open_neighborhood(s_out):
        raise PreconditionViolated("s - D does not dominate D - s")

    s1 = expand_to_maximal_independent(g, s_out, g.full & ~d_set)
    undominated = d_set & ~g.open_neighborhood(s1)
    t = _patch(g, s1, undominated, d_set, "inddom_construct")
    return _certify(g, d_set, t, "alpha", "inddom_construct")


def theorem_main_construct(g: Graph, d_set: int, *, gamma: int | None = None) -> InverseCertificate:
    """Disjoint dominating set within alpha(G) + floor((gamma(G)-1)/2).

    Follows the partial-ISR proof: maximal independent F inside D, standard
    partition of (V-D)-N(F) over D-F, a largest partial ISR expanded to a
    maximal independent set of G-D, then two patching rounds with outside
    neighbors (for F-N(S), then for the unhit part of D-F).

    ``gamma``, when given, must be gamma(g): the gate checks |d_set| against
    it instead of asking the solvers.  ``analyze_graph`` passes its own.
    """
    _require_minimum_dominating(g, d_set, "theorem_main_construct", gamma)

    f_set, cells = _maximal_f_and_cells(g, d_set)
    isr = max_partial_isr(g, cells)
    if 2 * isr.bit_count() < len(cells):
        raise InternalContradiction(
            "largest partial ISR smaller than half the family",
            {"cells": list(cells), "isr": isr},
        )
    s = expand_to_maximal_independent(g, isr, g.full & ~d_set)

    f_prime = f_set & ~g.open_neighborhood(s)
    s1 = _patch(g, s, f_prime, d_set, "theorem_main_construct")
    unhit = d_set & ~f_set & ~g.open_neighborhood(s1)
    if 2 * unhit.bit_count() > len(cells):
        raise InternalContradiction(
            "more than half of D-F left undominated after expansion",
            {"unhit": unhit, "isr": isr},
        )
    t = _patch(g, s1, unhit, d_set, "theorem_main_construct")
    return _certify(g, d_set, t, "main_theorem", "theorem_main_construct")


def bipartite_inverse_construct(g: Graph, d_set: int) -> InverseCertificate:
    """Disjoint dominating set within b(G), the largest induced-bipartite order.

    The union of the two partial ISRs induces a bipartite subgraph; expand it
    to a maximal bipartite-inducing set B in G-D and patch F-N(B) with
    outside neighbors.  ``_grow_bipartite`` grows B one vertex at a time on
    a kept 2-colouring of its components, in place of a whole-set
    bipartiteness test per vertex, and accepts the same vertices.
    """
    _require_minimum_dominating(g, d_set, "bipartite_inverse_construct")

    f_set, cells = _maximal_f_and_cells(g, d_set)
    r1, r2 = two_partial_isrs(g, cells)

    b_mask = _grow_bipartite(g, r1 | r2, g.full & ~d_set)
    if b_mask is None:
        raise InternalContradiction("ISR union is not bipartite", {"b": r1 | r2})

    f0 = f_set & ~g.open_neighborhood(b_mask)
    if not g.is_bipartite_subset(b_mask | f0):
        raise InternalContradiction(
            "B plus the unreached part of F stopped being bipartite",
            {"b": b_mask, "f0": f0},
        )
    t = _patch(g, b_mask, f0, d_set, "bipartite_inverse_construct")
    return _certify(g, d_set, t, "bipartite_b", "bipartite_inverse_construct")


# -- the trichotomy and its special independent sets -----------------------------

def find_special_independent(g: Graph, d_set: int) -> int | None:
    """Independent S with S-D dominating D-S, or None (exhaustive search).

    Reduction: such an S exists iff some independent S0 <= V-D leaves
    D - N(S0) independent, in which case S0 | (D - N(S0)) works.  The search
    walks independent subsets of V-D (excluding first, so an independent D
    returns S = D immediately) and prunes branches whose remaining
    candidates cannot neutralize every edge inside G[D].  ``rec`` deletes
    its own cell once the root returns.
    """
    g.check_subset(d_set)

    def rec(s0: int, cand: int) -> int | None:
        uncovered = d_set & ~g.open_neighborhood(s0)
        if g.is_independent(uncovered):
            return s0 | uncovered
        if not cand or not g.is_independent(uncovered & ~g.open_neighborhood(cand)):
            return None
        v = cand & -cand
        found = rec(s0, cand ^ v)  # exclude lowest candidate first
        if found is not None:
            return found
        return rec(s0 | v, cand & ~(g.adj[v.bit_length() - 1] | v))

    found = rec(0, g.full & ~d_set)
    del rec
    return found


def lemma41_check(g: Graph, d: int) -> list[tuple[int, int]]:
    """Private-neighbor audit: every member of D that is non-isolated inside
    G[D] must have at least two private neighbors.

    Returns the violations as (vertex, private_count) pairs; empty means ok.
    Violations are possible when D is not an optimal gamma-set.
    """
    isolates = g.induced_isolates(d)
    out = []
    for v in bits(d & ~isolates):
        count = g.private_neighbors(d, v).bit_count()
        if count < 2:
            out.append((v, count))
    return out


def biglemma_trichotomy(g: Graph, d: int) -> int | None:
    """A special independent set for D, or None when D has none and three
    structural inequalities all hold, with a the isolates of G[D]:
    a+1 <= alpha(G[D]) <= |D|-3, |V|+a >= 3|D| and |D| >= a+5.  Anything
    else raises ``LemmaViolated``, a reportable counterexample, whose
    context holds |D|, a, alpha(G[D]) and each inequality's truth value.

    The either/or guarantee holds when D is a *minimum* dominating set.  For
    any other dominating set all three outcomes can occur, and
    ``LemmaViolated`` is then no counterexample: K4 with two pendant leaves
    per vertex and all leaves joined into one clique, with D = K4, has no
    special set and fails |D| >= a + 5.
    """
    _require_isolate_free(g, "biglemma_trichotomy")
    s = find_special_independent(g, d)
    if s is not None:
        return s
    size = d.bit_count()
    a = g.induced_isolates(d).bit_count()
    alpha_d = solvers.alpha_within(g, d)[0]
    inequalities = {
        "a+1 <= alpha(D) <= |D|-3": a + 1 <= alpha_d <= size - 3,
        "|V|+a >= 3|D|": g.n + a >= 3 * size,
        "|D| >= a+5": size >= a + 5,
    }
    if not all(inequalities.values()):
        raise LemmaViolated(
            "no special independent set and the structural inequalities fail",
            {"d_set": d, "|D|": size, "a": a, "alpha(D)": alpha_d, **inequalities},
        )
    return None


# -- the gamma = 5 pipeline -------------------------------------------------------

def superisrs(g: Graph, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ordering (d1..d5) of an optimal D whose cells 1-3 and 4-5 have ISRs,
    with the cells: the standard partition of V - D over the ordering.

    Applies when |D| = 5, alpha(G[D]) is at most 2, and G[D] has no
    isolated vertices; alpha(G[D]) is solved here, on D's five vertices.
    The search follows the proof's choice rules: d1,d2 nonadjacent when
    possible, r3 a vertex undominated by {d1,d2,r1,r2}, d3 one of its
    D-neighbors.  The rules alone make {r1, r2, r3} an ISR of cells 1-3, so
    only cells 4-5 are searched.
    """
    _require_isolate_free(g, "superisrs")
    if d.bit_count() != 5:
        raise PreconditionViolated(f"|D| = {d.bit_count()}, need exactly 5")
    alpha_d = solvers.alpha_within(g, d)[0]
    if alpha_d > 2:
        raise PreconditionViolated(f"alpha(D) = {alpha_d} > 2")
    if g.induced_isolates(d):
        raise PreconditionViolated("G[D] has isolated vertices")

    members = sorted(bits(d))
    pairs = [
        (d1, d2)
        for d1 in members
        for d2 in members
        if d1 != d2 and not g.adj[d1] >> d2 & 1
    ]
    if not pairs:  # D is a clique; any ordered pair obeys the choice rule
        pairs = [(d1, d2) for d1 in members for d2 in members if d1 != d2]

    outside = g.full & ~d
    for d1, d2 in pairs:
        v1 = g.adj[d1] & outside
        for r12 in _transversals(g.adj, (v1, g.adj[d2] & outside & ~v1)):
            blocked = g.closed_neighborhood(r12 | mask_of((d1, d2)))
            for r3 in bits(g.full & ~blocked):
                if d >> r3 & 1:
                    continue
                d3_opts = g.adj[r3] & d & ~mask_of((d1, d2))
                if not d3_opts:
                    continue
                d3 = (d3_opts & -d3_opts).bit_length() - 1
                d4, d5 = sorted(bits(d & ~mask_of((d1, d2, d3))))
                ordering = (d1, d2, d3, d4, d5)
                cells = standard_partition(g, ordering, outside)
                if find_isr(g, cells[3:]) is not None:
                    return ordering, cells
    raise InternalContradiction(
        "no ordering admits the two ISRs; D is likely not an optimal gamma-set",
        {"d_set": d},
    )


def gamma5_construct(g: Graph) -> InverseCertificate:
    """Inverse dominating set within alpha(G) for graphs with gamma = 5.

    Cascade over an optimal dominating set D.  The first branch is the
    trichotomy: if D has induced independence at least 3 or an isolated
    vertex, ``biglemma_trichotomy`` returns a special independent set, or
    raises ``LemmaViolated``, and the alpha-bounded construction finishes.
    Otherwise run the two-ISR machinery: a partial ISR of size 4 is an
    immediate win; failing that, pick the ISR pair minimizing cross edges
    and analyse the set the pair misses.  Every claim is re-checked; a dead
    end raises.  Each route solves alpha once, in ``_certify``, and none if
    the solvers already hold it for g; the optimal gamma-set, too, is solved
    only if not held.
    """
    _require_isolate_free(g, "gamma5_construct")
    optimal = solvers.optimal_dominating_set(g)
    d = optimal.d_set
    if d.bit_count() != 5:
        raise PreconditionViolated(f"gamma = {d.bit_count()}, need exactly 5")

    if optimal.alpha_of_d >= 3 or g.induced_isolates(d):
        # |D| = 5 leaves the trichotomy's structural outcome only alpha(G[D])
        # <= 2 with no isolate, so here it returns the special set or raises
        return inddom_construct(g, d, biglemma_trichotomy(g, d), gamma=5)

    _, cells = superisrs(g, d)

    # cheap shortcut: a partial ISR hitting 4 cells yields a special set
    s = max_partial_isr(g, cells)
    if s.bit_count() >= 4:
        missing = d & ~g.open_neighborhood(s)
        if missing.bit_count() > 1:
            raise InternalContradiction(
                "size-4 partial ISR left more than one D-vertex undominated",
                {"isr": s, "missing": missing},
            )
        return inddom_construct(g, d, s | missing, gamma=5)

    # choose the (R1, R2) pair minimizing edges between the two sides
    best_pair: tuple[int, int] | None = None
    best_edges = -1
    for m1 in _transversals(g.adj, cells[:3]):
        for m2 in _transversals(g.adj, cells[3:]):
            cross = sum((g.adj[v] & m1).bit_count() for v in bits(m2))
            if best_pair is None or cross < best_edges:
                best_pair, best_edges = (m1, m2), cross
                if cross == 0:
                    break
        if best_edges == 0:
            break
    if best_pair is None:
        raise InternalContradiction(
            "superisrs succeeded but the pair enumeration found nothing",
            {"cells": list(cells)},
        )
    m1, m2 = best_pair

    undominated = g.full & ~g.closed_neighborhood(m1 | m2)
    if not undominated:
        return _certify(g, d, m1 | m2, "alpha", "gamma5_construct")

    if undominated & d:
        raise InternalContradiction(
            "the ISR pair misses part of D", {"undominated": undominated}
        )
    hit_cells = [i for i in range(5) if undominated & cells[i]]
    if len(hit_cells) != 1 or hit_cells[0] > 2:
        raise InternalContradiction(
            "undominated set spreads over several cells",
            {"undominated": undominated, "cells": hit_cells},
        )
    k = hit_cells[0]
    r_k = m1 & cells[k]
    r_star = (m1 | m2) & ~r_k

    # the cells partition V - D
    unreached = g.full & ~d & ~cells[k] & ~g.closed_neighborhood(r_star)
    if unreached:
        w = unreached & -unreached
        wid = w.bit_length() - 1
        if undominated & ~g.adj[wid]:
            raise InternalContradiction(
                "witness vertex is not adjacent to the whole undominated set",
                {"w": wid, "undominated": undominated},
            )
        certified = _certify(g, d, m1 | m2 | w, "alpha", "gamma5_construct")
        if certified.bound_value < 6:
            raise InternalContradiction(
                "independence number below 6 in the hard branch",
                {"alpha": certified.bound_value},
            )
        return certified

    raise InternalContradiction(
        "all branches exhausted: R* dominates every other cell, which "
        "contradicts the optimality of D",
        {"d_set": d, "r1": m1, "r2": m2, "cells": list(cells)},
    )
