"""Construction machinery: partitions, ISR search, certificate builders,
the trichotomy, and the gamma-5 pipeline, including negative fixtures."""

import random
from dataclasses import replace
from itertools import combinations, permutations, product

import pytest

from invdom import constructions, solvers
from invdom.certificates import InverseCertificate, check_inverse_certificate
from invdom.constructions import (
    biglemma_trichotomy,
    bipartite_inverse_construct,
    expand_to_maximal_independent,
    find_isr,
    find_special_independent,
    gamma5_construct,
    inddom_construct,
    isr_cells,
    lemma41_check,
    max_partial_isr,
    standard_partition,
    superisrs,
    theorem_main_construct,
    two_partial_isrs,
    validate_isr_pair,
    validate_partial_isr,
)
from invdom.errors import (
    HasIsolates,
    InternalContradiction,
    LemmaViolated,
    PreconditionViolated,
    TooLarge,
)
from invdom.generate import (
    cycle_graph,
    disjoint_union,
    pad_with_k2,
    star_graph,
    with_pendant_pairs,
)
from invdom.graph import Graph, bits, mask_of, to_sorted
from invdom.graph6 import write_graph6
from oracles import complete_graph, grow_bipartite, haxell_condition, path_graph
from test_golden import gamma5_graphs, rewrite_corpus


# -- standard partitions ------------------------------------------------------

def test_standard_partition_p4(p4):
    assert standard_partition(p4, (1, 2), mask_of((0, 3))) == (1 << 0, 1 << 3)
    assert standard_partition(p4, (2, 1), mask_of((0, 3))) == (1 << 3, 1 << 0)


def test_standard_partition_single_rep(c5):
    assert standard_partition(c5, (0,), c5.adj[0]) == (c5.adj[0],)


def test_standard_partition_cells_partition_universe(corpus7):
    for g in corpus7[6]:
        if g.has_isolated_vertex():
            continue
        d = solvers.gamma(g)[1]
        reps = sorted(bits(d))
        union = 0
        for cell in standard_partition(g, reps, g.full & ~d):
            assert not cell & union
            union |= cell
        assert union == g.full & ~d


def test_standard_partition_not_dominated(p4):
    with pytest.raises(ValueError, match=r"universe vertices \[2, 3\] have no neighbor in x"):
        standard_partition(p4, (0,), mask_of((2, 3)))


def test_standard_partition_rejects_overlap(p4):
    with pytest.raises(ValueError):
        standard_partition(p4, (0,), mask_of((0, 1)))


def test_standard_partition_rejects_an_ordering_outside_the_graph():
    with pytest.raises(ValueError, match="outside"):
        standard_partition(path_graph(4), (9,), 0)


# -- haxell condition -----------------------------------------------------------

def test_haxell_single_cell(c4):
    assert haxell_condition(c4, [mask_of((0,))]) is None


def test_haxell_empty_cell(c4):
    assert haxell_condition(c4, [mask_of((0,)), 0]) == (1,)


def test_haxell_adjacent_singletons(k2):
    assert haxell_condition(k2, [1 << 0, 1 << 1]) == (0, 1)


def test_haxell_soundness_small(corpus7):
    """Whenever the condition holds, an ISR exists (converse not asserted)."""
    checked = 0
    for g in corpus7[5]:
        d = solvers.gamma(g)[1]
        reps = sorted(bits(d))
        cells = standard_partition(g, reps, g.full & ~d)
        if haxell_condition(g, cells) is None:
            assert find_isr(g, cells) is not None
            checked += 1
    assert checked > 0


# -- ISR search -------------------------------------------------------------------

def test_find_isr_examples(c4, k2):
    cells = [1 << 0, 1 << 2]
    isr = find_isr(c4, cells)
    assert isr == 0b101
    assert [isr & cell for cell in cells] == [1 << 0, 1 << 2]  # vertex 0 in cell 0, 2 in cell 1
    assert find_isr(k2, [1 << 0, 1 << 1]) is None
    singles = Graph(3)
    assert find_isr(singles, [1, 2, 4]) == 0b111


def test_find_isr_empty_family(c4):
    assert find_isr(c4, []) == 0


def test_find_isr_completeness_small(corpus7):
    """Backtracking agrees with brute-force transversal enumeration."""
    rng = random.Random(11)
    for g in corpus7[6][:80]:
        verts = list(range(g.n))
        rng.shuffle(verts)
        cells = [mask_of(verts[i::3]) for i in range(3)]
        cells = [c for c in cells if c]
        brute = any(
            g.is_independent(mask_of(combo))
            for combo in product(*[list(bits(c)) for c in cells])
        )
        assert (find_isr(g, cells) is not None) == brute


def test_max_partial_isr_examples(k2, c4):
    assert max_partial_isr(k2, [1 << 0, 1 << 1]).bit_count() == 1
    assert max_partial_isr(c4, [1 << 0, 1 << 2]).bit_count() == 2
    big = max_partial_isr(c4, [1 << 0, 1 << 1, 1 << 2])
    assert big.bit_count() == 2
    assert validate_partial_isr(c4, [1 << 0, 1 << 1, 1 << 2], big) == []


def test_max_partial_isr_exactness(corpus7):
    """Matches exhaustive search over subfamilies and transversals."""
    for g in corpus7[5][:25]:
        cells = [g.adj[v] & ~((1 << v) - 1) & ~(1 << v) for v in range(min(g.n, 3))]
        cells = [c for c in cells if c]
        # make cells disjoint by greedy stripping
        taken = 0
        cleaned = []
        for c in cells:
            cleaned.append(c & ~taken)
            taken |= c
        cells = [c for c in cleaned if c]
        best = 0
        for pick in range(1 << len(cells)):
            chosen = [list(bits(cells[i])) for i in range(len(cells)) if pick >> i & 1]
            if any(
                g.is_independent(mask_of(combo)) for combo in product(*chosen)
            ) or not chosen:
                best = max(best, len(chosen))
        assert max_partial_isr(g, cells).bit_count() == best


def _small_cell_families(corpus7):
    """(g, cells) on graphs with n <= 6: a seeded random subset of V split
    into one to four disjoint cells, some of them empty."""
    rng = random.Random(31)
    graphs = corpus7[4] + corpus7[5] + corpus7[6][::2]
    for g in graphs:
        k = rng.randint(1, 4)
        cells = [0] * k
        for v in range(g.n):
            slot = rng.randint(0, k)  # slot k: v lies in no cell
            if slot < k:
                cells[slot] |= 1 << v
        yield g, cells


def _brute_transversals(g: Graph, cells, need: int) -> list[int]:
    """Every independent choice of at most one vertex per cell hitting at
    least ``need`` cells, sorted by the per-cell key, a skipped cell (None)
    ranking after every vertex."""
    choices = product(*[list(bits(cell)) + [None] for cell in cells])
    picks = [
        combo for combo in choices
        if sum(v is not None for v in combo) >= need
        and g.is_independent(mask_of(v for v in combo if v is not None))
    ]
    picks.sort(key=lambda combo: [g.n if v is None else v for v in combo])
    return [mask_of(v for v in combo if v is not None) for combo in picks]


def test_transversals_match_brute_force_for_every_need(corpus7):
    families = list(_small_cell_families(corpus7))
    assert len(families) > 100 and any(0 in cells for _, cells in families)
    for g, cells in families:
        assert list(constructions._transversals(g.adj, cells)) == _brute_transversals(
            g, cells, len(cells)
        )
        for skips in range(len(cells) + 2):  # need = len(cells) - skips, down to -1
            assert list(constructions._transversals(g.adj, cells, skips)) == _brute_transversals(
                g, cells, len(cells) - skips
            )


def test_max_partial_isr_is_the_first_largest_transversal(corpus7):
    without_full_isr = 0
    for g, cells in _small_cell_families(corpus7):
        every = _brute_transversals(g, cells, 0)
        largest = max(isr.bit_count() for isr in every)
        without_full_isr += largest < len(cells)
        first = next(isr for isr in every if isr.bit_count() == largest)
        assert max_partial_isr(g, cells) == first
    assert without_full_isr > 20


# -- two partial ISRs ----------------------------------------------------------------

def test_two_partial_isrs_trivial_empty(c4):
    d = mask_of((0, 2))
    assert two_partial_isrs(c4, isr_cells(c4, d, d, ())) == (0, 0)


def test_two_partial_isrs_single_cell(p4):
    r1, r2 = two_partial_isrs(p4, isr_cells(p4, mask_of((1, 2)), 1 << 1, (2,)))
    hit = r1 if r1 else r2
    assert hit.bit_count() == 1


def test_two_partial_isrs_c6_from_optimal():
    c6 = cycle_graph(6)
    cert = solvers.optimal_dominating_set(c6)
    f = expand_to_maximal_independent(c6, 0, cert.d_set)
    cells = isr_cells(c6, cert.d_set, f, sorted(bits(cert.d_set & ~f)))
    assert validate_isr_pair(c6, cells, two_partial_isrs(c6, cells)) == []


def _doubled_isr_exists(g: Graph, cells) -> bool:
    """Oracle: full ISR in two disjoint copies of G[union of the cells]."""
    universe = 0
    for cell in cells:
        universe |= cell
    verts = sorted(bits(universe))
    index = {v: i for i, v in enumerate(verts)}
    m = len(verts)
    edges = []
    for v in verts:
        for u in bits(g.adj[v] & universe):
            edges += [(index[v], index[u]), (index[v] + m, index[u] + m)]
    doubled = Graph(2 * m, edges)
    w_cells = []
    for cell in cells:
        w = 0
        for v in bits(cell):
            w |= 1 << index[v]
            w |= 1 << (index[v] + m)
        w_cells.append(w)
    return find_isr(doubled, w_cells) is not None


def test_two_partial_isrs_matches_doubled_graph_oracle(corpus7):
    """The index-bipartition search equals the doubled-graph view (<= 4 cells)."""
    checked = 0
    for g in corpus7[6]:
        if g.has_isolated_vertex():
            continue
        for d in solvers.enumerate_min_dominating_sets(g):
            f = expand_to_maximal_independent(g, 0, d)
            rest = sorted(bits(d & ~f))
            if not rest or len(rest) > 4:
                continue
            cells = isr_cells(g, d, f, rest)
            assert _doubled_isr_exists(g, cells)
            assert validate_isr_pair(g, cells, two_partial_isrs(g, cells)) == []
            checked += 1
    assert checked > 50


def test_two_partial_isrs_contradiction_on_bad_input():
    """Non-minimum D with an empty cell exhausts the search; the doubled
    oracle agrees that no ISR exists."""
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    d = mask_of((0, 1, 2))  # dominating but not minimum (gamma is 2)
    cells = isr_cells(g, d, 1 << 0, (1, 2))
    assert cells[1] == 0
    assert not _doubled_isr_exists(g, cells)
    with pytest.raises(InternalContradiction) as exc:
        two_partial_isrs(g, cells)
    assert exc.value.context == {"cells": list(cells)}


def test_pendant_gadget_all_orderings():
    """|D - F| = 4 on the K5 pendant gadget: every ordering works."""
    g = with_pendant_pairs(complete_graph(5), 2)
    cert = solvers.optimal_dominating_set(g)
    d = cert.d_set
    f = expand_to_maximal_independent(g, 0, d)
    rest = sorted(bits(d & ~f))
    assert len(rest) == 4
    for ordering in permutations(rest):
        cells = isr_cells(g, d, f, ordering)
        assert validate_isr_pair(g, cells, two_partial_isrs(g, cells)) == []
        assert 2 * max_partial_isr(g, cells).bit_count() >= len(cells)


K5_GADGET = with_pendant_pairs(complete_graph(5), 2)  # leaves 2v+5, 2v+6 hang off base vertex v


def _k5_gadget_pair():
    """Cells of the K5 gadget over D - F = {1, 2, 3, 4}, and the pair on them."""
    g = K5_GADGET
    d = solvers.optimal_dominating_set(g).d_set
    f = expand_to_maximal_independent(g, 0, d)
    cells = isr_cells(g, d, f, sorted(bits(d & ~f)))
    return cells, two_partial_isrs(g, cells)


def test_the_k5_gadget_pair_is_valid():
    cells, pair = _k5_gadget_pair()
    assert cells == (mask_of((7, 8)), mask_of((9, 10)), mask_of((11, 12)), mask_of((13, 14)))
    assert pair == (0, mask_of((7, 9, 11, 13)))
    assert validate_isr_pair(K5_GADGET, cells, pair) == []


@pytest.mark.parametrize(
    "mutate, problem",
    [
        (lambda g, r1, r2: (g, r1, r2 | 1 << 8), "cell 0 has 2 members"),
        (lambda g, r1, r2: (g, r1, r2 | 1 << 5), "vertices [5] lie in no cell"),
        (lambda g, r1, r2: (Graph(g.n, [*g.edges(), (7, 9)]), r1, r2),
         "members are not independent"),
        (lambda g, r1, r2: (g, r1, r2 & ~(1 << 13)), "cell 3 represented by neither side"),
        (lambda g, r1, r2: (g, r1 | 1 << 8, r2), "cell 0 represented by both sides"),
    ],
    ids=["second-vertex-in-a-cell", "vertex-outside-every-cell", "adjacent-member",
         "cell-on-neither-side", "cell-on-both-sides"],
)
def test_the_isr_validators_report_each_mutation(mutate, problem):
    cells, (r1, r2) = _k5_gadget_pair()
    g, r1, r2 = mutate(K5_GADGET, r1, r2)
    assert validate_isr_pair(g, cells, (r1, r2)) == [problem]


# -- expansion ---------------------------------------------------------------------

def test_expand_examples(c5):
    triple = Graph(3)
    assert expand_to_maximal_independent(triple, 0, triple.full) == 0b111
    assert expand_to_maximal_independent(c5, mask_of((0, 2)), c5.full) == mask_of((0, 2))
    assert expand_to_maximal_independent(c5, 1 << 0, c5.full) == mask_of((0, 2))


def test_expand_rejects_bad_seed(c4):
    with pytest.raises(ValueError, match=r"seed \[0, 1\] spans an edge"):
        expand_to_maximal_independent(c4, mask_of((0, 1)), c4.full)
    with pytest.raises(ValueError, match="seed not contained in universe"):
        expand_to_maximal_independent(c4, 1 << 0, 1 << 1)


# -- inddom ------------------------------------------------------------------------

def test_inddom_c4(c4):
    cert = inddom_construct(c4, mask_of((0, 2)), mask_of((0, 2)))
    assert cert.t_set == mask_of((1, 3))
    assert cert.bound_kind == "alpha" and cert.bound_value == 2
    assert check_inverse_certificate(c4, cert, 2) == []


def test_inddom_star(star4):
    cert = inddom_construct(star4, 1 << 0, 1 << 0)
    assert cert.t_set == mask_of((1, 2, 3, 4))
    assert cert.bound_value == 4


def test_inddom_rejects_bad_input(c4, p4):
    with pytest.raises(PreconditionViolated):
        inddom_construct(c4, mask_of((0, 1)), mask_of((0, 1)))  # s not independent
    with pytest.raises(PreconditionViolated):
        inddom_construct(p4, mask_of((1, 2)), 1 << 1)  # {1}-D misses 2
    with pytest.raises(PreconditionViolated):
        inddom_construct(Graph(3, [(0, 1)]), mask_of((0, 2)), mask_of((0, 2)))


@pytest.mark.parametrize(
    "construct",
    [
        lambda g, d: inddom_construct(g, d, 0),
        theorem_main_construct,
        lambda g, d: theorem_main_construct(g, d, gamma=1),
        bipartite_inverse_construct,
    ],
    ids=["inddom", "main", "main-given-values", "bipartite"],
)
def test_constructions_share_one_precondition_gate(construct):
    with pytest.raises(PreconditionViolated, match="empty graph"):
        construct(Graph(0), 0)
    with pytest.raises(HasIsolates):
        construct(Graph(3, [(0, 1)]), mask_of((0, 2)))


@pytest.mark.parametrize(
    "construct",
    [lambda g, d: inddom_construct(g, d, 0), theorem_main_construct, bipartite_inverse_construct],
    ids=["inddom", "main", "bipartite"],
)
@pytest.mark.parametrize(
    "g, d_set, size, gamma_value",
    [
        (star_graph(4), mask_of((1, 2, 3, 4)), 4, 1),
        (pad_with_k2(cycle_graph(5), 2), mask_of((0, 2, 5, 7, 8)), 5, 4),
    ],
    ids=["star-leaves", "C5+2K2-one-part-too-big"],
)
def test_a_dominating_set_above_gamma_names_gamma(construct, g, d_set, size, gamma_value):
    assert g.is_dominating(d_set)
    with pytest.raises(PreconditionViolated, match=rf"\|d_set\| = {size} but gamma = {gamma_value}$"):
        construct(g, d_set)


# -- main theorem construction --------------------------------------------------------

def test_main_construct_k2(k2):
    cert = theorem_main_construct(k2, 1 << 0)
    assert cert.t_set == 1 << 1
    assert cert.bound_kind == "main_theorem" and cert.bound_value == 1


def test_main_construct_star(star4):
    cert = theorem_main_construct(star4, 1 << 0)
    assert cert.t_set == mask_of((1, 2, 3, 4))
    assert cert.bound_value == 4


def test_main_construct_rejects(star4):
    with pytest.raises(HasIsolates):
        theorem_main_construct(Graph(2), 0b11)
    with pytest.raises(PreconditionViolated):
        theorem_main_construct(star4, mask_of((1, 2, 3, 4)))  # not minimum


def test_main_construct_checks_the_values_it_is_given(c5):
    gamma_value, d = solvers.gamma(c5)
    with pytest.raises(PreconditionViolated, match=f"gamma = {gamma_value + 1}"):
        theorem_main_construct(c5, d, gamma=gamma_value + 1)


# -- bipartite construction ------------------------------------------------------------

def test_bipartite_construct_k2(k2):
    cert = bipartite_inverse_construct(k2, 1 << 0)
    assert cert.t_set == 1 << 1
    assert cert.bound_kind == "bipartite_b" and cert.bound_value == 2


def test_bipartite_construct_c4(c4):
    cert = bipartite_inverse_construct(c4, mask_of((0, 2)))
    assert cert.t_set & mask_of((1, 3)) == cert.t_set & ~mask_of((0, 2))
    assert cert.t_set.bit_count() <= 4
    assert check_inverse_certificate(c4, cert, 2) == []


# -- the certify step and the checker ----------------------------------------------------

C9 = cycle_graph(9)
C9_CERT = InverseCertificate(mask_of((0, 3, 6)), mask_of((1, 4, 7)), "main_theorem", 5)


@pytest.mark.parametrize(
    "mutate, gamma_value, problem",
    [
        (lambda c: replace(c, t_set=mask_of((1, 4))), 3, "t_set does not dominate"),
        (lambda c: replace(c, t_set=c.t_set | 1 << 0), 3, "d_set and t_set intersect"),
        (lambda c: replace(c, bound_value=2), 3, "|t_set| = 3 exceeds bound 2"),
        (lambda c: c, 4, "|d_set| = 3 != gamma = 4"),
        (lambda c: replace(c, bound_kind="three_halves"), 3,
         "unknown bound_kind 'three_halves'"),
        (lambda c: replace(c, t_set=c.t_set | 1 << 9), 3,
         "certificate has vertices outside the graph"),
    ],
    ids=["t-loses-a-dominator", "t-gains-a-d-vertex", "bound-below-t", "wrong-gamma",
         "unknown-kind", "vertex-outside"],
)
def test_the_checker_reports_each_mutation(mutate, gamma_value, problem):
    assert check_inverse_certificate(C9, mutate(C9_CERT), gamma_value) == [problem]


def test_certify_solves_the_bound_its_kind_names():
    d, t = C9_CERT.d_set, C9_CERT.t_set
    alpha_value = solvers.alpha(C9)[0]
    bounds = {"alpha": alpha_value, "main_theorem": alpha_value + (3 - 1) // 2,
              "bipartite_b": solvers.max_induced_bipartite(C9)[0]}
    for kind, bound in bounds.items():
        cert = constructions._certify(C9, d, t, kind, "test")
        assert cert == InverseCertificate(d, t, kind, bound)


def test_certify_raises_with_a_reproducer():
    with pytest.raises(InternalContradiction, match="test produced an invalid certificate") as exc:
        constructions._certify(C9, C9_CERT.d_set, mask_of((1, 4)), "main_theorem", "test")
    record = exc.value.reproducer(write_graph6(C9))
    assert record["graph6"] == write_graph6(C9)
    assert record["context"]["problems"] == repr(["t_set does not dominate"])


C9_WITNESS = solvers.gamma(C9)[1]


@pytest.mark.parametrize(
    "build, asks",
    [
        (lambda: theorem_main_construct(C9, C9_WITNESS), (1, 1, 0)),
        (lambda: theorem_main_construct(C9, C9_WITNESS, gamma=3), (0, 1, 0)),
        (lambda: inddom_construct(C9, C9_CERT.d_set, C9_CERT.d_set), (1, 1, 0)),
        (lambda: bipartite_inverse_construct(C9, C9_WITNESS), (1, 1, 1)),
    ] + [(lambda g=g: gamma5_construct(g), (0, 1, 0)) for g in gamma5_graphs()],
    ids=["main", "main-given-values", "inddom", "bipartite", "gamma5-5K2", "gamma5-5K13",
         "gamma5-C5-pendants", "gamma5-K5-pendants"],
)
def test_each_construction_solves_its_bound_once(monkeypatch, build, asks):
    """Each construction asks for its bound once, as (gamma, alpha, b)
    asks.  The gate asks gamma once for a (g, d) call, and not at all where
    gamma is handed down: to the main construction by its caller, and inside
    gamma5_construct, whose D comes from a complete enumeration.  b asks
    alpha once, for its sides' cap."""
    calls = {"gamma": 0, "alpha": 0, "max_induced_bipartite": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(solvers, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(solvers, name, counted)
    build()
    assert tuple(calls.values()) == asks


def test_two_gates_on_one_graph_share_one_gamma_search(monkeypatch):
    searches = []
    min_cover = solvers._min_cover

    def counted(*args):
        searches.append(args[1:])
        return min_cover(*args)

    monkeypatch.setattr(solvers, "_min_cover", counted)
    theorem_main_construct(C9, C9_WITNESS)
    bipartite_inverse_construct(C9, C9_WITNESS)
    assert searches == [(C9.full, C9.full)]


def test_bipartite_growth_matches_the_quadratic_loop(corpus7):
    """The ISR union of the gamma witness and of the optimal gamma-set grown
    in G - D, as the construction grows it, and every seed in every graph
    with n <= 6 grown in V, non-bipartite seeds included."""
    for g in rewrite_corpus():
        if g.has_isolated_vertex():
            continue
        for d in {solvers.gamma(g)[1], solvers.optimal_dominating_set(g).d_set}:
            _, cells = constructions._maximal_f_and_cells(g, d)
            r1, r2 = two_partial_isrs(g, cells)
            expected = grow_bipartite(g, r1 | r2, g.full & ~d)
            assert constructions._grow_bipartite(g, r1 | r2, g.full & ~d) == expected
    for n in range(1, 7):
        for g in corpus7[n]:
            for seed in range(1 << g.n):
                grown = constructions._grow_bipartite(g, seed, g.full)
                assert grown == grow_bipartite(g, seed, g.full), (write_graph6(g), seed)


# -- special independent sets ----------------------------------------------------------

def test_find_special_independent_examples(c4, k4):
    assert find_special_independent(c4, mask_of((0, 2))) == mask_of((0, 2))
    s = find_special_independent(c4, mask_of((0, 1)))
    assert s is not None and c4.is_independent(s)
    out = s & ~mask_of((0, 1))
    rest = mask_of((0, 1)) & ~s
    assert rest & ~c4.open_neighborhood(out) == 0
    assert find_special_independent(k4, 1 << 0) == 1 << 0


def _is_special_independent(g: Graph, d: int, s: int) -> bool:
    """S is independent and S - D dominates D - S."""
    return g.is_independent(s) and not d & ~s & ~g.open_neighborhood(s & ~d)


def _brute_special_independent(g: Graph, d: int) -> int | None:
    """First special independent set by mask, or None."""
    return next((s for s in range(1 << g.n) if _is_special_independent(g, d, s)), None)


def _pendant_pairs_with_leaf_clique(k: int) -> Graph:
    """K_k with two pendant leaves per vertex, then all 2k leaves joined
    into one clique.  Vertices 0..k-1 are the base, k..3k-1 the leaves."""
    g = with_pendant_pairs(complete_graph(k), 2)
    return Graph(g.n, [*g.edges(), *combinations(range(k, 3 * k), 2)])


def test_find_special_independent_none_exists():
    """With D = K4 on the plain pendant-pair gadget a special set exists
    ({d0} plus one leaf of every other base vertex), so the negative case
    runs on the leaf-clique variant: every independent set outside D is a
    single leaf, which leaves three adjacent base vertices undominated.

    D = K4 is dominating there but not minimum (one base vertex and one
    leaf dominate).  A minimum D cannot serve: the trichotomy's cond3
    needs |D| >= 5, so a gamma-set of size at most 4 always has a special
    set, and no gamma = 5 instance without one is known."""
    base = mask_of((0, 1, 2, 3))
    g = with_pendant_pairs(complete_graph(4), 2)
    cert = solvers.optimal_dominating_set(g)
    assert cert.d_set == base
    s = find_special_independent(g, cert.d_set)
    assert s is not None and _is_special_independent(g, base, s)

    g = _pendant_pairs_with_leaf_clique(4)
    assert g.is_dominating(base)
    assert _brute_special_independent(g, base) is None
    assert find_special_independent(g, base) is None


def test_find_special_independent_matches_brute_force(corpus7):
    for g in corpus7[5]:
        d = solvers.gamma(g)[1]
        found = find_special_independent(g, d)
        brute = _brute_special_independent(g, d)
        assert (found is None) == (brute is None)
        if found is not None:
            assert _is_special_independent(g, d, found)


# -- trichotomy and private-neighbor audit ----------------------------------------------

def test_lemma41_independent_d_vacuous(c4):
    assert lemma41_check(c4, solvers.optimal_dominating_set(c4).d_set) == []


def test_lemma41_adversarial_non_optimal(p4):
    assert lemma41_check(p4, mask_of((1, 2))) == [(1, 1), (2, 1)]


def test_trichotomy_found_s(k2, c4):
    for g in (k2, c4):
        d = solvers.optimal_dominating_set(g).d_set
        s = biglemma_trichotomy(g, d)
        assert s is not None and _is_special_independent(g, d, s)


def test_trichotomy_conditions_branch():
    """The conditions branch on the K5 leaf-clique graph (n = 15) with
    D = K5: a = 0 and alpha(G[D]) = 1.  The plain K5 pendant-pair gadget
    has a special set, so it cannot drive this branch.  D = K5 is not
    minimum here (gamma = 2): the lemma rules out a gamma-set of size at
    most 4 without a special set, and no gamma = 5 instance is known."""
    g = _pendant_pairs_with_leaf_clique(5)
    d = mask_of(range(5))
    assert g.is_dominating(d)
    assert _brute_special_independent(g, d) is None
    assert biglemma_trichotomy(g, d) is None


def test_trichotomy_non_minimum_d_can_violate():
    """For a dominating set that is not minimum the either/or guarantee
    does not hold: on the K4 leaf-clique graph D = K4 has no special set
    and |D| = 4 fails |D| >= a+5.  The error names each inequality."""
    g = _pendant_pairs_with_leaf_clique(4)
    d = mask_of(range(4))
    assert g.is_dominating(d)
    with pytest.raises(LemmaViolated) as exc:
        biglemma_trichotomy(g, d)
    assert exc.value.context == {
        "d_set": d, "|D|": 4, "a": 0, "alpha(D)": 1,
        "a+1 <= alpha(D) <= |D|-3": True, "|V|+a >= 3|D|": True, "|D| >= a+5": False,
    }


def test_trichotomy_rejects_isolates():
    with pytest.raises(HasIsolates):
        biglemma_trichotomy(Graph(3, [(0, 1)]), 0b101)


# -- superisrs ---------------------------------------------------------------------------

@pytest.mark.parametrize("base_maker", [lambda: cycle_graph(5), lambda: complete_graph(5)])
def test_superisrs_on_pendant_gadgets(base_maker):
    g = with_pendant_pairs(base_maker(), 2)
    d = solvers.optimal_dominating_set(g).d_set
    assert d.bit_count() == 5 and not g.induced_isolates(d)
    ordering, cells = superisrs(g, d)
    assert find_isr(g, cells[:3]) is not None
    assert find_isr(g, cells[3:]) is not None
    assert sorted(ordering) == to_sorted(d)
    # the cells are disjoint and cover V - D
    assert sum(cells) == g.full & ~d
    assert sum(cell.bit_count() for cell in cells) == (g.full & ~d).bit_count()


def test_superisrs_rejects_isolates():
    with pytest.raises(HasIsolates):
        superisrs(Graph(3, [(0, 1)]), 0b101)


def test_superisrs_precondition_violations(c4):
    with pytest.raises(PreconditionViolated):
        superisrs(c4, solvers.optimal_dominating_set(c4).d_set)  # |D| = 2, not 5


def test_superisrs_rejects_high_independence():
    g = disjoint_union(Graph(2, [(0, 1)]), Graph(2, [(0, 1)]))
    for _ in range(3):
        g = disjoint_union(g, Graph(2, [(0, 1)]))
    with pytest.raises(PreconditionViolated):
        superisrs(g, solvers.optimal_dominating_set(g).d_set)  # 5K2: alpha(D) = 5


def test_superisrs_solves_the_independence_of_d():
    """D = P5, the base of its pendant-pair gadget, is a gamma-set whose
    G[D] has no isolate and alpha(G[D]) = 3: superisrs solves alpha(G[D])
    itself, so no caller's figure gets D past the bound of 2."""
    g = with_pendant_pairs(path_graph(5), 2)
    d = mask_of(range(5))
    assert solvers.gamma(g)[0] == 5 and not g.induced_isolates(d)
    with pytest.raises(PreconditionViolated, match=r"alpha\(D\) = 3 > 2"):
        superisrs(g, d)


# -- gamma5 pipeline ----------------------------------------------------------------------

def test_gamma5_five_k2():
    k2 = Graph(2, [(0, 1)])
    g = k2
    for _ in range(4):
        g = disjoint_union(g, k2)
    cert = gamma5_construct(g)
    assert cert.t_set.bit_count() <= 5
    assert check_inverse_certificate(g, cert, 5) == []


def test_gamma5_five_stars():
    g = star_graph(3)
    for _ in range(4):
        g = disjoint_union(g, star_graph(3))
    assert solvers.gamma(g)[0] == 5
    alpha_value = solvers.alpha(g)[0]
    assert alpha_value == 15
    cert = gamma5_construct(g)
    assert cert.t_set.bit_count() <= alpha_value
    assert check_inverse_certificate(g, cert, 5) == []
    # the only disjoint dominating set is the full leaf set
    assert solvers.inverse_gamma(g)[0] == 15


def test_gamma5_pendant_gadgets_take_the_four_cell_shortcut():
    """On the C5 and K5 pendant-pair gadgets ``superisrs`` finds its
    ordering and a partial ISR then hits four of the five cells, so
    ``gamma5_construct`` returns at that shortcut.  The pair search after
    the shortcut runs on neither gadget."""
    for base in (cycle_graph(5), complete_graph(5)):
        g = with_pendant_pairs(base, 2)
        cells = superisrs(g, solvers.optimal_dominating_set(g).d_set)[1]
        assert max_partial_isr(g, cells).bit_count() >= 4
        cert = gamma5_construct(g)
        assert check_inverse_certificate(g, cert, 5) == []
        assert cert.t_set.bit_count() <= solvers.alpha(g)[0]


@pytest.mark.parametrize(
    "g, a, alpha_d, failing",
    [
        # 5K2: every member of D is an isolate of G[D]
        (pad_with_k2(Graph(0), 5), 5, 5, ("a+1 <= alpha(D) <= |D|-3", "|D| >= a+5")),
        # the P5 pendant-pair gadget: D = P5, no isolate, alpha(G[D]) = 3
        (with_pendant_pairs(path_graph(5), 2), 0, 3, ("a+1 <= alpha(D) <= |D|-3",)),
    ],
    ids=["5K2", "P5-gadget"],
)
def test_gamma5_reaches_the_special_set_through_the_trichotomy(g, a, alpha_d, failing, monkeypatch):
    """With no special set, the trichotomy branch of ``gamma5_construct``
    raises ``LemmaViolated`` naming the inequality that fails."""
    monkeypatch.setattr(constructions, "find_special_independent", lambda h, d: None)
    d = solvers.optimal_dominating_set(g).d_set
    with pytest.raises(LemmaViolated) as exc:
        gamma5_construct(g)
    inequalities = ("a+1 <= alpha(D) <= |D|-3", "|V|+a >= 3|D|", "|D| >= a+5")
    assert exc.value.context == {
        "d_set": d, "|D|": 5, "a": a, "alpha(D)": alpha_d,
        **{name: name not in failing for name in inequalities},
    }


def test_gamma5_rejects_wrong_gamma(c4):
    with pytest.raises(PreconditionViolated):
        gamma5_construct(c4)
    with pytest.raises(HasIsolates):
        gamma5_construct(Graph(3, [(0, 1)]))


# -- padding -----------------------------------------------------------------------------

def test_pad_examples(k2, c4):
    assert pad_with_k2(k2, 0) == k2
    padded = pad_with_k2(k2, 1)
    assert padded.n == 4 and solvers.gamma(padded)[0] == 2
    assert solvers.alpha(padded)[0] == 2
    padded = pad_with_k2(c4, 2)
    assert padded.n == 8
    assert solvers.gamma(padded)[0] == 4 and solvers.alpha(padded)[0] == 4


def test_pad_too_large():
    with pytest.raises(TooLarge):
        pad_with_k2(Graph(63), 1)
