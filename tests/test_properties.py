"""Hypothesis property tests for the solver and construction invariants.

The round-trip and Ore tests run the selftest checks of the same name on
random labelled graphs up to n = 7."""

from hypothesis import given, settings, strategies as st

from invdom import solvers
from invdom.constructions import (
    expand_to_maximal_independent,
    find_isr,
    standard_partition,
)
from invdom.graph import Graph, bits
from invdom.harness import check_graph6_roundtrip, check_ore_complement
from oracles import haxell_condition


@st.composite
def graphs(draw, min_n=0, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pair_bits = n * (n - 1) // 2
    word = draw(st.integers(0, (1 << pair_bits) - 1)) if pair_bits else 0
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if word >> idx & 1:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


@st.composite
def graphs_with_subset(draw, min_n=1, max_n=7):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    s = draw(st.integers(0, g.full))
    return g, s


common = settings(max_examples=80, deadline=None)


@common
@given(graphs())
def test_roundtrip(g):
    assert check_graph6_roundtrip(g) == []


@common
@given(graphs())
def test_gamma_at_most_alpha(g):
    assert solvers.gamma(g)[0] <= solvers.alpha(g)[0]


@common
@given(graphs())
def test_whole_vertex_set_dominates(g):
    assert g.is_dominating(g.full)


@common
@given(graphs_with_subset())
def test_independence_monotone_under_subset(gs):
    g, s = gs
    if g.is_independent(s):
        sub = s & (s >> 1 | s << 1) | (s & 0b1010101)  # arbitrary subset
        assert g.is_independent(sub & s)


@common
@given(graphs_with_subset(), st.integers(0, (1 << 7) - 1))
def test_closed_neighborhood_monotone(gs, t_raw):
    g, s = gs
    t = (s | t_raw) & g.full  # s is a subset of t
    assert g.closed_neighborhood(s) & ~g.closed_neighborhood(t) == 0


@common
@given(graphs_with_subset())
def test_private_neighbors_pairwise_disjoint(gs):
    g, d = gs
    seen = 0
    for v in bits(d):
        priv = g.private_neighbors(d, v)
        assert not priv & seen
        seen |= priv


@common
@given(graphs(min_n=1))
def test_ore_complements_dominate(g):
    if not g.has_isolated_vertex():
        assert check_ore_complement(g) == []


@common
@given(graphs(min_n=1))
def test_inverse_chain(g):
    if g.n == 0 or g.has_isolated_vertex():
        return
    inv = solvers.inverse_gamma(g)[0]
    strong = solvers.strong_inverse_gamma(g)
    assert inv <= strong <= g.n - solvers.gamma(g)[0]


@common
@given(graphs())
def test_b_at_least_alpha_and_bipartite_iff_full(g):
    b, witness = solvers.max_induced_bipartite(g)
    assert b >= solvers.alpha(g)[0]
    assert g.is_bipartite_subset(witness) and witness.bit_count() == b
    assert (b == g.n) == g.is_bipartite_subset(g.full)


@common
@given(graphs(min_n=1))
def test_standard_partition_recompute(g):
    if g.has_isolated_vertex():
        return
    d = solvers.gamma(g)[1]
    reps = sorted(bits(d))
    universe = g.full & ~d
    cells = standard_partition(g, reps, universe)
    assert len(cells) == len(reps)
    taken = 0
    for rep, cell in zip(reps, cells):
        assert cell == g.adj[rep] & universe & ~taken
        taken |= cell
    assert taken == universe


@common
@given(graphs(min_n=1))
def test_expand_yields_maximal_independent(g):
    out = expand_to_maximal_independent(g, 0, g.full)
    assert g.is_independent(out)
    for v in bits(g.full & ~out):
        assert g.adj[v] & out  # adding any vertex breaks independence
    assert expand_to_maximal_independent(g, out, g.full) == out


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=6), st.integers(1, 3))
def test_haxell_condition_implies_isr(g, k):
    cells = []
    taken = 0
    for v in range(0, g.n, max(1, g.n // k)):
        cell = (g.adj[v] | 1 << v) & ~taken
        if cell:
            cells.append(cell)
            taken |= cell
    if haxell_condition(g, cells) is None:
        assert find_isr(g, cells) is not None
