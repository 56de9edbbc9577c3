"""Solver behavior on the worked examples plus witness and determinism
contracts.  The oracle sweeps of gamma, alpha, inverse gamma, strong inverse
gamma and b are selftest checks, which
test_harness.py::test_selftest_check_holds_up_to_six_vertices runs on n <= 6;
alpha and b also meet their oracles here on graphs of 10-13 vertices, and
alpha, b and the inverse pass on seeded disjoint unions, which the solvers
split by component."""

import random
from itertools import combinations

import pytest

from invdom import harness, naive, solvers
from invdom.certificates import check_inverse_certificate
from invdom.errors import HasIsolates
from invdom.generate import (
    complete_graph,
    cycle_graph,
    gamma5_corpus,
    pad_with_k2,
    random_graph,
)
from invdom.graph import Graph, disjoint_union, mask_of
from invdom.graph6 import parse_graph6


def disjoint_unions(seed: int, count: int, isolate_free: bool = False) -> list[Graph]:
    """Seeded unions of 2 or 3 random graphs, at most 10 vertices in all."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        parts = rng.randint(2, 3)
        g = Graph(0)
        for _ in range(parts):
            h = random_graph(rng, rng.randint(2, 10 // parts), rng.choice((0.3, 0.5, 0.8)))
            g = disjoint_union(g, h)
        if not (isolate_free and g.has_isolated_vertex()):
            out.append(g)
    return out


def test_alpha_examples(c5):
    assert solvers.alpha(complete_graph(5))[0] == 1
    assert solvers.alpha(c5)[0] == 2  # frozen from the 32-subset sweep
    assert solvers.alpha(Graph(6))[0] == 6


def test_alpha_witness(c5):
    size, witness = solvers.alpha(c5)
    assert c5.is_independent(witness)
    assert witness.bit_count() == size


def test_gamma_examples(c4, star4):
    for n in range(1, 7):
        assert solvers.gamma(complete_graph(n))[0] == 1
    assert solvers.gamma(c4)[0] == 2
    size, witness = solvers.gamma(star4)
    assert size == 1 and witness == 1 << 0


def test_enumerate_min_dominating_sets(c4, k3, k1):
    assert solvers.enumerate_min_dominating_sets(c4) == sorted(
        mask_of(p) for p in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
    )
    assert solvers.enumerate_min_dominating_sets(k3) == [1, 2, 4]
    assert solvers.enumerate_min_dominating_sets(k1) == [1]


def test_enumeration_is_increasing_and_restartable(c4):
    seq = solvers.enumerate_min_dominating_sets(c4)
    assert seq == sorted(seq)
    assert seq == solvers.enumerate_min_dominating_sets(c4)


def test_enumeration_matches_the_oracle(corpus7):
    # FCpdo (n = 7, gamma = 2) reaches a larger cover before its gamma-sets
    graphs = [g for n in range(1, 7) for g in corpus7[n]] + [parse_graph6("FCpdo")]
    for g in graphs:
        assert solvers.enumerate_min_dominating_sets(g) == naive.min_dominating_sets_naive(g)


@pytest.mark.parametrize("seed", range(12))
def test_enumeration_matches_brute_force_on_random_graphs(seed):
    rng = random.Random(seed)
    g = random_graph(rng, 10 + seed % 5, rng.choice((0.2, 0.3, 0.45)))
    k = solvers.gamma(g)[0]
    brute = sorted(
        d for d in map(mask_of, combinations(range(g.n), k)) if g.is_dominating(d)
    )
    assert solvers.enumerate_min_dominating_sets(g) == brute


@pytest.mark.parametrize("t", range(7))
def test_padded_c5_has_5_times_2_to_the_t_gamma_sets(t, c5):
    assert len(solvers.enumerate_min_dominating_sets(pad_with_k2(c5, t))) == 5 * 2 ** t


def test_min_dominating_within(c4, star4, k2):
    assert solvers.min_dominating_within(c4, mask_of((1, 3))) == (2, mask_of((1, 3)))
    leaves = mask_of((1, 2, 3, 4))
    assert solvers.min_dominating_within(star4, leaves) == (4, leaves)
    assert solvers.min_dominating_within(k2, 0) is None


def test_inverse_gamma_examples(c4, star4):
    for n in range(2, 7):
        assert solvers.inverse_gamma(complete_graph(n))[0] == 1
    value, cert = solvers.inverse_gamma(star4)
    assert value == 4
    assert cert.d_set == 1 << 0 and cert.t_set == mask_of((1, 2, 3, 4))
    assert solvers.inverse_gamma(c4)[0] == 2


def test_inverse_gamma_certificate_shape(c4):
    value, cert = solvers.inverse_gamma(c4)
    assert cert.bound_kind == "exact" and cert.bound_value == value
    assert not cert.d_set & cert.t_set
    assert c4.is_dominating(cert.d_set) and c4.is_dominating(cert.t_set)


def test_inverse_gamma_rejects_isolates():
    with pytest.raises(HasIsolates):
        solvers.inverse_gamma(Graph(3, [(0, 1)]))
    with pytest.raises(HasIsolates):
        solvers.strong_inverse_gamma(Graph(1))


def test_strong_inverse_gamma(c4, c5):
    for n in range(2, 7):
        assert solvers.strong_inverse_gamma(complete_graph(n)) == 1
    assert solvers.strong_inverse_gamma(c4) == 2
    # frozen from the exhaustive oracle
    assert naive.strong_inverse_gamma_naive(c5) == 2
    assert solvers.strong_inverse_gamma(c5) == 2


def test_inverse_chain_inequalities(corpus7):
    for g in corpus7[6]:
        if g.has_isolated_vertex():
            continue
        inv = solvers.inverse_gamma(g)[0]
        strong = solvers.strong_inverse_gamma(g)
        assert inv <= strong <= g.n - solvers.gamma(g)[0]


def _inverse_pass_reference(g: Graph) -> tuple[int, tuple[int, int], int]:
    """Unthresholded pass: a full search on every gamma-set, in bitmask order."""
    sizes = []
    for d in solvers.enumerate_min_dominating_sets(g):
        size, t_mask = solvers.min_dominating_within(g, g.full & ~d)
        sizes.append((size, d, t_mask))
    size, d, t_mask = min(sizes, key=lambda entry: entry[0])  # the first least
    return size, (d, t_mask), max(entry[0] for entry in sizes)


def test_inverse_pass_matches_the_per_set_reference(c5, corpus7):
    # corpus7 fills the all_graphs cache that gamma5_corpus draws its bases from
    rng = random.Random(9)
    graphs = []
    while len(graphs) < 12:
        g = random_graph(rng, rng.randint(12, 20), rng.choice((0.15, 0.25, 0.4)))
        if not g.has_isolated_vertex():
            graphs.append(g)
    graphs += [pad_with_k2(c5, t) for t in range(7)]
    graphs += gamma5_corpus(1)[::12]  # 20 graphs across its families
    for g in graphs:
        size, cert, strong = solvers.inverse_pass(g)
        assert (size, (cert.d_set, cert.t_set), strong) == _inverse_pass_reference(g)
    for g in disjoint_unions(4, 10, isolate_free=True):
        assert len(g.components()) >= 2
        size, cert, strong = solvers.inverse_pass(g)
        assert (size, (cert.d_set, cert.t_set), strong) == _inverse_pass_reference(g)
        assert (size, strong) == (naive.inverse_gamma_naive(g), naive.strong_inverse_gamma_naive(g))


@pytest.mark.parametrize("line", ["HEg??GE", "HU???WI", "O???ECO?@GCAC?agG?QP@"])
def test_split_witnesses_are_unions_of_the_parts(line):
    # In each, one part's greedy cover is least and another's is not, so the
    # union of the parts' first least covers is not the first least cover of
    # one search over the whole graph.  No graph with n <= 8 shows this.  The
    # first two have 9 vertices and differ in gamma's witness; the last, a
    # random_mid graph, also differs in the T of its inverse certificate.
    g = parse_graph6(line)
    assert len(g.components()) == 2
    covers = solvers._domination_covers(g)
    gamma_join = t_join = 0
    for part in g.components():
        gamma_join |= solvers._gamma_part(covers, part)[1]
        t_join |= solvers._inverse_part(covers, part)[1]
    size, witness = solvers.gamma(g)
    assert witness == gamma_join
    assert witness != solvers._gamma_part(covers, g.full)[1]
    assert witness.bit_count() == size and g.is_dominating(witness)
    cert = solvers.inverse_pass(g)[1]
    assert cert.t_set == t_join
    assert check_inverse_certificate(g, cert, size) == []
    assert harness.check_component_split(g) == []


def test_max_induced_bipartite(c4, c5, k4):
    assert solvers.max_induced_bipartite(c4)[0] == 4
    assert solvers.max_induced_bipartite(k4)[0] == 2
    size, witness = solvers.max_induced_bipartite(c5)
    assert size == 4 and c5.is_bipartite_subset(witness)


def _sides_cases():
    # BO is one edge plus an isolated vertex; C5 + t*K2 has b = n - 1, alpha = 2 + t
    yield pytest.param(parse_graph6("BO"), (2, 3), id="BO")
    for t in range(5):
        g = pad_with_k2(cycle_graph(5), t)
        yield pytest.param(g, (2 + t, g.n - 1), id=f"C5+{t}K2")
    for seed in range(12):
        rng = random.Random(seed)
        g = random_graph(rng, 10 + seed % 4, rng.choice((0.2, 0.3, 0.45)))
        yield pytest.param(g, None, id=f"gnp-{seed}")
    for i, g in enumerate(disjoint_unions(3, 8)):
        yield pytest.param(g, None, id=f"union-{i}")


@pytest.mark.parametrize("g, closed_form", _sides_cases())
def test_alpha_and_b_match_the_oracles(g, closed_form):
    a, b = naive.alpha_naive(g)[0], naive.b_naive(g)
    assert closed_form in (None, (a, b))
    assert solvers.alpha(g)[0] == a
    size, witness = solvers.max_induced_bipartite(g)
    assert size == b and witness.bit_count() == b and g.is_bipartite_subset(witness)
    rng = random.Random(g.n)
    for allowed in [rng.getrandbits(g.n) for _ in range(4)]:
        size, witness = solvers.alpha_within(g, allowed)
        assert witness & ~allowed == 0 and witness.bit_count() == size and g.is_independent(witness)
        subsets = (s for s in range(1 << g.n) if not s & ~allowed and g.is_independent(s))
        assert size == max(s.bit_count() for s in subsets)


def _largest_split(g: Graph, cand_a: int, cand_b: int) -> int:
    """Largest |A| + |B| over disjoint independent A <= cand_a, B <= cand_b,
    by trying every A."""
    inside: dict[int, int] = {0: 0}  # largest independent subset of each mask

    def independent_within(mask: int) -> int:
        if mask not in inside:
            low = mask & -mask
            v = low.bit_length() - 1
            inside[mask] = max(
                independent_within(mask ^ low), 1 + independent_within(mask & ~g.adj[v] & ~low)
            )
        return inside[mask]

    return max(
        a.bit_count() + independent_within(cand_b & ~a)
        for a in range(1 << g.n)
        if not a & ~cand_a and g.is_independent(a)
    )


@pytest.mark.parametrize("seed", range(6))
def test_side_loss_is_a_sound_bound(seed):
    """No split of the candidates into two independent sides keeps more than
    |cand_a | cand_b| - loss vertices; one side (cand_b = 0) is alpha's case."""
    rng = random.Random(seed)
    for _ in range(12):
        g = random_graph(rng, rng.randint(3, 9), rng.choice((0.3, 0.5, 0.7)))
        for _ in range(6):
            cand_a = rng.getrandbits(g.n)
            cand_b = rng.choice((0, cand_a, rng.getrandbits(g.n), cand_a | rng.getrandbits(g.n)))
            loss = solvers._side_loss(g.adj, cand_a, cand_b)
            assert 0 <= loss
            assert _largest_split(g, cand_a, cand_b) <= (cand_a | cand_b).bit_count() - loss


def test_side_loss_counts_a_matching_and_disjoint_triangles():
    k4 = complete_graph(4)
    assert solvers._side_loss(k4.adj, k4.full, 0) == 2  # two disjoint edges, one side
    assert solvers._side_loss(k4.adj, k4.full, k4.full) == 1  # one triangle, two sides
    # K4 split as {0, 1} on A only and {2, 3} on B only: one edge inside each
    assert solvers._side_loss(k4.adj, 0b0011, 0b1100) == 2


def test_optimal_dominating_set_c4(c4):
    cert = solvers.optimal_dominating_set(c4)
    assert cert.size == 2 and cert.alpha_of_d == 2 and cert.induced_edges == 0
    assert cert.d_set == mask_of((0, 2))  # smallest bitmask among the ties
    assert cert.isolate_count == 2


def test_optimal_dominating_set_k4(k4):
    cert = solvers.optimal_dominating_set(k4)
    assert cert.size == 1 and cert.alpha_of_d == 1 and cert.induced_edges == 0


def test_optimal_dominating_set_p4(p4):
    cert = solvers.optimal_dominating_set(p4)
    assert cert.size == 2 and cert.alpha_of_d == 2
    # {1,2} is minimum but loses on induced independence
    assert cert.d_set != mask_of((1, 2))


def test_optimal_key_is_minimal(corpus7):
    """No minimum dominating set beats the certificate's ranking key."""
    for g in corpus7[5]:
        cert = solvers.optimal_dominating_set(g)
        key = (-cert.alpha_of_d, cert.induced_edges, cert.d_set)
        for d in solvers.enumerate_min_dominating_sets(g):
            other = (-solvers.alpha_within(g, d)[0], g.induced_edge_count(d), d)
            assert key <= other


def test_empty_graph_edge_cases():
    g = Graph(0)
    assert solvers.gamma(g) == (0, 0)
    assert solvers.alpha(g) == (0, 0)
    assert solvers.enumerate_min_dominating_sets(g) == [0]
    assert solvers.min_dominating_within(g, 0) == (0, 0)
    assert solvers.inverse_pass(g)[0::2] == (0, 0)
    assert solvers.max_induced_bipartite(g) == (0, 0)
