"""Graph primitives: neighborhoods, predicates, private neighbors, unions,
connected components."""

import pytest

from invdom.errors import TooLarge
from invdom.generate import all_graphs, cycle_graph, pad_with_k2
from invdom.graph import Graph, bits, disjoint_union, mask_of, to_sorted

import oracles


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(TooLarge):
        Graph(65)


def test_mask_helpers():
    assert mask_of((0, 2, 5)) == 0b100101
    assert list(bits(0b100101)) == [0, 2, 5]
    assert to_sorted(0) == []


def test_closed_neighborhood_c4(c4):
    assert c4.closed_neighborhood(1 << 0) == mask_of((3, 0, 1))
    assert c4.closed_neighborhood(0) == 0


def test_closed_neighborhood_k4(k4):
    assert k4.closed_neighborhood(1 << 2) == k4.full


def test_is_dominating(c4):
    assert c4.is_dominating(mask_of((0, 2)))
    assert not c4.is_dominating(1 << 0)
    assert Graph(0).is_dominating(0)  # vacuous


def test_is_independent(c4, k3):
    assert c4.is_independent(mask_of((0, 2)))
    assert not k3.is_independent(mask_of((0, 1)))
    assert c4.is_independent(0)


def test_private_neighbors_star(star4):
    assert star4.private_neighbors(1 << 0, 0) == mask_of((1, 2, 3, 4))


def test_private_neighbors_c4(c4):
    # both outside vertices see both members of {0,2}
    assert c4.private_neighbors(mask_of((0, 2)), 0) == 0


def test_private_neighbors_p4(p4):
    assert p4.private_neighbors(mask_of((1, 2)), 1) == 1 << 0


def test_private_neighbors_requires_membership(c4):
    with pytest.raises(ValueError, match="vertex 1 not in the dominating set"):
        c4.private_neighbors(mask_of((0, 2)), 1)


def test_induced_isolates(c4, k2, p4):
    assert c4.induced_isolates(mask_of((0, 2))) == mask_of((0, 2))
    assert k2.induced_isolates(mask_of((0, 1))) == 0
    assert p4.induced_isolates(mask_of((0, 1, 3))) == 1 << 3


def test_utility_predicates(k2):
    assert oracles.complete_graph(5).is_clique()
    assert not Graph(3, [(0, 1)]).is_clique()
    assert disjoint_union(Graph(1), k2).has_isolated_vertex()
    assert not k2.has_isolated_vertex()


def test_disjoint_union_two_k2(k2):
    g = disjoint_union(k2, k2)
    assert g.n == 4
    assert sorted(g.edges()) == [(0, 1), (2, 3)]
    with pytest.raises(TooLarge):
        disjoint_union(Graph(40), Graph(40))


def test_is_bipartite_subset(c4, c5, k4):
    assert c4.is_bipartite_subset(c4.full)
    assert not c5.is_bipartite_subset(c5.full)
    assert c5.is_bipartite_subset(c5.full & ~1)
    assert not k4.is_bipartite_subset(mask_of((0, 1, 2)))
    assert k4.is_bipartite_subset(mask_of((0, 1)))


def test_equality_and_hash(c4):
    from invdom.generate import cycle_graph

    assert c4 == cycle_graph(4)
    assert hash(c4) == hash(cycle_graph(4))
    assert c4 != Graph(4)


def test_components_match_the_union_find_oracle(corpus7):
    for n in range(1, 7):
        for g in corpus7[n]:
            assert list(g.components()) == oracles.components(g)


def test_components_come_lowest_vertex_first():
    # vertex 0 joins 4, 1 joins 3, 2 is alone: parts {0,4}, {1,3}, {2}
    g = Graph(5, [(0, 4), (1, 3)])
    assert g.components() == (mask_of((0, 4)), mask_of((1, 3)), 1 << 2)
    assert Graph(0).components() == ()
    assert cycle_graph(5).components() == (cycle_graph(5).full,)


def test_components_are_fresh_on_every_built_graph(k2):
    assert k2.components() == (k2.full,)  # memoised before k2 is reused below
    assert Graph(3, [(0, 1)]).components() == (0b11, 0b100)
    one_edge = next(g for g in all_graphs(3) if g.m == 1)  # whichever labelling all_graphs gives it
    assert list(one_edge.components()) == oracles.components(one_edge)
    assert disjoint_union(k2, oracles.path_graph(3)).components() == (0b11, 0b11100)
    padded = pad_with_k2(cycle_graph(5), 2)
    assert padded.components() == (0b11111, 0b1100000, 0b110000000)


def test_memoised_components_leave_equality_and_hash_alone():
    g, h = cycle_graph(6), cycle_graph(6)
    g.components()
    assert g == h and hash(g) == hash(h)
    assert {g: 1}[h] == 1
