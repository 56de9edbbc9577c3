"""Shared fixtures: named small graphs, session-cached corpora, a solver
memo emptied before each test, and a count of the independent-sides
searches."""

from __future__ import annotations

import pytest

from invdom import solvers
from invdom.generate import all_graphs, cycle_graph, star_graph
from invdom.graph import Graph
from oracles import complete_graph, path_graph


@pytest.fixture(autouse=True)
def no_held_results():
    """Each test starts with no solver results held, so a test that counts
    a search is not answered from a graph an earlier test asked about."""
    solvers._held = (None, {})


@pytest.fixture
def side_searches(monkeypatch):
    """Each independent-sides search the test makes, as (allowed, sides):
    one side for ``solvers._max_independent``, two for ``solvers._max_sides``."""
    searches = []
    max_independent = solvers._max_independent
    max_sides = solvers._max_sides

    def one_side(h, allowed):
        searches.append((allowed, 1))
        return max_independent(h, allowed)

    def two_sides(h, allowed, *args, **kwargs):
        searches.append((allowed, 2))
        return max_sides(h, allowed, *args, **kwargs)

    monkeypatch.setattr(solvers, "_max_independent", one_side)
    monkeypatch.setattr(solvers, "_max_sides", two_sides)
    return searches


@pytest.fixture
def k1():
    return Graph(1)


@pytest.fixture
def k2():
    return Graph(2, [(0, 1)])


@pytest.fixture
def k3():
    return complete_graph(3)


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def c4():
    return cycle_graph(4)


@pytest.fixture
def c5():
    return cycle_graph(5)


@pytest.fixture
def p4():
    return path_graph(4)


@pytest.fixture
def star4():
    """K_{1,4}: center 0, leaves 1..4."""
    return star_graph(4)


@pytest.fixture(scope="session")
def corpus7():
    """All non-isomorphic graphs with 1 <= n <= 7, keyed by order."""
    return {n: all_graphs(n) for n in range(1, 8)}

