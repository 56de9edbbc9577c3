"""Exhaustive-sweep oracles for cross-checking the branch-and-bound solvers.

Everything here iterates all 2^n subsets, so keep n at 7 or below.  These
are deliberately independent implementations: no code shared with
``solvers`` beyond the primitive Graph operations.
"""

from __future__ import annotations

from .errors import HasIsolates
from .graph import Graph


def alpha_naive(g: Graph) -> tuple[int, int]:
    best, best_mask = 0, 0
    for s in range(1 << g.n):
        if s.bit_count() > best and g.is_independent(s):
            best, best_mask = s.bit_count(), s
    return best, best_mask


def gamma_naive(g: Graph) -> tuple[int, int]:
    best, best_mask = g.n, g.full
    for s in range(1 << g.n):
        if s.bit_count() < best and g.is_dominating(s):
            best, best_mask = s.bit_count(), s
    return best, best_mask


def min_dominating_sets_naive(g: Graph) -> list[int]:
    k = gamma_naive(g)[0]
    return [s for s in range(1 << g.n) if s.bit_count() == k and g.is_dominating(s)]


def _least_disjoint_sizes(g: Graph) -> list[int]:
    """For each minimum dominating set D, the least size of a dominating set
    disjoint from D, by direct search over all disjoint pairs (D, T)."""
    if g.has_isolated_vertex():
        raise HasIsolates("undefined on graphs with isolates")
    doms = [s for s in range(1 << g.n) if g.is_dominating(s)]
    k = min(s.bit_count() for s in doms)
    return [min(t.bit_count() for t in doms if not t & d) for d in doms if d.bit_count() == k]


def inverse_gamma_naive(g: Graph) -> int:
    return min(_least_disjoint_sizes(g))


def strong_inverse_gamma_naive(g: Graph) -> int:
    return max(_least_disjoint_sizes(g))


def b_naive(g: Graph) -> int:
    best = 0
    for s in range(1 << g.n):
        if s.bit_count() > best and g.is_bipartite_subset(s):
            best = s.bit_count()
    return best
