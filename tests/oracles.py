"""Brute-force oracles that only tests use.

``haxell_condition`` is Haxell's sufficient condition for an independent
transversal, checked here as a property of ``find_isr``.  Everything here
tries every subset, so keep the cells small.
"""

from itertools import combinations
from typing import Sequence

from invdom.graph import Graph, bits, mask_of


def gamma_induced(g: Graph, sub: int) -> int:
    """Domination number of the induced subgraph G[sub], by trying every subset."""
    vertices = list(bits(sub))
    for k in range(len(vertices) + 1):
        for d in combinations(vertices, k):
            if not sub & ~g.closed_neighborhood(mask_of(d)):
                return k
    raise AssertionError("sub dominates itself")


def haxell_condition(g: Graph, cells: Sequence[int]) -> tuple[int, ...] | None:
    """Check gamma(G[V_S]) >= 2|S| - 1 for every index subset S.

    Returns None when the condition holds (an independent transversal is
    then guaranteed to exist), otherwise the first violating index set in
    increasing-bitmask order, as a tuple of 0-based cell indices.
    """
    for s_mask in range(1, 1 << len(cells)):
        union = 0
        for i in bits(s_mask):
            union |= cells[i]
        if gamma_induced(g, union) < 2 * s_mask.bit_count() - 1:
            return tuple(bits(s_mask))
    return None
