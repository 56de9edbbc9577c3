"""Immutable bitmask graphs and vertex-set algebra.

Vertices are dense integers 0..n-1 with n <= 64.  A vertex set is a plain
int bitmask; adjacency is a tuple of per-vertex neighbor masks.  All
operations are pure, so graphs and masks can be shared freely across
workers.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import TooLarge

MAX_VERTICES = 64


def bits(mask: int) -> Iterator[int]:
    """Yield the vertex ids set in ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with the given vertex ids set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def to_sorted(mask: int) -> list[int]:
    """Vertex ids of ``mask`` as a sorted list (for display / JSON)."""
    return list(bits(mask))


class Graph:
    """Simple undirected graph as a symmetric adjacency bit-matrix.

    Immutable after construction: ``adj[v]`` is the neighbor mask of ``v``,
    the diagonal is empty, and ``full`` is the all-vertices mask.  The
    connected components are computed on first use and kept.

    ``__init__`` is the one validator (at most 64 vertices, no loops, edges
    inside 0..n-1); only ``generate.all_graphs`` and ``disjoint_union`` set
    ``adj`` after it, from rows symmetric and loop-free by construction.
    """

    __slots__ = ("n", "adj", "full", "_components")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 0 <= n <= MAX_VERTICES:
            raise TooLarge(f"vertex count {n} outside 0..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)
        self.full = (1 << n) - 1
        self._components = None

    # -- basic accessors ---------------------------------------------------

    def check_subset(self, s: int) -> None:
        if s & ~self.full:
            raise ValueError(f"mask {s:#x} has vertices outside 0..{self.n - 1}")

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in bits(self.adj[v] >> (v + 1)):
                yield (v, v + 1 + u)

    # -- neighborhoods and predicates ---------------------------------------

    def open_neighborhood(self, s: int) -> int:
        """N(s): union of neighbor masks (may intersect s)."""
        adj = self.adj
        out = 0
        while s:
            low = s & -s
            s ^= low
            out |= adj[low.bit_length() - 1]
        return out

    def closed_neighborhood(self, s: int) -> int:
        """N[s] = s together with every neighbor of a member."""
        return s | self.open_neighborhood(s)

    def is_dominating(self, s: int) -> bool:
        return self.closed_neighborhood(s) == self.full

    def is_independent(self, s: int) -> bool:
        adj = self.adj
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            if adj[low.bit_length() - 1] & s:
                return False
        return True

    def private_neighbors(self, d_set: int, v: int) -> int:
        """Vertices outside d_set whose only d_set-neighbor is ``v``."""
        vb = 1 << v
        if not d_set & vb:
            raise ValueError(f"vertex {v} not in the dominating set")
        adj = self.adj
        out = 0
        rest = self.full & ~d_set
        while rest:
            low = rest & -rest
            rest ^= low
            if adj[low.bit_length() - 1] & d_set == vb:
                out |= low
        return out

    def induced_isolates(self, s: int) -> int:
        """Members of s with no neighbor inside s."""
        adj = self.adj
        out = 0
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            if not adj[low.bit_length() - 1] & s:
                out |= low
        return out

    def induced_edge_count(self, s: int) -> int:
        adj = self.adj
        ends = 0
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            ends += (adj[low.bit_length() - 1] & s).bit_count()
        return ends // 2

    def is_clique(self) -> bool:
        return all(self.adj[v] | (1 << v) == self.full for v in range(self.n))

    def components(self) -> tuple[int, ...]:
        """Vertex masks of the connected components, lowest vertex first.

        Every closed neighborhood lies inside one component, so a search
        over the masks of one component solves the subgraph it induces.
        Computed once per graph; the empty graph has none.
        """
        if self._components is None:
            parts = []
            rest = self.full
            while rest:
                part = todo = rest & -rest
                while todo:  # each vertex of the part passes through todo once
                    low = todo & -todo
                    todo ^= low
                    new = self.adj[low.bit_length() - 1] & ~part
                    part |= new
                    todo |= new
                parts.append(part)
                rest &= ~part
            self._components = tuple(parts)
        return self._components

    def has_isolated_vertex(self) -> bool:
        return 0 in self.adj

    def is_bipartite_subset(self, s: int) -> bool:
        """True iff the subgraph induced by s has no odd cycle."""
        adj = self.adj
        rest = s
        while rest:
            v = rest & -rest
            side_a, side_b = v, 0
            frontier, on_a = v, True
            while frontier:
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    nxt |= adj[low.bit_length() - 1]
                nxt &= s & ~(side_a | side_b)
                if on_a:
                    side_b |= nxt
                else:
                    side_a |= nxt
                frontier, on_a = nxt, not on_a
            if not (self.is_independent(side_a) and self.is_independent(side_b)):
                return False
            rest &= ~(side_a | side_b)
        return True

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union with h's vertices shifted up by g.n."""
    out = Graph(g.n + h.n)
    out.adj = tuple(list(g.adj) + [row << g.n for row in h.adj])
    return out
