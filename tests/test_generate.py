"""The exhaustive generator and its canonical form.

``all_graphs`` is pinned graph6 line by graph6 line, so a change to how
it prunes cannot silently change which representative a class gets or
the order of the corpus.  ``canonical_form`` is checked against the
brute-force oracles in ``oracles.py`` on every graph with n <= 6 and on
seeded relabellings of each; isomorphism and |Aut(G)| do not change under
relabelling, so the oracles run once per class.  Its output itself, keys
and automorphisms in the order found, is pinned for n <= 7 and on a
sample of n = 8, and beyond the pins on six symmetric graphs of 10 to 64
vertices by relabelling and by their automorphism groups.  ``_refine`` is
checked against the plain refinement ``oracles.refine`` with every class
fresh, with only the two halves of an individualized cell fresh, with only
the individualized vertex fresh, and as ``canonical_form`` runs it: the
first round split by the vertex's neighborhood, then the non-neighbor
pieces fresh.  The work of a cold ``all_graphs(7)`` is pinned as call
counts, so a keyed round brought back per child shows up.
"""

import hashlib
import random

import pytest

from invdom import generate
from invdom.generate import all_graphs, canonical_form
from invdom.graph import Graph, bits
from invdom.graph6 import write_graph6

import oracles

# SHA-256 of the graph6 lines of all_graphs(1), ..., all_graphs(7), in order, joined by "\n"
ALL_GRAPHS_SHA256 = "ebc1aa37ba4bc59466c49b5b787c5448b591396e8f7605a973504dee79f94610"
# number of isomorphism classes of graphs on n vertices, n = 0..7
CLASSES = (1, 1, 2, 4, 11, 34, 156, 1044)
# SHA-256 of repr(canonical_form(g)) for every graph of _classes(1), ..., _classes(7), in order, joined by "\n"
CANONICAL_FORM_SHA256 = "54c436923a9dfcdb9a81b767b7845aec5116c57f5e82d2e323fe01c13ca8551b"
# SHA-256 of repr(canonical_form(g)) for every graph of _sample(8), in order, joined by "\n"
CANONICAL_FORM_8_SHA256 = "48ad694531aa74da604fc648511599b9d573a9e3fe3a0d34dd02fe85f0a8aa11"


def test_all_graphs_output_is_pinned():
    assert tuple(len(all_graphs(n)) for n in range(8)) == CLASSES
    lines = [write_graph6(g) for n in range(1, 8) for g in all_graphs(n)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == ALL_GRAPHS_SHA256


def test_all_graphs_puts_each_graph_through_canonical_form_once(monkeypatch):
    """A parent's automorphisms are the ones found when it was kept as a
    child, so from a cold cache no graph goes through canonical_form twice."""
    seen = []
    monkeypatch.setattr(generate, "_ALL_GRAPHS", {})
    monkeypatch.setattr(generate, "canonical_form", lambda g: seen.append(g) or canonical_form(g))
    all_graphs(6)
    assert len(seen) == len(set(seen)) > 0


def _classes(n: int, copies: int = 3) -> list[list[Graph]]:
    """Per graph of all_graphs(n): the graph and ``copies`` seeded random relabellings."""
    rng = random.Random(n)
    out = []
    for g in all_graphs(n):
        labellings = [g]
        for _ in range(copies):
            p = list(range(n))
            rng.shuffle(p)
            labellings.append(Graph(n, [(p[u], p[v]) for u, v in g.edges()]))
        out.append(labellings)
    return out


def _sample(n: int, step: int = 20, copies: int = 2) -> list[Graph]:
    """Every ``step``-th graph of all_graphs(n), each followed by ``copies``
    seeded random relabellings."""
    rng = random.Random(n)
    out = []
    for g in all_graphs(n)[::step]:
        out.append(g)
        for _ in range(copies):
            p = list(range(n))
            rng.shuffle(p)
            out.append(Graph(n, [(p[u], p[v]) for u, v in g.edges()]))
    return out


def _group_order(n: int, generators: list[tuple[int, ...]]) -> int:
    """Order of the permutation group the generators generate, by closure."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        a = frontier.pop()
        for p in generators:
            b = tuple(p[v] for v in a)
            if b not in group:
                group.add(b)
                frontier.append(b)
    return len(group)


def _masks(colors: list[int]) -> list[int]:
    """The class masks of a dense coloring, by color."""
    masks = [0] * (max(colors) + 1)
    for v, c in enumerate(colors):
        masks[c] |= 1 << v
    return masks


def _split_by(adj: tuple[int, ...], masks: list[int], v: int) -> tuple[list[int], list[int]]:
    """The first round after individualizing v, as ``canonical_form`` runs
    it: each class splits into its non-neighbors of v, then its neighbors,
    and the non-neighbor pieces are fresh."""
    split, fresh = [], []
    for cell in masks:
        inside = cell & adj[v]
        if inside and inside != cell:
            split += [cell ^ inside, inside]
            fresh.append(cell ^ inside)
        else:
            split.append(cell)
    return split, fresh


@pytest.mark.parametrize("n", range(1, 7))
def test_refine_matches_the_reference_refinement(n):
    """From the unit coloring and from each one-vertex individualization of
    its refinement, as ``canonical_form`` individualizes, ``_refine`` gives
    the reference's coloring, and that coloring is equitable.  An
    individualized coloring is refined four ways: with every class fresh;
    with ``{v}`` and the rest of its cell fresh; with only ``{v}`` fresh,
    the last piece of its split left out; and as ``canonical_form`` does
    it, the first round split by v's neighborhood and ``_refine`` called
    with the non-neighbor pieces fresh, or not called if no class split."""
    for g in all_graphs(n):
        start = [0] * n
        stable = oracles.refine(g.adj, n, start)
        runs = [(start, _masks(start), None)]
        for v in range(n):
            if stable.count(stable[v]) > 1:
                colors = [c + (c > stable[v] or (c == stable[v] and u != v)) for u, c in enumerate(stable)]
                masks = _masks(colors)
                halves = masks[stable[v]:stable[v] + 2]
                runs += [(colors, masks, None), (colors, masks, halves), (colors, masks, [1 << v])]
                runs.append((colors, *_split_by(g.adj, masks, v)))
        for colors, start_masks, fresh in runs:
            expected = _masks(oracles.refine(g.adj, n, colors))
            if fresh == []:  # no class split: canonical_form takes the split as stable
                masks = start_masks
            else:
                masks = generate._refine(g.adj, n, start_masks, fresh)
            assert masks == expected, write_graph6(g)
            for cell in masks:
                counts = {tuple((g.adj[v] & other).bit_count() for other in masks) for v in bits(cell)}
                assert len(counts) == 1, write_graph6(g)


@pytest.mark.parametrize("n", range(1, 7))
def test_canonical_form_keys_agree_with_isomorphism(n):
    classes = _classes(n)
    forms = [oracles.canonical_form(labellings[0]) for labellings in classes]
    # all_graphs(n) holds one graph of every class: as many as there are, no two isomorphic
    assert len(set(forms)) == len(classes) == CLASSES[n]
    # copies of one class are isomorphic by construction; same key iff same class
    pairs = {(canonical_form(g)[0], form) for labellings, form in zip(classes, forms) for g in labellings}
    assert len(pairs) == len({key for key, _ in pairs}) == len(classes)


@pytest.mark.parametrize("n", range(1, 7))
def test_canonical_form_automorphisms_generate_the_whole_group(n):
    for labellings in _classes(n):
        order = len(oracles.automorphisms(labellings[0]))
        for g in labellings:
            _, autos = canonical_form(g)
            for p in autos:
                assert sorted(p) == list(range(n))
                assert all(g.adj[p[u]] >> p[v] & 1 == g.adj[u] >> v & 1 for u in range(n) for v in range(n))
            assert _group_order(n, autos) == order, write_graph6(g)


def test_canonical_form_output_is_pinned():
    """The keys and the automorphisms, in the order found, on every graph
    with n <= 7 and three relabellings of each: a faster search must
    reach the same leaves in the same order."""
    lines = [repr(canonical_form(g)) for n in range(1, 8) for labellings in _classes(n) for g in labellings]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CANONICAL_FORM_SHA256


def test_canonical_form_output_is_pinned_at_eight_vertices():
    """As above on every 20th graph on 8 vertices and two relabellings of
    each: at n = 8 refinement has the most classes to key against."""
    lines = [repr(canonical_form(g)) for g in _sample(8)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CANONICAL_FORM_8_SHA256


def _cycle_product(a: int, b: int) -> Graph:
    """The Cartesian product C_a x C_b, vertex (i, j) numbered i * b + j."""
    edges = []
    for i in range(a):
        for j in range(b):
            edges += [(i * b + j, (i + 1) % a * b + j), (i * b + j, i * b + (j + 1) % b)]
    return Graph(a * b, edges)


def _hypercube(d: int) -> Graph:
    return Graph(1 << d, [(u, u | 1 << i) for u in range(1 << d) for i in range(d) if not u >> i & 1])


# name -> (graph, |Aut|, or None where closing the group by brute force is too slow)
SYMMETRIC = {
    "petersen": (
        Graph(10, [(i, (i + 1) % 5) for i in range(5)]
              + [(i, i + 5) for i in range(5)]
              + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
        120,
    ),
    "q4": (_hypercube(4), 384),
    "c6xc6": (_cycle_product(6, 6), 288),
    "paley13": (Graph(13, [(u, v) for u in range(13) for v in range(u + 1, 13) if (v - u) % 13 in {1, 3, 4, 9, 10, 12}]), 78),
    "q6": (_hypercube(6), None),
    "c8xc8": (_cycle_product(8, 8), None),
}


@pytest.mark.parametrize("name", SYMMETRIC)
def test_canonical_form_on_symmetric_graphs(name):
    """Past the pins, on graphs whose search trees are deep and wide: the
    key survives two seeded relabellings, every permutation returned is an
    automorphism, and where the group is small enough to close, the
    generators give all of it."""
    g, order = SYMMETRIC[name]
    n = g.n
    key, autos = canonical_form(g)
    rng = random.Random(name)
    for _ in range(2):
        p = list(range(n))
        rng.shuffle(p)
        assert canonical_form(Graph(n, [(p[u], p[v]) for u, v in g.edges()]))[0] == key
    for p in autos:
        assert sorted(p) == list(range(n))
        assert all(g.adj[p[u]] == sum(1 << p[v] for v in bits(g.adj[u])) for u in range(n))
    if order is not None:
        assert _group_order(n, autos) == order


def test_all_graphs_work_is_pinned(monkeypatch):
    """A cold all_graphs(7) puts 5,759 children through canonical_form and
    refines 9,676 times: once per canonical form for the unit coloring, and
    once per explored child whose first round, split by the individualized
    vertex's neighborhood, split some class (29,541 with a keyed round per
    child)."""
    calls = {"canonical_form": 0, "_refine": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(generate, "_ALL_GRAPHS", {})
    monkeypatch.setattr(generate, "canonical_form", counted("canonical_form", canonical_form))
    monkeypatch.setattr(generate, "_refine", counted("_refine", generate._refine))
    all_graphs(7)
    assert calls == {"canonical_form": 5759, "_refine": 9676}
