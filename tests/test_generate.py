"""The exhaustive generator and its canonical form.

``all_graphs`` is pinned graph6 line by graph6 line, so a change to how
it prunes cannot silently change which representative a class gets or
the order of the corpus.  ``canonical_form`` is checked against the
brute-force oracles in ``oracles.py`` on every graph with n <= 6 and on
seeded relabellings of each; isomorphism and |Aut(G)| do not change under
relabelling, so the oracles run once per class.  Its output itself, keys
and automorphisms in the order found, is pinned for n <= 7 and on a
sample of n = 8, and ``_refine`` is checked against the plain refinement
``oracles.refine``, with every class fresh and with only the two halves of
an individualized cell fresh.
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


@pytest.mark.parametrize("n", range(1, 7))
def test_refine_matches_the_reference_refinement(n):
    """From the unit coloring and from each one-vertex individualization of
    its refinement, as ``canonical_form`` individualizes, ``_refine`` gives
    the reference's coloring, and that coloring is equitable.  An
    individualized coloring is refined twice: with every class fresh, and
    with only ``{v}`` and the rest of its cell fresh, as ``canonical_form``
    calls it."""
    for g in all_graphs(n):
        start = [0] * n
        stable = oracles.refine(g.adj, n, start)
        runs = [(start, None)]
        for v in range(n):
            if stable.count(stable[v]) > 1:
                colors = [c + (c > stable[v] or (c == stable[v] and u != v)) for u, c in enumerate(stable)]
                halves = [1 << v, _masks(stable)[stable[v]] ^ 1 << v]
                runs += [(colors, None), (colors, halves)]
        for colors, fresh in runs:
            expected = _masks(oracles.refine(g.adj, n, colors))
            masks = generate._refine(g.adj, n, _masks(colors), fresh)
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
