"""The exhaustive generator and its canonical form.

``all_graphs`` is pinned twice: by the sorted canonical keys of its
graphs, a pin of the class set that no relabelling moves, and graph6
line by graph6 line up to n = 8 (n = 9 is ``slow``), so a change to how
it prunes cannot silently change which representative a class gets or
the order of the corpus.  Every graph it generates is also the graph
``Graph.__init__`` builds from its edges, so a wrong row, which no graph6
line reads, shows up.  Its two cheap tests are checked against the full
orbit test on every child of every parent, and test 2, which reads its
first round off the parent, against refining the child to stable, the
coloring and rows it hands on included; ``canonical_form`` given that
coloring returns what it returns without it.  The half-width tables that
map attach masks are checked against mapping each mask vertex by vertex.
``canonical_form`` is checked against the brute-force oracles in
``oracles.py`` on every graph with n <= 6 and on seeded relabellings of
each; isomorphism and |Aut(G)| do not change under
relabelling, so the oracles run once per class.  Its output itself, keys
and automorphisms in the order found, is pinned for n <= 7 and on a
sample of n = 8, and beyond the pins on six symmetric graphs of 10 to 64
vertices by relabelling and by their automorphism groups.  ``_refine`` is
checked against the plain refinement ``oracles.refine`` with every class
fresh, with only the two halves of an individualized cell fresh, with only
the individualized vertex fresh, and as ``canonical_form`` runs it: the
first round split by the vertex's neighborhood, then the non-neighbor
pieces fresh.  The work of a cold ``all_graphs(7)`` is pinned as calls
of ``canonical_form``, ``_refine`` and the keyed round ``_round``, so a
search, a refinement or a keyed round brought back per child shows up.
The pin at n = 9 is a ``slow`` test, run with ``-m slow``.
"""

import hashlib
import random

import pytest

from invdom import generate
from invdom.generate import all_graphs, canonical_form
from invdom.graph import Graph, bits, mask_of
from invdom.graph6 import write_graph6

import oracles

# SHA-256 of the graph6 lines of all_graphs(1), ..., all_graphs(7), in order, joined by "\n"
ALL_GRAPHS_SHA256 = "ea663816bc86160be4ea828c5b57f7fc402bde46f92d0f6c589efc61603a3abc"
# SHA-256 of repr(key) for the sorted canonical_form keys of all_graphs(1), ..., all_graphs(7), joined by "\n"
CLASS_KEYS_SHA256 = "62700041589a679bf855cedef3843d0a711b9685c50a2b470f73e5d27ab2d191"
# SHA-256 of the graph6 lines of all_graphs(8), in order, joined by "\n"
ALL_GRAPHS_8_SHA256 = "a8f4cdd1b7335856a6e8fb43671e8879d542c294240fed8e2aeae6ec746dd848"
# the same for all_graphs(9)
ALL_GRAPHS_9_SHA256 = "fc1b43a9eaebeaa77241ab5407983ab1f23a3dc5ede055b4cb7ffb2891e49d68"
# number of isomorphism classes of graphs on n vertices, n = 0..8
CLASSES = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
# SHA-256 of repr(canonical_form(g)) for every graph of _classes(1), ..., _classes(7), in order, joined by "\n"
CANONICAL_FORM_SHA256 = "46ad60b98b30725d4d9667e8034ab2967c9c013ad198df58b27f2b8ea751b301"
# SHA-256 of repr(canonical_form(g)) for every graph of _sample(8), in order, joined by "\n"
CANONICAL_FORM_8_SHA256 = "a1d524d60139559f47cb97fd08a55d16b5b94b24bc359fe23c875c4f1bccdef2"


def _digest(graphs) -> str:
    return hashlib.sha256("\n".join(map(write_graph6, graphs)).encode()).hexdigest()


def test_all_graphs_output_is_pinned():
    """n = 8 on its own: it is the ``exhaustive8`` benchmark's corpus, whose
    per-graph figures depend on the representatives and their order."""
    assert tuple(len(all_graphs(n)) for n in range(len(CLASSES))) == CLASSES
    assert _digest(g for n in range(1, 8) for g in all_graphs(n)) == ALL_GRAPHS_SHA256
    assert _digest(all_graphs(8)) == ALL_GRAPHS_8_SHA256


def test_all_graphs_keeps_the_pinned_classes():
    """The classes as their sorted keys: a pin that holds under any choice
    of representatives and any order."""
    keys = sorted(canonical_form(g)[0] for n in range(1, 8) for g in all_graphs(n))
    assert hashlib.sha256("\n".join(map(repr, keys)).encode()).hexdigest() == CLASS_KEYS_SHA256


@pytest.mark.parametrize("n", range(1, 7))
def test_all_graphs_holds_no_two_isomorphic_graphs(n):
    forms = [oracles.canonical_form(g) for g in all_graphs(n)]
    assert len(set(forms)) == len(forms) == CLASSES[n]


def _assert_validated(graphs) -> None:
    """Each graph equals the one ``Graph.__init__`` builds from its edges,
    rows and vertex mask alike: ``all_graphs`` sets its rows itself."""
    for g in graphs:
        assert Graph(g.n, g.edges()) == g, write_graph6(g)
        assert g.full == (1 << g.n) - 1, write_graph6(g)


@pytest.mark.parametrize("n", range(len(CLASSES)))
def test_all_graphs_survive_the_validator(n):
    _assert_validated(all_graphs(n))


@pytest.mark.slow
def test_all_graphs_output_is_pinned_at_nine_vertices():
    assert len(all_graphs(9)) == 274668
    assert _digest(all_graphs(9)) == ALL_GRAPHS_9_SHA256
    _assert_validated(all_graphs(9))


@pytest.mark.parametrize("width", range(13))
def test_half_width_tables_map_every_mask(width):
    """On the identity and on seeded random permutations, the two tables
    of ``_mask_images`` give every mask below 1 << width the image of its
    vertices one by one: odd widths, 0 and 1 included."""
    rng = random.Random(width)
    perms = [list(range(width))]
    for _ in range(3):
        perms.append(rng.sample(range(width), width))
    half = (width + 1) // 2
    for p in perms:
        low, high = generate._mask_images(bytes(p), width)
        assert len(low) + len(high) == (1 << half) + (1 << width - half)
        for m in range(1 << width):
            assert low[m & (1 << half) - 1] | high[m >> half] == mask_of(p[v] for v in bits(m)), (p, m)


def _orbit_verdict(child: Graph) -> bool:
    """The keep rule in full: the new vertex lies in the Aut(child)-orbit of
    the last vertex of the order canonical_form returns."""
    _, autos, order = canonical_form(child)
    return bool(generate._closure(1 << order[-1], autos) >> child.n - 1 & 1)


def _test_2_reference(child: Graph) -> bool | list[int]:
    """Test 2 without its early exits: the unit coloring refined to stable
    by the plain refinement, and the verdict read off its last class."""
    n = child.n
    stable = _masks(oracles.refine(child.adj, n, [0] * n))
    v = 1 << n - 1
    if not stable[-1] & v:
        return False
    return True if stable[-1] == v else stable


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_the_cheap_tests_agree_with_the_orbit_test(n):
    """On every child on n vertices of every parent, every mask tried: test
    1 leaves a mask out exactly when the new vertex's degree is below the
    child's largest, and then the orbit test rejects it too; test 2, given
    the parent's degree classes and the mask, returns what refining the
    child to stable would, so its early exits neither leave open a child
    that refinement decides nor hand ``canonical_form`` another coloring,
    and where it decides, it decides as the orbit test does.  The rows it
    returns for a child it keeps or leaves open are the child's."""
    new = n - 1
    for parent in all_graphs(new):
        classes = [mask_of(v for v in range(new) if parent.adj[v].bit_count() == d) for d in range(new)]
        tried = set(generate._attach_masks(classes, ()))
        for attach in range(1 << new):
            child = Graph(n, [*parent.edges(), *((v, new) for v in bits(attach))])
            top = max(child.adj[v].bit_count() for v in range(n))
            assert (attach in tried) == (attach.bit_count() == top)
            verdict = False
            if attach in tried:
                settled = generate._settled(parent.adj, classes, attach)
                if settled is not None:
                    rows, root = settled
                    assert rows == child.adj, write_graph6(child)
                    verdict = True if root is None else root
                assert verdict == _test_2_reference(child), write_graph6(child)
            if isinstance(verdict, bool):
                assert verdict == _orbit_verdict(child), (write_graph6(child), verdict)


def test_all_graphs_puts_each_graph_through_canonical_form_once(monkeypatch):
    """A parent's automorphisms are the ones found when it was kept as a
    child, so from a cold cache no graph goes through canonical_form twice."""
    seen = []
    monkeypatch.setattr(generate, "_ALL_GRAPHS", {})
    monkeypatch.setattr(generate, "canonical_form", lambda g, root=None: seen.append(g) or canonical_form(g, root))
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
    # copies of one class are isomorphic by construction; same key iff same class
    pairs = {(canonical_form(g)[0], form) for labellings, form in zip(classes, forms) for g in labellings}
    assert len(pairs) == len({key for key, _ in pairs}) == len(classes)


@pytest.mark.parametrize("n", range(1, 7))
def test_canonical_form_automorphisms_generate_the_whole_group(n):
    for labellings in _classes(n):
        order = len(oracles.automorphisms(labellings[0]))
        for g in labellings:
            _, autos, _ = canonical_form(g)
            for p in autos:
                assert sorted(p) == list(range(n))
                assert all(g.adj[p[u]] >> p[v] & 1 == g.adj[u] >> v & 1 for u in range(n) for v in range(n))
            assert _group_order(n, autos) == order, write_graph6(g)


@pytest.mark.parametrize("n", range(1, 8))
def test_relabelling_by_the_returned_order_gives_the_key(n):
    for labellings in _classes(n, copies=1):
        for g in labellings:
            (size, code), _, order = canonical_form(g)
            assert sorted(order) == list(range(n))
            assert (size, code) == (n, oracles.relabelled_bits(g, order)), write_graph6(g)


def test_canonical_form_output_is_pinned():
    """The keys, the automorphisms in the order found and the least-code
    leaf's order, on every graph with n <= 7 and three relabellings of
    each: a faster search must reach the same leaves in the same order."""
    lines = [repr(canonical_form(g)) for n in range(1, 8) for labellings in _classes(n) for g in labellings]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CANONICAL_FORM_SHA256


def test_canonical_form_output_is_pinned_at_eight_vertices():
    """As above on every 20th graph on 8 vertices and two relabellings of
    each: at n = 8 refinement has the most classes to key against."""
    lines = [repr(canonical_form(g)) for g in _sample(8)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CANONICAL_FORM_8_SHA256


def test_canonical_form_from_the_root_coloring_is_unchanged():
    """Given the stable refinement of the unit coloring, as test 2 hands it
    over, canonical_form returns exactly what it returns without it."""
    graphs = [g for n in range(1, 8) for labellings in _classes(n) for g in labellings]
    for g in graphs + _sample(8):
        root = _masks(oracles.refine(g.adj, g.n, [0] * g.n))
        assert canonical_form(g, root) == canonical_form(g), write_graph6(g)


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
    key, autos, leaf = canonical_form(g)
    assert key == (n, oracles.relabelled_bits(g, leaf))
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
    """A cold all_graphs(7) runs 543 canonical forms, 442 on children the
    cheap tests leave open and 101 on parents that test 2 kept, and 1,914
    keyed rounds: 762 in test 2 on the 464 of the 1,640 children whose new
    vertex has the largest degree that its first round, read off the
    parent, leaves open, and 1,152 in the 873 refinements of the searches,
    which start each open child from test 2's coloring.  Test 2 running
    its first round as a keyed round on every such child took 2,459
    rounds, 1,307 of them in test 2; refining every child to stable and
    each search refining it again took 2,955 refinements and 7,109 rounds;
    a search per child took 5,759 canonical forms and 9,676 refinements."""
    calls = {"canonical_form": 0, "_refine": 0, "_round": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(generate, "_ALL_GRAPHS", {})
    for name in calls:
        monkeypatch.setattr(generate, name, counted(name, getattr(generate, name)))
    all_graphs(7)
    assert calls == {"canonical_form": 543, "_refine": 873, "_round": 1914}
