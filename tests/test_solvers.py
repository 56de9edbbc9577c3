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

from invdom import constructions, harness, naive, solvers
from invdom.certificates import (
    DominationCertificate,
    InverseCertificate,
    check_inverse_certificate,
)
from invdom.errors import HasIsolates, PreconditionViolated
from invdom.generate import (
    cycle_graph,
    gamma5_corpus,
    pad_with_k2,
    random_graph,
    star_graph,
)
from invdom.graph import Graph, disjoint_union, mask_of, to_sorted
from invdom.graph6 import parse_graph6, write_graph6
from oracles import (
    complete_graph,
    cover_search,
    min_dominating_sets_naive,
    optimal_key,
    path_graph,
)
from test_golden import golden_corpus, rewrite_corpus


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
        assert solvers.enumerate_min_dominating_sets(g) == min_dominating_sets_naive(g)


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


def _inverse_pass_reference(g: Graph) -> tuple[int, int, int, int]:
    """Unthresholded pass, (gamma^-1, T, D, strong gamma^-1): a full search on
    every gamma-set of each component, in bitmask order, joined over the
    components as ``_by_component`` joins."""
    covers = solvers._domination_covers(g)

    def part_reference(part: int) -> tuple[int, int, int, int]:
        sizes = []
        for d in solvers._min_covers(g, part):
            size, t_mask = solvers._min_cover(covers, part & ~d, part)
            sizes.append((size, d, t_mask))
        size, d, t_mask = min(sizes, key=lambda entry: entry[0])  # the first least
        return size, t_mask, d, max(entry[0] for entry in sizes)

    return solvers._by_component(g, part_reference)


def test_inverse_pass_matches_the_per_set_reference(c5, corpus7):
    # corpus7 fills the all_graphs cache that gamma5_corpus draws its bases from
    rng = random.Random(9)
    graphs = []
    while len(graphs) < 12:
        g = random_graph(rng, rng.randint(12, 20), rng.choice((0.15, 0.25, 0.4)))
        if not g.has_isolated_vertex():
            graphs.append(g)
    for p in (0.15, 0.3):  # random_mid's sparse rows, where most gamma-sets have no partner
        while len(graphs) < (20 if p == 0.15 else 28):
            g = random_graph(rng, 16, p)
            if not g.has_isolated_vertex():
                graphs.append(g)
    graphs += [pad_with_k2(c5, t) for t in range(7)]
    graphs += gamma5_corpus(1)[::12]  # 20 graphs across its families
    graphs.append(parse_graph6("O???ECO?@GCAC?agG?QP@"))  # T is no whole-graph search's
    for g in graphs:
        assert solvers.inverse_pass(g) == _inverse_pass_reference(g)
    for g in disjoint_unions(4, 10, isolate_free=True):
        assert len(g.components()) >= 2
        size, t_set, d_set, strong = solvers.inverse_pass(g)
        assert (size, t_set, d_set, strong) == _inverse_pass_reference(g)
        assert (size, strong) == (naive.inverse_gamma_naive(g), naive.strong_inverse_gamma_naive(g))


@pytest.mark.parametrize(
    "line, expected",
    [
        # gamma-sets {0,4}, {3,4}, {0,5}, {0,6}: the first has no disjoint
        # partner (floor gamma + 1), the later ones do (floor gamma).  The
        # only connected graph with n <= 7 where such a D comes first, so
        # the certificate's D is the first partnered one, found before
        # gamma^-1 = gamma is known.
        ("FCZnO", (2, [3, 4], [0, 5], 3)),
        # gamma-sets {0,4} and {3,4}: no disjoint pair, so every floor is
        # gamma + 1 = gamma^-1 = strong gamma^-1
        ("DCw", (3, [0, 4], [1, 2, 3], 3)),
        # gamma-sets {0,5} and {4,5}: neither has a partner, and the greedy
        # cover {1,2,3} of V - {0,5} is disjoint from {4,5}
        ("ECpo", (3, [0, 5], [1, 2, 3], 3)),
        # the last gamma-set {5,6} has no partner; the greedy cover {0,1,2}
        # is disjoint from it but larger than the largest size so far, 2,
        # so it does not settle {5,6}, whose own size 3 is strong gamma^-1
        ("FCquo", (2, [1, 5], [2, 6], 3)),
    ],
)
def test_inverse_pass_on_both_floors(line, expected):
    g = parse_graph6(line)
    size, t_set, d_set, strong = solvers.inverse_pass(g)
    assert (size, to_sorted(d_set), to_sorted(t_set), strong) == expected
    assert (size, t_set, d_set, strong) == _inverse_pass_reference(g)
    assert (size, strong) == (naive.inverse_gamma_naive(g), naive.strong_inverse_gamma_naive(g))


def _count_cover_calls(monkeypatch) -> list[tuple[str, int, int | None]]:
    """Record each greedy cover as ("greedy", allowed, its size) and each
    cover search as ("search", allowed, None), in call order."""
    calls = []
    greedy_cover, cover_search = solvers._greedy_cover, solvers._cover_search

    def counted_greedy(covers, allowed, target):
        cover = greedy_cover(covers, allowed, target)
        calls.append(("greedy", allowed, cover.bit_count()))
        return cover

    def counted_search(covers, allowed, target, limit, found):
        calls.append(("search", allowed, None))
        cover_search(covers, allowed, target, limit, found)

    monkeypatch.setattr(solvers, "_greedy_cover", counted_greedy)
    monkeypatch.setattr(solvers, "_cover_search", counted_search)
    return calls


@pytest.mark.parametrize("t", [0, 2])
def test_a_disjoint_gamma_set_settles_d(t, c5, monkeypatch):
    # every gamma-set of C5 and of K2 has a disjoint partner, so once the
    # first D of a component reaches gamma every later D is skipped
    g = pad_with_k2(c5, t)
    calls = _count_cover_calls(monkeypatch)
    d_set = solvers.inverse_pass(g)[2]
    greedy = [allowed for kind, allowed, _ in calls if kind == "greedy"]
    assert len(greedy) == len(g.components()) == 1 + t
    # each is the greedy cover of part - D for the certificate's D
    assert [part & ~allowed for part, allowed in zip(g.components(), greedy)] == [
        part & d_set for part in g.components()
    ]


def test_no_search_below_a_greedy_cover_at_the_floor(monkeypatch):
    # DCw has no disjoint gamma-set pair: a greedy cover of size gamma + 1
    # is least, so only the enumeration searches
    calls = _count_cover_calls(monkeypatch)
    solvers.inverse_pass(parse_graph6("DCw"))
    assert [(kind, size) for kind, _, size in calls] == [("search", None), ("greedy", 3), ("greedy", 3)]


def test_a_cover_already_found_settles_d(monkeypatch):
    # ECpo's second gamma-set {4,5} has floor gamma + 1 = gamma^-1, and the
    # greedy cover {1,2,3} of V - {0,5}, of size 3 = strong gamma^-1 so far,
    # is disjoint from it: {4,5} can move neither value, so it gets no cover
    calls = _count_cover_calls(monkeypatch)
    solvers.inverse_pass(parse_graph6("ECpo"))
    assert [(kind, size) for kind, _, size in calls] == [("search", None), ("greedy", 3)]


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
        t_join |= solvers._inverse_part(g, part)[1]
    size, witness = solvers.gamma(g)
    assert witness == gamma_join
    assert witness != solvers._gamma_part(covers, g.full)[1]
    assert witness.bit_count() == size and g.is_dominating(witness)
    inverse_size, t_set, d_set, _ = solvers.inverse_pass(g)
    assert t_set == t_join
    cert = InverseCertificate(d_set, t_set, "exact", inverse_size)
    assert check_inverse_certificate(g, cert, size) == []
    assert harness.check_component_split(g) == []


def _found_calls(search, covers, allowed, target, limit, step) -> list[tuple[int, int]]:
    calls: list[tuple[int, int]] = []

    def found(chosen: int, count: int) -> int:
        calls.append((chosen, count))
        return step(count)

    search(covers, allowed, target, limit, found)
    return calls


def test_cover_search_calls_found_as_its_plain_form_does():
    """The node that stops at the first candidate covering enough, tests each
    uncovered vertex for a candidate, scans for the last pick and settles
    covers and children with no pick left in the parent calls ``found`` with
    the covers, and in the order, of the node that sweeps every candidate and
    recurses into every child: collecting, stopping at the first cover,
    improving and the inverse pass's limit, at every root limit from 0 to
    n + 1, on the whole vertex set, on V - D for the lowest gamma-set D and
    on V - {0}, each with the whole vertex set, itself and the rest (empty
    for the whole vertex set) as the target."""
    for g in rewrite_corpus():
        covers = solvers._domination_covers(g)
        lowest = solvers.enumerate_min_dominating_sets(g)[0]
        floor = lowest.bit_count()
        steps = (
            lambda count: count + 1,
            lambda count: 0,
            lambda count: count,
            lambda count: count if count > floor else 0,
        )
        masks = {
            (allowed, target)
            for allowed in (g.full, g.full & ~lowest, g.full & ~1)
            for target in (g.full, allowed, g.full & ~allowed)
        }
        for allowed, target in sorted(masks):
            for limit in range(g.n + 2):
                for step in steps:
                    args = (covers, allowed, target, limit, step)
                    assert _found_calls(solvers._cover_search, *args) == _found_calls(cover_search, *args)


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


def _largest_independent_within(g: Graph, allowed: int) -> int:
    """Size of the largest independent subset of ``allowed``, by trying every
    subset of it."""
    best = 0
    s = allowed
    while s:
        if s.bit_count() > best and g.is_independent(s):
            best = s.bit_count()
        s = (s - 1) & allowed
    return best


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
        assert size == _largest_independent_within(g, allowed)


def _random_tree(rng: random.Random, n: int) -> Graph:
    return Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + inner + [(i, i + 5) for i in range(5)])


def _independent_cases():
    # graphs where a vertex of candidate degree at most one is taken at the root
    rng = random.Random(35)
    low = [path_graph(n) for n in range(1, 10)] + [star_graph(k) for k in range(1, 7)]
    low += [_random_tree(rng, n) for n in range(2, 15)]
    low += [pad_with_k2(cycle_graph(5), t) for t in range(1, 5)] + [parse_graph6("E?ow")]
    for i, g in enumerate(low):
        yield pytest.param(g, True, id=f"low-degree-{i}")
    # graphs of least degree two or more, where the root branches at once
    high = [complete_graph(n) for n in range(3, 8)] + [cycle_graph(n) for n in range(3, 10)]
    high += [Graph(2 * k, [(u, v) for u in range(k) for v in range(k, 2 * k)]) for k in range(2, 6)]
    high += [_petersen()]
    for i, g in enumerate(high):
        yield pytest.param(g, False, id=f"branching-{i}")
    rng = random.Random(36)
    for i in range(24):
        yield pytest.param(random_graph(rng, 16, (0.15, 0.3, 0.5)[i % 3]), None, id=f"gnp16-{i}")


@pytest.mark.parametrize("g, takes_low_degree", _independent_cases())
def test_max_independent_matches_the_oracles(g, takes_low_degree):
    """Value and witness of ``_max_independent`` on the whole graph and on
    random masks; a multi-component graph gets alpha's by-component witness."""
    if takes_low_degree is not None:
        least = min((g.adj[v].bit_count() for v in range(g.n)), default=0)
        assert (least <= 1) is takes_low_degree
    size, witness = solvers._max_independent(g, g.full)
    assert size == naive.alpha_naive(g)[0]
    assert witness.bit_count() == size and g.is_independent(witness)
    assert solvers.alpha(g) == (size, witness)
    rng = random.Random(g.n)
    for allowed in [rng.getrandbits(g.n) for _ in range(6)]:
        size, witness = solvers._max_independent(g, allowed)
        assert size == _largest_independent_within(g, allowed), (write_graph6(g), allowed)
        assert not witness & ~allowed and witness.bit_count() == size and g.is_independent(witness)


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
            assert 2 * loss <= (cand_a | cand_b).bit_count()  # what gates the call
            assert _largest_split(g, cand_a, cand_b) <= (cand_a | cand_b).bit_count() - loss


@pytest.mark.parametrize("seed", range(3))
def test_side_loss_stops_once_it_has_enough(seed):
    """Below ``enough`` the count is the whole loss; at or above it the
    count is at least ``enough``, so a cut at the gap is the same cut."""
    rng = random.Random(seed)
    for _ in range(12):
        g = random_graph(rng, rng.randint(3, 9), rng.choice((0.3, 0.5, 0.7)))
        for _ in range(6):
            cand_a = rng.getrandbits(g.n)
            cand_b = rng.choice((0, cand_a, rng.getrandbits(g.n), cand_a | rng.getrandbits(g.n)))
            loss = solvers._side_loss(g.adj, cand_a, cand_b)
            for enough in range(loss + 2):
                counted = solvers._side_loss(g.adj, cand_a, cand_b, enough)
                assert counted == loss if loss < enough else counted >= enough


def test_the_gap_bounded_loss_keeps_every_witness(monkeypatch, corpus7):
    """``_max_independent``, and ``_max_sides`` with and without the cap,
    return the size and witness they return when the loss is counted in
    full."""
    graphs = rewrite_corpus() + [g for n in range(1, 8) for g in corpus7[n]]
    caps = [solvers.alpha(g)[0] for g in graphs]

    def searches() -> list[tuple[int, int]]:
        out = [solvers._max_independent(g, g.full) for g in graphs]
        for g, cap in zip(graphs, caps):
            out += [solvers._max_sides(g, g.full), solvers._max_sides(g, g.full, cap)]
        return out

    bounded = searches()
    side_loss = solvers._side_loss
    monkeypatch.setattr(solvers, "_side_loss", lambda adj, cand_a, cand_b, _: side_loss(adj, cand_a, cand_b))
    assert searches() == bounded


def test_side_loss_counts_a_matching_and_disjoint_triangles():
    k4 = complete_graph(4)
    assert solvers._side_loss(k4.adj, k4.full, 0) == 2  # two disjoint edges, one side
    assert solvers._side_loss(k4.adj, k4.full, k4.full) == 1  # one triangle, two sides
    # K4 split as {0, 1} on A only and {2, 3} on B only: one edge inside each
    assert solvers._side_loss(k4.adj, 0b0011, 0b1100) == 2


def test_the_side_cap_keeps_b_and_its_witness(corpus7):
    """Capping each side at alpha cuts only subtrees that cannot beat the
    best, so the search returns what the uncapped search returns."""
    rng = random.Random(25)
    graphs = [Graph(0)] + [g for n in range(1, 8) for g in corpus7[n]]
    graphs += [random_graph(rng, 16 + i % 9, (0.3, 0.5, 0.7)[i % 3]) for i in range(40)]
    for g in graphs:
        cap = solvers.alpha(g)[0]
        assert solvers._max_sides(g, g.full, cap) == solvers._max_sides(g, g.full)


def test_the_side_cap_cuts_nodes(monkeypatch):
    g = random_graph(random.Random(20), 20, 0.5)
    cap = solvers.alpha(g)[0]
    assert 2 * cap < g.n  # dense enough for the cap to be tried
    losses = []
    side_loss = solvers._side_loss

    def counted(*args):
        losses.append(args)
        return side_loss(*args)

    monkeypatch.setattr(solvers, "_side_loss", counted)
    uncapped = solvers._max_sides(g, g.full)
    uncapped_losses = len(losses)
    losses.clear()
    assert solvers._max_sides(g, g.full, cap) == uncapped
    assert len(losses) < uncapped_losses


def _seed_split(g: Graph, part: int) -> int:
    """b's seed on a component: alpha's witness inside it and a greedy
    independent set of its other vertices."""
    inside = solvers.alpha(g)[1] & part
    return inside | solvers._greedy_independent(g.adj, part & ~inside)


@pytest.mark.parametrize(
    "g",
    [cycle_graph(6), Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])],
    ids=["C6", "K3,3"],
)
def test_a_seed_of_every_vertex_is_b_and_its_witness(g):
    assert _seed_split(g, g.full) == g.full
    assert solvers.max_induced_bipartite(g) == (6, g.full)


def test_the_search_beats_a_seed_below_b():
    # the smallest graph whose seed is below b: a double star, whose alpha
    # takes the four leaves and the greedy set one of the two centres
    g = parse_graph6("E?ow")
    seed = _seed_split(g, g.full)
    assert seed.bit_count() == 5
    assert solvers._max_sides(g, g.full, 4, seed) == (6, g.full)
    assert solvers.max_induced_bipartite(g) == (6, g.full)


def test_a_seeded_search_finds_b_and_keeps_at_least_its_seed():
    """On each component, the search from the seed split gives the value of
    the search from nothing, and a bipartite witness no smaller than the
    seed."""
    rng = random.Random(34)
    graphs = golden_corpus() + [random_graph(rng, 16, p) for p in (0.15, 0.3, 0.5) for _ in range(8)]
    for g in graphs:
        for part in g.components():
            seed = _seed_split(g, part)
            assert g.is_bipartite_subset(seed), write_graph6(g)
            cap = (solvers.alpha(g)[1] & part).bit_count()
            size, witness = solvers._max_sides(g, part, cap, seed)
            assert size == solvers._max_sides(g, part, cap)[0], write_graph6(g)
            assert witness.bit_count() == size >= seed.bit_count(), write_graph6(g)
            assert not witness & ~part and g.is_bipartite_subset(witness), write_graph6(g)


def test_optimal_dominating_set_c4(c4):
    cert = solvers.optimal_dominating_set(c4)
    # smallest bitmask among the ties
    assert cert == DominationCertificate(d_set=mask_of((0, 2)), alpha_of_d=2, induced_edges=0)


def test_optimal_dominating_set_k4(k4):
    cert = solvers.optimal_dominating_set(k4)
    assert cert.d_set.bit_count() == 1 and cert.alpha_of_d == 1 and cert.induced_edges == 0


def test_optimal_dominating_set_p4(p4):
    cert = solvers.optimal_dominating_set(p4)
    assert cert.d_set.bit_count() == 2 and cert.alpha_of_d == 2
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


def test_the_bounded_optimal_key_matches_the_plain_minimum():
    """alpha(G[D]) solved only below the least key gives the least key."""
    for g in rewrite_corpus():
        assert solvers._optimal_part(g, g.full) == optimal_key(g), write_graph6(g)


def _gate_answer(g: Graph, d_set: int) -> str | None:
    """The constructions' gate on d_set, asked without gamma: None where it
    passes, the message where it raises PreconditionViolated."""
    try:
        constructions._require_minimum_dominating(g, d_set, "gate")
    except PreconditionViolated as exc:
        return str(exc)
    return None


def test_the_gate_passes_exactly_the_gamma_sets(corpus7):
    """On every isolate-free graph with n <= 6, the gate passes every
    gamma-set and names the oracle's gamma for every gamma-set with one
    vertex more, cold and after ``analyze_graph`` has run on the graph."""
    for n in range(1, 7):
        for g in corpus7[n]:
            if g.has_isolated_vertex():
                continue
            k = naive.gamma_naive(g)[0]
            cases = [
                (s, None if s == d else f"gate: |d_set| = {k + 1} but gamma = {k}")
                for d in min_dominating_sets_naive(g)
                for s in [d, *(d | 1 << v for v in range(g.n) if not d >> v & 1)]
            ]
            for warm in (False, True):
                solvers._held = (None, {})
                if warm:
                    harness.analyze_graph(g)
                assert [(s, _gate_answer(g, s)) for s, _ in cases] == cases, write_graph6(g)


def _held_answers(g: Graph) -> tuple:
    """Every result the solvers hold for g."""
    return (
        solvers.gamma(g),
        solvers.alpha(g),
        solvers.max_induced_bipartite(g),
        solvers._domination_covers(g),
        [solvers._min_covers(g, part) for part in g.components()],
        solvers.enumerate_min_dominating_sets(g),
        solvers.optimal_dominating_set(g),
    )


def test_held_results_are_the_cold_ones(corpus7):
    """Cold, asked again, and asked again after another graph in between,
    every graph with n <= 6 and of the rewrite corpus gets the same results."""
    graphs = [g for n in range(1, 7) for g in corpus7[n]] + rewrite_corpus()
    cold = []
    for g in graphs:
        solvers._held = (None, {})
        cold.append(_held_answers(g))
        assert _held_answers(g) == cold[-1], write_graph6(g)
    for a, b, expected in zip(graphs, graphs[1:], cold):
        _held_answers(a)
        _held_answers(b)
        assert _held_answers(a) == expected, write_graph6(a)


def test_equal_graphs_share_one_search_and_only_one_graph_is_held(side_searches, c5):
    parsed = parse_graph6(write_graph6(c5))
    assert parsed is not c5 and parsed.adj == c5.adj
    assert solvers.alpha(parsed) == solvers.alpha(c5) == (2, 0b1010)
    assert len(side_searches) == 1
    other = cycle_graph(7)
    solvers.alpha(other)
    assert solvers._held[0] == other.adj
    assert solvers.alpha(c5) == (2, 0b1010)
    assert len(side_searches) == 3  # other replaced c5's results


def test_a_returned_gamma_set_list_is_the_callers_own(c4):
    sets = solvers.enumerate_min_dominating_sets(c4)
    expected = list(sets)
    sets.clear()
    assert solvers.enumerate_min_dominating_sets(c4) == expected


def test_empty_graph_edge_cases():
    g = Graph(0)
    assert solvers.gamma(g) == (0, 0)
    assert solvers.alpha(g) == (0, 0)
    assert solvers.enumerate_min_dominating_sets(g) == [0]
    assert solvers.min_dominating_within(g, 0) == (0, 0)
    assert solvers.inverse_pass(g) == (0, 0, 0, 0)
    assert solvers.max_induced_bipartite(g) == (0, 0)
