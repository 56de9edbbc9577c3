"""graph6 codec: frozen fixtures, the error each malformed input raises
and its message, reference cross-validation against networkx, and the
edge-list reader."""

import networkx as nx
import pytest

from invdom.errors import Graph6Error, InputFormatError, TooLarge
from invdom.generate import complete_graph
from invdom.graph import Graph
from invdom.graph6 import parse_edge_list, parse_graph6, write_graph6
from invdom.harness import check_graph6_roundtrip


def test_fixture_strings(k1, k2, k3, c4):
    # cross-validated against the networkx encoder below
    assert write_graph6(k1) == "@"
    assert write_graph6(k2) == "A_"
    assert write_graph6(k3) == "Bw"
    assert write_graph6(c4) == "Cl"
    assert parse_graph6("@") == k1
    assert parse_graph6("A_") == k2
    assert parse_graph6("Bw") == k3
    assert parse_graph6("Cl") == c4


def test_header_tolerated(k2):
    assert parse_graph6(">>graph6<<A_") == k2
    assert parse_graph6(b">>graph6<<A_\n") == k2


def test_reference_encoder_agreement():
    """Bit-exact agreement with networkx on assorted labeled graphs."""
    import random

    rng = random.Random(20240801)
    for _ in range(150):
        n = rng.randint(0, 14)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(edges)
        expected = nx.to_graph6_bytes(ref, header=False).strip().decode()
        assert write_graph6(g) == expected
        assert parse_graph6(expected) == g


def test_reference_decoder_agreement_up_to_64_vertices():
    """parse_graph6 reads networkx's encoding of seeded random graphs on
    15..64 vertices as networkx's own decoder does."""
    import random

    rng = random.Random(20261019)
    for n in range(15, 65):
        ref = nx.gnp_random_graph(n, rng.choice((0.1, 0.3, 0.5, 0.9)), seed=rng.getrandbits(32))
        text = nx.to_graph6_bytes(ref, header=False).strip()
        back = nx.from_graph6_bytes(text)
        assert parse_graph6(text) == Graph(n, back.edges())


def test_padding_bits_are_ignored():
    # n = 4 has 6 pair bits, no padding; n = 3 has 3 pair bits and 3 padding
    assert parse_graph6("B" + chr(63 + 0b111)) == Graph(3)
    assert parse_graph6("B" + chr(63 + 0b101111)) == Graph(3, [(0, 1), (1, 2)])
    full = write_graph6(complete_graph(5))  # 10 pair bits, 2 padding bits
    assert parse_graph6(full[:-1] + chr(ord(full[-1]) | 0b11)) == complete_graph(5)


def test_roundtrip_small_corpus(corpus7):
    for graphs in corpus7.values():
        for g in graphs:
            assert check_graph6_roundtrip(g) == []


def test_error_truncated():
    with pytest.raises(Graph6Error, match=r"need 1 body bytes for n=4, got 0"):
        parse_graph6("C")  # n=4 needs one body byte
    with pytest.raises(Graph6Error, match="empty graph6 input"):
        parse_graph6("")


def test_error_trailing_garbage():
    with pytest.raises(Graph6Error, match="1 extra bytes after body"):
        parse_graph6("A__")


def test_error_malformed_length():
    with pytest.raises(Graph6Error, match="long size form encodes n=0, which needs the short form"):
        parse_graph6("~???")  # long size form for n=0, which has a short form
    with pytest.raises(Graph6Error, match="the long size form needs three bytes after '~'"):
        parse_graph6("~")  # long size form without its three size bytes
    with pytest.raises(Graph6Error, match="the eight-byte size form '~~' is not supported"):
        parse_graph6("~~??????")  # eight-byte size form


def test_error_non_ascii():
    with pytest.raises(Graph6Error, match="byte 31 outside graph6 alphabet 63..126"):
        parse_graph6(b"A\x1f")
    with pytest.raises(Graph6Error, match="non-ascii character in graph6 input"):
        parse_graph6("Aé")


@pytest.mark.parametrize("n", [63, 64])
@pytest.mark.parametrize("make", [Graph, complete_graph], ids=["empty", "complete"])
def test_long_size_form_round_trips(n, make):
    g = make(n)
    text = write_graph6(g)
    ref = nx.empty_graph(n) if make is Graph else nx.complete_graph(n)
    assert text == nx.to_graph6_bytes(ref, header=False).strip().decode()
    assert text.startswith("~") and parse_graph6(text) == g


def test_long_size_form_rejects_more_than_64_vertices():
    with pytest.raises(TooLarge):
        parse_graph6(nx.to_graph6_bytes(nx.empty_graph(65), header=False))


def test_edge_list_basic(p4):
    text = "# a path\n0 1\n1 2\n2 3\n"
    assert parse_edge_list(text) == p4


def test_edge_list_declared_count():
    g = parse_edge_list("5\n0 1\n")
    assert g.n == 5
    assert g.has_isolated_vertex()


def test_edge_list_errors():
    with pytest.raises(InputFormatError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(InputFormatError):
        parse_edge_list("0 x\n")
    with pytest.raises(InputFormatError):
        parse_edge_list("2\n0 5\n")
    with pytest.raises(InputFormatError):
        parse_edge_list("1 1\n")
    with pytest.raises(InputFormatError, match="line 1: negative vertex count"):
        parse_edge_list("-1\n")
    with pytest.raises(InputFormatError, match="line 1: negative vertex id"):
        parse_edge_list("0 -1\n")
