"""Bit-exact graph6 codec and an edge-list reader for hand-written fixtures.

graph6 layout: the size n, then the upper-triangle adjacency bits in
column-major order (0,1),(0,2),(1,2),(0,3),(1,3),(2,3),... packed into 6-bit
groups, most significant bit first, zero padded, each group emitted as ASCII
value group+63.  The size is one byte n+63 for n <= 62, and for 63 <= n <= 64
the long form: '~' followed by n as three 6-bit groups, most significant
first.  Graphs stop at 64 vertices, so a long size above 64 is ``TooLarge``,
and the eight-byte form '~~' is rejected as ``MalformedLength``.
"""

from __future__ import annotations

from .errors import (
    InputFormatError,
    MalformedLength,
    NonAsciiByte,
    TooLarge,
    TrailingGarbage,
    TruncatedBody,
)
from .graph import MAX_VERTICES, Graph

HEADER = b">>graph6<<"
_SHORT_MAX = 62  # largest n of the single-byte size form
# (u, v) of each upper-triangle bit in body order; n vertices use a prefix
_PAIRS = tuple((u, v) for v in range(1, MAX_VERTICES) for u in range(v))


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


def parse_graph6(data: bytes | str) -> Graph:
    """Decode one graph6-encoded graph (optional '>>graph6<<' header)."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise NonAsciiByte(f"non-ascii character in graph6 input: {exc}") from None
    data = data.strip()
    if data.startswith(HEADER):
        data = data[len(HEADER):]
    if not data:
        raise TruncatedBody("empty graph6 input")

    for b in data:
        if not 63 <= b <= 126:
            raise NonAsciiByte(f"byte {b} outside graph6 alphabet 63..126")
    if data[:1] != b"~":
        n, body = data[0] - 63, data[1:]
    elif data[1:2] == b"~":
        raise MalformedLength("the eight-byte size form '~~' is not supported")
    elif len(data) < 4:
        raise MalformedLength("the long size form needs three bytes after '~'")
    else:
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
        if n <= _SHORT_MAX:
            raise MalformedLength(f"long size form encodes n={n}, which needs the short form")
        if n > MAX_VERTICES:
            raise TooLarge(f"graph6 size {n} exceeds {MAX_VERTICES} vertices")

    pairs = _pair_count(n)
    need = (pairs + 5) // 6
    if len(body) < need:
        raise TruncatedBody(f"need {need} body bytes for n={n}, got {len(body)}")
    if len(body) > need:
        raise TrailingGarbage(f"{len(body) - need} extra bytes after body")

    bitstream = 0
    for b in body:
        bitstream = (bitstream << 6) | (b - 63)
    bitstream >>= 6 * need - pairs  # drop the padding bits

    # pair i of the body is bit pairs - 1 - i
    edges = []
    while bitstream:
        low = bitstream & -bitstream
        bitstream ^= low
        edges.append(_PAIRS[pairs - low.bit_length()])
    return Graph(n, edges)


def write_graph6(g: Graph) -> str:
    """Canonical graph6 string for the labeled graph g."""
    if g.n <= _SHORT_MAX:
        out = [chr(g.n + 63)]
    else:
        out = ["~"] + [chr((g.n >> shift & 63) + 63) for shift in (12, 6, 0)]
    group, filled = 0, 0
    for v in range(1, g.n):
        for u in range(v):
            group = (group << 1) | (g.adj[u] >> v & 1)
            filled += 1
            if filled == 6:
                out.append(chr(group + 63))
                group, filled = 0, 0
    if filled:
        out.append(chr((group << (6 - filled)) + 63))
    return "".join(out)


def parse_edge_list(text: str) -> Graph:
    """Read a graph from 'u v' lines (0-based vertex ids).

    Blank lines and '#' comments are skipped.  An optional first line with a
    single integer fixes the vertex count; otherwise n = max id + 1.
    """
    n_declared = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1 and n_declared is None and not pairs:
            try:
                n_declared = int(parts[0])
            except ValueError:
                raise InputFormatError(f"line {lineno}: expected vertex count, got {line!r}") from None
            if n_declared < 0:
                raise InputFormatError(f"line {lineno}: negative vertex count in {line!r}")
            continue
        if len(parts) != 2:
            raise InputFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputFormatError(f"line {lineno}: non-integer vertex in {line!r}") from None
        if u < 0 or v < 0:
            raise InputFormatError(f"line {lineno}: negative vertex id in {line!r}")
        if u == v:
            raise InputFormatError(f"line {lineno}: loop at vertex {u}")
        pairs.append((u, v))

    n = n_declared if n_declared is not None else (max((max(u, v) for u, v in pairs), default=-1) + 1)
    if any(u >= n or v >= n for u, v in pairs):
        raise InputFormatError(f"edge endpoint exceeds declared vertex count {n}")
    return Graph(n, pairs)
