"""Bit-exact graph serialization: graph6 in and out, edge-list text in, DOT out.

``triangle_bits`` is the one encoder of graph6's upper-triangle bit order,
which canonical keys share, and ``parse_graph6`` its one decoder."""

from __future__ import annotations

from typing import Collection, Sequence

from .graph import Graph, MAX_VERTICES


class FormatError(ValueError):
    """Malformed serialized graph."""


def triangle_bits(adj: tuple[int, ...], order: Sequence[int]) -> int:
    """The upper triangle of the graph relabeled by ``order`` (new index ->
    old vertex), column by column: (0,1), (0,2), (1,2), (0,3), ..., as one
    integer with the first bit most significant.  graph6 writes these bits
    for the identity order; a canonical key is them for the canonical order."""
    bits = 0
    for j, w in enumerate(order):
        aw = adj[w]
        for v in order[:j]:
            bits = bits << 1 | aw >> v & 1
    return bits


def serialize_graph6(g: Graph) -> str:
    # n <= 62 in one character, above it the long form: '~' then 18 bits of n
    size = chr(63 + g.n)
    if g.n > 62:
        size = "~" + "".join(chr(63 + (g.n >> s & 63)) for s in (12, 6, 0))
    nbits = g.n * (g.n - 1) // 2
    pad = -nbits % 6
    bits = triangle_bits(g.adj, range(g.n)) << pad
    letters = (chr(63 + (bits >> s & 63)) for s in range(nbits + pad - 6, -1, -6))
    return size + "".join(letters)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise FormatError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise FormatError(f"character {ch!r} outside graph6 range")
    if s[0] == "~":
        # long form: '~' then three chars carrying 18 bits
        if len(s) < 4 or s[1] == "~":
            raise FormatError("unsupported graph6 size form")
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n < 1 or n > MAX_VERTICES:
        raise FormatError(f"graph6 vertex count {n} outside 1..{MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise FormatError(f"graph6 body has {len(body)} chars, expected {expect}")
    bits = 0
    for ch in body:
        bits = bits << 6 | (ord(ch) - 63)
    pad = 6 * expect - nbits
    if bits & ((1 << pad) - 1):
        raise FormatError("non-zero padding bits in graph6 body")
    # triangle_bits inverted for the identity order: the pair read first
    # is the most significant bit
    bits >>= pad
    adj = [0] * n
    shift = nbits
    for j in range(1, n):
        for i in range(j):
            shift -= 1
            if bits >> shift & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("n="):
        raise FormatError("edge list must start with an 'n=<int>' header")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise FormatError(f"bad header {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {ln!r}") from exc
        edges.append((u, v))
    try:
        g = Graph.from_edges(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return g


def export_dot(g: Graph, highlights: Collection[int] = ()) -> str:
    hi = set(highlights)
    for v in hi:
        if not 0 <= v < g.n:
            raise ValueError(f"highlight vertex {v} out of range")
    lines = ["graph G {", "  node [shape=circle];"]
    for v in range(g.n):
        if v in hi:
            lines.append(f"  {v} [style=filled, fillcolor=gold];")
        else:
            lines.append(f"  {v};")
    lines.extend(f"  {u} -- {v};" for u, v in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
