"""Bit-exact graph serialization: graph6 in and out, edge-list text in, DOT out."""

from __future__ import annotations

from typing import Collection

from .graph import Graph, MAX_VERTICES


class FormatError(ValueError):
    """Malformed serialized graph."""


def _g6_bits(g: Graph) -> list[int]:
    # column-major upper triangle: (0,1), (0,2), (1,2), (0,3), ...
    bits = []
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            bits.append(col >> i & 1)
    return bits


def serialize_graph6(g: Graph) -> str:
    if g.n > 62:
        raise FormatError(f"short-form graph6 supports n <= 62, got {g.n}")
    out = [chr(63 + g.n)]
    bits = _g6_bits(g)
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val << 1 | b
        out.append(chr(63 + val))
    return "".join(out)


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
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend(val >> k & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise FormatError("non-zero padding bits in graph6 body")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph.from_edges(n, edges)


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
