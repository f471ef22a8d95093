"""Isomorphism-free generation of small connected graphs.

Two complementary strategies feed the extremal searches:

* ``connected_classes(n)`` -- level augmentation: every connected graph on
  ``m+1`` vertices is some connected graph on ``m`` vertices plus one new
  vertex attached to a non-empty subset; duplicates are removed with a
  canonical-form set per level.  Exact for any n, practical through n = 8.
  Each kept class also keeps its vertex-orbit representatives, read off
  the automorphism generators its canonical labeling found, which is what
  ``rooted_classes(n)`` returns.

* ``classes_with_cut_vertices(n)`` -- cut-vertex composition: every
  connected graph with a cut vertex is two smaller connected graphs (each
  with >= 2 vertices) glued at one vertex, and every such gluing has a cut
  vertex.  Gluing orbit representatives of all smaller classes therefore
  enumerates exactly the classes with k >= 1, never materializing the far
  larger 2-connected stratum.  This is what makes n = 9 searches cheap.

``naive_connected_classes(n)`` is the independent completeness oracle:
all 2^C(n,2) labeled graphs, deduplicated by canonical form.

Results are cached per process; all returned graphs are canonically
labeled, sorted by canonical key.
"""

from __future__ import annotations

from itertools import combinations

from .canon import canonical_labeling, generator_orbits, positions
from .graph import Graph, bits, is_connected

_connected_cache: dict[int, tuple[Graph, ...]] = {}
# per class of _connected_cache[n], a bitmask of vertex-orbit representatives
_roots_cache: dict[int, tuple[int, ...]] = {}
_cut_cache: dict[int, tuple[Graph, ...]] = {}
_rooted_cache: dict[int, list[tuple[Graph, int]]] = {}


def _orbit_roots(gens: list[tuple[int, ...]], pos: list[int]) -> int:
    """Bitmask of the smallest canonical label in each vertex orbit, from the
    automorphism generators ``gens`` (original labels) and the canonical
    positions ``pos``."""
    roots = 0
    for orbit in generator_orbits(len(pos), gens):
        roots |= 1 << min(pos[v] for v in orbit)
    return roots


def connected_classes(n: int) -> tuple[Graph, ...]:
    """All connected graphs on exactly n vertices, one canonical
    representative per isomorphism class."""
    if n < 1:
        raise ValueError("n must be positive")
    if n in _connected_cache:
        return _connected_cache[n]
    if n == 1:
        _connected_cache[1] = (Graph.from_edges(1, []),)
        _roots_cache[1] = (1,)
        return _connected_cache[1]
    found: dict[bytes, Graph] = {}
    roots: dict[bytes, int] = {}
    for parent in connected_classes(n - 1):
        base = list(parent.edges)
        for subset in range(1, 1 << (n - 1)):
            edges = base + [(v, n - 1) for v in bits(subset)]
            child = Graph.from_edges(n, edges)
            key, order, gens = canonical_labeling(child)
            if key not in found:
                pos = positions(order)
                found[key] = child.relabel(pos)
                roots[key] = _orbit_roots(gens, pos)
    keys = sorted(found)
    _connected_cache[n] = tuple(found[k] for k in keys)
    _roots_cache[n] = tuple(roots[k] for k in keys)
    return _connected_cache[n]


def rooted_classes(n: int) -> list[tuple[Graph, int]]:
    """(graph, root) pairs: each connected class on n vertices with one root
    per vertex orbit, the orbit's smallest vertex."""
    if n in _rooted_cache:
        return _rooted_cache[n]
    classes = connected_classes(n)
    out = [
        (g, root) for g, roots in zip(classes, _roots_cache[n]) for root in bits(roots)
    ]
    _rooted_cache[n] = out
    return out


def glue(g1: Graph, r1: int, g2: Graph, r2: int) -> Graph:
    """Identify root r2 of g2 with root r1 of g1.  g1 keeps its labels; g2's
    other vertices become g1.n, g1.n + 1, ... in their original order."""
    n = g1.n + g2.n - 1
    mapping = {}
    nxt = g1.n
    for v in range(g2.n):
        if v == r2:
            mapping[v] = r1
        else:
            mapping[v] = nxt
            nxt += 1
    edges = list(g1.edges)
    edges.extend((mapping[u], mapping[v]) for u, v in g2.edges)
    return Graph.from_edges(n, edges)


def classes_with_cut_vertices(n: int) -> tuple[Graph, ...]:
    """All connected classes on n vertices having at least one cut vertex."""
    if n < 3:
        return ()
    if n in _cut_cache:
        return _cut_cache[n]
    found: dict[bytes, Graph] = {}
    for n1 in range(2, (n + 1) // 2 + 1):
        n2 = n + 1 - n1
        left = rooted_classes(n1)
        right = left if n2 == n1 else rooted_classes(n2)
        for i, (g1, r1) in enumerate(left):
            start = i if n2 == n1 else 0
            for g2, r2 in right[start:]:
                glued = glue(g1, r1, g2, r2)
                key, order, _ = canonical_labeling(glued)
                if key not in found:
                    found[key] = glued.relabel(positions(order))
    result = tuple(found[k] for k in sorted(found))
    _cut_cache[n] = result
    return result


def naive_connected_classes(n: int) -> tuple[Graph, ...]:
    """Completeness oracle: scan all labeled graphs on n vertices."""
    if n > 6:
        raise ValueError("naive generation is for n <= 6")
    if n == 1:
        return (Graph.from_edges(1, []),)
    pairs = list(combinations(range(n), 2))
    found: dict[bytes, Graph] = {}
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph.from_edges(n, edges)
        if not is_connected(g):
            continue
        key, order, _ = canonical_labeling(g)
        if key not in found:
            found[key] = g.relabel(positions(order))
    return tuple(found[k] for k in sorted(found))
