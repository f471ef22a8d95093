"""Isomorph-free generation of small connected graphs.

Every connected graph on n >= 3 vertices lies in exactly one of two strata,
and each stratum has its own generator:

* ``classes_with_cut_vertices(n)`` -- cut-vertex composition: every
  connected graph with a cut vertex is two smaller connected graphs (each
  with >= 2 vertices) glued at one vertex, and every such gluing has a cut
  vertex.  Gluing orbit representatives of all smaller rooted classes
  therefore enumerates exactly the classes with k >= 1; a canonical-form
  set per level drops the repeated gluings.

* the 2-connected stratum -- canonical augmentation (McKay, "Isomorph-free
  exhaustive generation", J. Algorithms 1998): each connected class P on
  n - 1 vertices gets a new vertex joined to a subset S of its vertices,
  one S per orbit of Aut(P), and the child is kept only if the new vertex
  lies in the canonical deletion orbit defined below.  Subsets are screened
  on bitmasks before any graph is built: |S| >= 2, S minus c meets every
  component of P - c for each cut vertex c of P (exactly the children that
  are 2-connected), and no vertex of the child has degree below |S|.

``connected_classes(n)`` is the union of the two strata, so composition
builds the classes with a cut vertex once, for the catalogs of both.

Lemma (each 2-connected class is accepted exactly once).  For a child G,
let m(G) be the vertex of minimum degree with the smallest canonical label,
and call its Aut(G)-orbit the canonical deletion orbit.  Accept (P, S) iff
the new vertex v lies in that orbit.

1. Every 2-connected G on n vertices is (G - w) + w for any vertex w, and
   G - w is connected.  Take w = m(G): G - w is isomorphic to some class P,
   and w's neighbourhood maps to a subset S of P that passes the three
   screens (G is 2-connected, and w has the minimum degree |S|).  So P plus
   a vertex joined to S is isomorphic to G with the new vertex sent to w.
2. The canonical deletion orbit is isomorphism-invariant: the canonical
   labeling, hence m(G), depends only on the isomorphism class, up to an
   automorphism.  Any isomorphism G -> G' therefore maps the orbit of m(G)
   onto the orbit of m(G'), and a pair is accepted iff every pair
   isomorphic to it (as graph plus new vertex) is accepted.
3. Subsets in one Aut(P)-orbit give isomorphic (child, new vertex) pairs,
   so keeping one S per orbit loses nothing by (1) and (2).  Conversely, let
   (P, S) and (P', S') both be accepted with isomorphic children.  By (2)
   an isomorphism can be chosen to send new vertex to new vertex; it then
   restricts to P -> P', so P = P' (one canonical representative per
   class), and it is an automorphism of P carrying S to S'.  So S and S'
   are one orbit and were reduced to one representative.

Hence the accepted children are the 2-connected classes, each once, and
no set of seen children is needed.

Orbit representatives (what ``rooted_classes(n)`` returns) are read off the
automorphism generators of the canonical labeling that admitted each class,
in either stratum, and kept only for n < ``GENERATION_CAP``: composition up
to the cap is their only large consumer.

Results are cached per process; all returned graphs are canonically
labeled, sorted by canonical key.
"""

from __future__ import annotations

from operator import itemgetter

from .canon import canonical_labeling, generator_orbits, labeled_key, positions
from .graph import MAX_VERTICES, Graph, bits, components, cut_vertices, map_mask

# largest n an exhaustive search generates; n = 10 would need about 2 M
# classes with a cut vertex from composition alone
GENERATION_CAP = 9

_connected_cache: dict[int, tuple[Graph, ...]] = {}
_cut_cache: dict[int, tuple[Graph, ...]] = {}
# for n < GENERATION_CAP, per class of the caches above, a bitmask of
# vertex-orbit representatives in canonical labels
_roots_cache: dict[int, tuple[int, ...]] = {}
_cut_roots_cache: dict[int, tuple[int, ...]] = {}
_rooted_cache: dict[int, list[tuple[Graph, int]]] = {}


def _orbit_roots(orbits: list[tuple[int, ...]], pos: list[int]) -> int:
    """Bitmask of the smallest canonical label in each vertex orbit, from the
    orbits in original labels and the canonical positions ``pos``."""
    roots = 0
    for orbit in orbits:
        roots |= 1 << min(pos[v] for v in orbit)
    return roots


def connected_classes(n: int) -> tuple[Graph, ...]:
    """All connected graphs on exactly n vertices, one canonical
    representative per isomorphism class."""
    if n < 1:
        raise ValueError("n must be positive")
    if n in _connected_cache:
        return _connected_cache[n]
    if n <= 2:
        # K1 and K2: one class, one vertex orbit
        _connected_cache[n] = (Graph(n, (0,) if n == 1 else (0b10, 0b01)),)
        _roots_cache[n] = (1,)
        return _connected_cache[n]
    keep_roots = n < GENERATION_CAP
    items = _two_connected(n, keep_roots)
    cut = classes_with_cut_vertices(n)
    cut_roots = _cut_roots_cache[n] if keep_roots else (0,) * len(cut)
    items.extend((labeled_key(g), g, r) for g, r in zip(cut, cut_roots))
    items.sort(key=itemgetter(0))
    _connected_cache[n] = tuple(g for _, g, _ in items)
    if keep_roots:
        _roots_cache[n] = tuple(r for _, _, r in items)
    return _connected_cache[n]


def _two_connected(n: int, keep_roots: bool) -> list[tuple[bytes, Graph, int]]:
    """(key, canonical graph, orbit roots or 0) for every 2-connected class
    on n >= 3 vertices, by canonical augmentation (see the lemma above)."""
    new = n - 1
    out = []
    for parent in connected_classes(n - 1):
        _, _, gens = canonical_labeling(parent)
        for subset in _subset_orbit_reps(parent, gens):
            size = subset.bit_count()
            # the new vertex n - 1 joined to every vertex of the subset
            adj = [a | 1 << new if subset >> v & 1 else a for v, a in enumerate(parent.adj)]
            adj.append(subset)
            child = Graph(n, tuple(adj))
            key, order, cgens = canonical_labeling(child)
            # m(child): the new vertex has the minimum degree, |S|
            deleted = next(v for v in order if adj[v].bit_count() == size)
            orbits = generator_orbits(n, cgens) if keep_roots or deleted != new else None
            if deleted != new and not any(new in o and deleted in o for o in orbits):
                continue
            pos = positions(order)
            roots = _orbit_roots(orbits, pos) if keep_roots else 0
            out.append((key, child.relabel(pos), roots))
    return out


def _subset_orbit_reps(p: Graph, gens: list[tuple[int, ...]]) -> list[int]:
    """One subset S of p's vertices per Aut(p)-orbit such that p plus a
    vertex joined to S is 2-connected with minimum degree |S|; ``gens``
    generate Aut(p) in p's labels."""
    full = (1 << p.n) - 1
    # S must meet every component of p - c, for every cut vertex c
    sides = [side for c in cut_vertices(p) for side in components(p.adj, full & ~(1 << c))]
    deg = [a.bit_count() for a in p.adj]
    # below[s]: vertices that reach degree s only if joined to the new vertex
    below = [sum(1 << v for v in range(p.n) if deg[v] < s) for s in range(p.n + 1)]
    max_size = min(deg) + 1
    kept = [
        s
        for s in range(3, full + 1)
        if 2 <= (size := s.bit_count()) <= max_size
        and s & below[size] == below[size]
        and all(s & side for side in sides)
    ]
    images = [[1 << x for x in a] for a in gens]
    seen: set[int] = set()
    reps = []
    for s in kept:
        if s in seen:
            continue
        reps.append(s)
        seen.add(s)
        orbit = [s]
        for t in orbit:
            for img in images:
                u = map_mask(t, img)
                if u not in seen:
                    seen.add(u)
                    orbit.append(u)
    return reps


def rooted_classes(n: int) -> list[tuple[Graph, int]]:
    """(graph, root) pairs: each connected class on n vertices with one root
    per vertex orbit, the orbit's smallest vertex.  Kept for
    n < ``GENERATION_CAP``, the sizes composition glues."""
    if not 1 <= n < GENERATION_CAP:
        raise ValueError(f"rooted classes are kept for n in 1..{GENERATION_CAP - 1}")
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
    if not (0 <= r1 < g1.n and 0 <= r2 < g2.n):
        raise ValueError(f"roots ({r1}, {r2}) out of range for n = ({g1.n}, {g2.n})")
    n = g1.n + g2.n - 1
    if n > MAX_VERTICES:
        raise ValueError(f"glued graph has {n} > {MAX_VERTICES} vertices")
    label = [g1.n + v - (v > r2) for v in range(g2.n)]
    label[r2] = r1
    image = [1 << x for x in label]
    adj = list(g1.adj) + [0] * (g2.n - 1)
    for v, a in enumerate(g2.adj):
        adj[label[v]] |= map_mask(a, image)
    return Graph(n, tuple(adj))


def classes_with_cut_vertices(n: int) -> tuple[Graph, ...]:
    """All connected classes on n vertices having at least one cut vertex."""
    if n < 3:
        return ()
    if n in _cut_cache:
        return _cut_cache[n]
    keep_roots = n < GENERATION_CAP
    found: dict[bytes, Graph] = {}
    roots: dict[bytes, int] = {}
    for n1 in range(2, (n + 1) // 2 + 1):
        n2 = n + 1 - n1
        left = rooted_classes(n1)
        right = left if n2 == n1 else rooted_classes(n2)
        for i, (g1, r1) in enumerate(left):
            start = i if n2 == n1 else 0
            for g2, r2 in right[start:]:
                glued = glue(g1, r1, g2, r2)
                key, order, gens = canonical_labeling(glued)
                if key not in found:
                    pos = positions(order)
                    found[key] = glued.relabel(pos)
                    if keep_roots:
                        roots[key] = _orbit_roots(generator_orbits(n, gens), pos)
    keys = sorted(found)
    _cut_cache[n] = tuple(found[k] for k in keys)
    if keep_roots:
        _cut_roots_cache[n] = tuple(roots[k] for k in keys)
    return _cut_cache[n]
