"""Isomorph-free generation of small connected graphs.

Every connected graph lies in exactly one of two strata, and each stratum
has its own generator:

* ``classes_with_cut_vertices(n)`` -- cut-vertex composition: every
  connected graph with a cut vertex is two smaller connected graphs (each
  with >= 2 vertices) glued at one vertex, and every such gluing has a cut
  vertex.  Gluing orbit representatives of all smaller rooted classes
  therefore enumerates exactly the classes with k >= 1; a canonical-form
  set per level drops the repeated gluings.

* ``block_classes(n)`` -- the classes without a cut vertex: K1 and K2 as
  seeds, and for n >= 3 the 2-connected classes by canonical augmentation
  (McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998): each
  connected class P on n - 1 vertices gets a new vertex joined to a subset
  S of its vertices, one S per orbit of Aut(P), and the child is kept only
  if the new vertex lies in the canonical deletion orbit defined below.
  Subsets are screened on bitmasks before any graph is built: |S| >= 2,
  S minus c meets every component of P - c for each cut vertex c of P
  (exactly the children that are 2-connected), and no vertex of the child
  has degree below |S|.

``connected_classes(n)`` and ``rooted_classes(n)`` merge the two strata in
canonical-key order; nothing stores the union, so each class is generated
and stored once, in its own stratum.

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

Every class, in either stratum, is canonised by one step, ``canonize``: the
canonical labeling, the canonically labeled copy and the orbit-root mask
read off the automorphism generators of that same labeling.

The classes live in one store, per vertex count and stratum ("cut" or
"block"): canonical keys in sorted order, with the canonical graph and the
orbit-root mask of each.  Masks are kept only below ``GENERATION_CAP``, the
sizes composition glues (it computes none at the cap); at the cap each is 0.
``rooted_classes(n)`` expands the masks of level n on each call.
"""

from __future__ import annotations

import heapq
from collections.abc import Container, Iterator
from operator import itemgetter

from .canon import canonical_labeling, labeled_key, orbit_least, positions
from .graph import MAX_VERTICES, Graph, bits, components, cut_vertices, map_mask

# largest n an exhaustive search generates; n = 10 would need about 2 M
# classes with a cut vertex from composition alone
GENERATION_CAP = 9

# the class store: (n, stratum) -> (sorted canonical keys, the canonical
# graph of each, the orbit-root mask of each)
_store: dict[tuple[int, str], tuple[tuple[bytes, ...], tuple[Graph, ...], tuple[int, ...]]] = {}


def canonize(
    g: Graph, orbits: bool = True, known: Container[bytes] = ()
) -> tuple[bytes, Graph | None, int, tuple[int, ...]]:
    """The canonical key of ``g``, its canonically labeled copy, the copy's
    orbit-root mask (bit r set for the smallest canonical label r of each
    Aut(g)-orbit) and ``orbit_of``: per vertex v of ``g``, the root r of
    v's orbit.  Without ``orbits`` the mask is 0 and ``orbit_of`` is ().
    A key in ``known`` is a class already built: only the key is returned,
    with copy None."""
    key, order, gens = canonical_labeling(g)
    if key in known:
        return key, None, 0, ()
    pos = positions(order)
    copy = g.relabel(pos)
    if not orbits:
        return key, copy, 0, ()
    orbit_of = orbit_least(pos, gens)
    mask = 0
    for r in orbit_of:
        mask |= 1 << r
    return key, copy, mask, tuple(orbit_of)


def _put(
    n: int, stratum: str, graphs: dict[bytes, Graph], roots: dict[bytes, int]
) -> tuple[Graph, ...]:
    """Store level n of a stratum from its canonical graphs and orbit-root
    masks, both by canonical key, in key order (masks only below the cap);
    returns the graphs."""
    keys = tuple(sorted(graphs))
    level = tuple(graphs[k] for k in keys)
    _store[n, stratum] = (keys, level, tuple(roots[k] if n < GENERATION_CAP else 0 for k in keys))
    return level


def block_classes(n: int) -> tuple[Graph, ...]:
    """The connected classes on n vertices without a cut vertex: K1, K2
    and, for n >= 3, the 2-connected classes."""
    if n < 1:
        raise ValueError("n must be positive")
    if (n, "block") not in _store:
        if n <= 2:
            # K1 and K2: one class, one vertex orbit
            seed = Graph(n, (0,) if n == 1 else (0b10, 0b01))
            _store[n, "block"] = ((labeled_key(seed),), (seed,), (1,))
        else:
            _put(n, "block", *_two_connected(n))
    return _store[n, "block"][1]


def _union(n: int) -> Iterator[tuple[bytes, Graph, int]]:
    """(key, graph, orbit-root mask) of every connected class on n vertices,
    in canonical-key order: the two strata merged."""
    block_classes(n)
    classes_with_cut_vertices(n)
    strata = [zip(*_store[n, s]) for s in ("block", "cut") if (n, s) in _store]
    return heapq.merge(*strata, key=itemgetter(0))


def connected_classes(n: int) -> tuple[Graph, ...]:
    """All connected graphs on exactly n vertices, one canonical
    representative per isomorphism class."""
    return tuple(g for _, g, _ in _union(n))


def _two_connected(n: int) -> tuple[dict[bytes, Graph], dict[bytes, int]]:
    """The canonical graph and the orbit-root mask, by canonical key, of
    every 2-connected class on n >= 3 vertices, by canonical augmentation
    (see the lemma above)."""
    new = n - 1
    graphs: dict[bytes, Graph] = {}
    roots: dict[bytes, int] = {}
    for parent in connected_classes(n - 1):
        _, _, gens = canonical_labeling(parent)
        for subset in _subset_orbit_reps(parent, gens):
            size = subset.bit_count()
            # the new vertex n - 1 joined to every vertex of the subset
            adj = [a | 1 << new if subset >> v & 1 else a for v, a in enumerate(parent.adj)]
            adj.append(subset)
            key, child, mask, orbit_of = canonize(Graph(n, tuple(adj)))
            # m(child) is the first canonical label of the minimum degree |S|;
            # no smaller label shares its orbit, so it is its orbit's root
            deleted = next(v for v, a in enumerate(child.adj) if a.bit_count() == size)
            if orbit_of[new] == deleted:
                graphs[key] = child
                roots[key] = mask
    return graphs, roots


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
    return [(g, root) for _, g, roots in _union(n) for root in bits(roots)]


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
    if (n, "cut") in _store:
        return _store[n, "cut"][1]
    orbits = n < GENERATION_CAP
    found: dict[bytes, Graph] = {}
    roots: dict[bytes, int] = {}
    for n1 in range(2, (n + 1) // 2 + 1):
        n2 = n + 1 - n1
        left = rooted_classes(n1)
        right = left if n2 == n1 else rooted_classes(n2)
        for i, (g1, r1) in enumerate(left):
            start = i if n2 == n1 else 0
            for g2, r2 in right[start:]:
                key, canon, mask, _ = canonize(glue(g1, r1, g2, r2), orbits, found)
                if canon is not None:
                    found[key] = canon
                    roots[key] = mask
    return _put(n, "cut", found, roots)
