"""Isomorph-free generation of small connected graphs.

Every connected graph lies in exactly one of two strata, and each stratum
has its own generator:

* ``classes_with_cut_vertices(n)`` -- cut-vertex composition: every
  connected graph with a cut vertex is two smaller connected graphs (each
  with >= 2 vertices) glued at one vertex, and every such gluing has a cut
  vertex.  Gluing orbit representatives of all smaller rooted classes
  therefore enumerates exactly the classes with k >= 1.  Repeated gluings
  are dropped by canonical key, or, for the gluings with exactly one cut
  vertex, by the bouquet certificate below, which needs no labeling.

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
key order; nothing stores the union, so each class is generated and stored
once, in its own stratum.

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

Gluing (g1, r1) to (g2, r2) gives c1 + c2 + 1 cut vertices, where c_i
counts the cut vertices of g_i other than r_i; so it gives exactly one, r1,
iff cut(g1) <= {r1} and cut(g2) <= {r2}.  Such a rooted part has a bouquet:
its blocks at the root, each as ``block key + bytes([root's orbit root in
the block])``, sorted.  A K2 or 2-connected class at orbit root r is one
block; a class with one cut vertex w carries the bouquet of the gluing that
first built it, with w as its only root that has one.  The bouquet of a
gluing with one cut vertex is the sorted union of its parts' bouquets, and
their concatenation is its certificate (a block key's first byte fixes its
length, so the concatenation parses back into the entries).

Lemma (the certificate is complete).  A graph G with exactly one cut vertex
w is determined up to isomorphism by the multiset of (block class,
Aut(block)-orbit of w), so two such gluings are isomorphic iff their
certificates are equal.  Every block of G holds w, since the block-cut tree
is a star around it.  An isomorphism G -> G' sends w to w' (the only cut
vertices) and blocks to blocks, so it pairs the blocks with equal classes
and carries w to w' within each: the multisets agree.  Conversely, pair the
blocks of equal entries.  In each pair B and B' have one canonical form, in
which w and w' fall in one Aut-orbit, so some isomorphism B -> B' sends w
to w'.  Distinct blocks meet only in w, where these maps all agree, so
together they are an isomorphism G -> G'.

Every class, in either stratum, is canonised by one step, ``canonize``: the
canonical labeling, the canonically labeled copy and the orbit-root mask
read off the automorphism generators of that same labeling.  The one
exception is at ``GENERATION_CAP``, the level nothing glues: there a class
with one cut vertex is kept as the graph of the first gluing with its
certificate, unlabeled, so each costs no canonical labeling at all.  Its
canonical form is computed only when read (``extremal`` does so for the
minimisers it reports).

The classes live in one store, per vertex count and stratum ("cut" or
"block"): keys in sorted order, with the graph, the orbit-root mask and the
hub of each.  A key is the canonical key, except for the one-cut-vertex
classes at the cap, which are keyed by certificate; these begin with a
block's vertex count, below n, so they sort before the canonical keys and
``connected_classes(GENERATION_CAP)`` is not in canonical-key order.
Masks are kept only below the cap, the sizes composition glues (it computes
none at the cap); at the cap each is 0.  The hub of a class with one cut
vertex below the cap is (its cut vertex, its bouquet); it is None for every
other class.  ``rooted_classes(n)`` expands the masks of level n on each
call.
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

# a one-cut-vertex class's hub: (its cut vertex, its bouquet there)
_Hub = tuple[int, tuple[bytes, ...]]

# the class store: (n, stratum) -> (sorted keys, the graph, the orbit-root
# mask and the hub of each)
_store: dict[
    tuple[int, str],
    tuple[tuple[bytes, ...], tuple[Graph, ...], tuple[int, ...], tuple[_Hub | None, ...]],
] = {}


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
    n: int,
    stratum: str,
    graphs: dict[bytes, Graph],
    roots: dict[bytes, int],
    hubs: dict[bytes, _Hub] | None = None,
) -> tuple[Graph, ...]:
    """Store level n of a stratum from its graphs, orbit-root masks and hubs,
    all by key, in key order (masks only below the cap); returns the
    graphs."""
    keys = tuple(sorted(graphs))
    level = tuple(graphs[k] for k in keys)
    masks = tuple(roots[k] if n < GENERATION_CAP else 0 for k in keys)
    _store[n, stratum] = (keys, level, masks, tuple((hubs or {}).get(k) for k in keys))
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
            _store[n, "block"] = ((labeled_key(seed),), (seed,), (1,), (None,))
        else:
            _put(n, "block", *_two_connected(n))
    return _store[n, "block"][1]


def _union(n: int) -> Iterator[tuple[bytes, Graph, int]]:
    """(key, graph, orbit-root mask) of every connected class on n vertices,
    in key order: the two strata merged."""
    block_classes(n)
    classes_with_cut_vertices(n)
    strata = [zip(*_store[n, s][:3]) for s in ("block", "cut")]
    return heapq.merge(*strata, key=itemgetter(0))


def connected_classes(n: int) -> tuple[Graph, ...]:
    """All connected graphs on exactly n vertices, one representative per
    isomorphism class, canonically labeled except the classes with one cut
    vertex at ``GENERATION_CAP``."""
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
    return [(g, root) for g, root, _ in _rooted_parts(n)]


def _rooted_parts(n: int) -> list[tuple[Graph, int, tuple[bytes, ...] | None]]:
    """(graph, root, bouquet) in the order of ``rooted_classes(n)``.  The
    bouquet (see above) is None unless the root is the graph's only cut
    vertex or the graph has none."""
    if not 1 <= n < GENERATION_CAP:
        raise ValueError(f"rooted classes are kept for n in 1..{GENERATION_CAP - 1}")
    block_classes(n)
    classes_with_cut_vertices(n)
    blocks = [
        (key, g, r, (key + bytes([r]),))
        for key, g, roots, _ in zip(*_store[n, "block"])
        for r in bits(roots)
    ]
    cut = [
        (key, g, r, hub[1] if hub is not None and hub[0] == r else None)
        for key, g, roots, hub in zip(*_store[n, "cut"])
        for r in bits(roots)
    ]
    return [part[1:] for part in heapq.merge(blocks, cut, key=itemgetter(0))]


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


def _gluings(n: int) -> Iterator[tuple[Graph, int, Graph, int, tuple[bytes, ...] | None]]:
    """(g1, r1, g2, r2, bouquet) for every pair of rooted classes composition
    glues into n vertices: n1 <= n2 and, when n1 == n2, each unordered pair
    once.  The bouquet is the glued graph's own when it has exactly one cut
    vertex, and None otherwise."""
    for n1 in range(2, (n + 1) // 2 + 1):
        n2 = n + 1 - n1
        left = _rooted_parts(n1)
        right = left if n2 == n1 else _rooted_parts(n2)
        for i, (g1, r1, b1) in enumerate(left):
            for g2, r2, b2 in right[i if n2 == n1 else 0 :]:
                yield g1, r1, g2, r2, None if b1 is None or b2 is None else tuple(sorted(b1 + b2))


def classes_with_cut_vertices(n: int) -> tuple[Graph, ...]:
    """All connected classes on n vertices having at least one cut vertex.
    Below ``GENERATION_CAP`` each is canonically labeled; at the cap those
    with exactly one cut vertex are kept as first glued (see above)."""
    if (n, "cut") in _store:
        return _store[n, "cut"][1]
    at_cap = n == GENERATION_CAP
    found: dict[bytes, Graph] = {}
    roots: dict[bytes, int] = {}
    hubs: dict[bytes, _Hub] = {}
    built: set[bytes] = set()  # certificates of the one-cut-vertex classes
    for g1, r1, g2, r2, bouquet in _gluings(n):
        if bouquet is not None:
            cert = b"".join(bouquet)
            if cert in built:
                continue
            built.add(cert)
            if at_cap:
                # no block key has n vertices, so no certificate is a canonical key
                found[cert] = glue(g1, r1, g2, r2)
                roots[cert] = 0
                continue
        key, canon, mask, orbit_of = canonize(glue(g1, r1, g2, r2), not at_cap, found)
        if canon is not None:
            found[key] = canon
            roots[key] = mask
            if bouquet is not None:
                hubs[key] = orbit_of[r1], bouquet
    return _put(n, "cut", found, roots, hubs)
