"""Isomorph-free generation of small connected graphs.

Every connected graph lies in exactly one of two strata, and each stratum
has its own generator:

* ``_composed(n)`` -- cut-vertex composition: every connected graph with
  a cut vertex is two smaller connected graphs (each with >= 2 vertices)
  glued at one vertex, and every such gluing has a cut vertex.  Gluing
  orbit representatives of all smaller rooted classes therefore
  enumerates exactly the classes with k >= 1.  Repeated gluings are
  dropped by the block-cut tree certificate below, which needs no
  canonical labeling, so composition labels nothing at any level; a class
  is labeled once, when its level's records are first read.

* ``_augmented(n)`` -- the classes without a cut vertex: K1 and K2 as
  seeds, and for n >= 3 the 2-connected classes by canonical augmentation
  (McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998): each
  connected class P on n - 1 vertices gets a new vertex joined to a subset
  S of its vertices, one S per orbit of Aut(P), and the child is kept only
  if the new vertex lies in the canonical deletion orbit defined below.
  Subsets are screened on bitmasks before any graph is built: |S| >= 2,
  S minus c meets every component of P - c for each cut vertex c of P
  (exactly the children that are 2-connected), and no vertex of the child
  has degree below |S|.

Each class is generated once, by its own stratum's generator, and a read
level keeps both strata in one tuple of records in key order.

Lemma (each 2-connected class is accepted exactly once).  For a vertex v
of a child G, let I(v) be the sorted degrees of v's neighbours and the
number of edges among them.  Let B(G) be the vertices of minimum degree
whose I is greatest, m(G) the vertex of B(G) with the smallest canonical
label, and call its Aut(G)-orbit the canonical deletion orbit.  Accept
(P, S) iff the new vertex lies in that orbit.

1. Every 2-connected G on n vertices is (G - w) + w for any vertex w, and
   G - w is connected.  Take w = m(G): G - w is isomorphic to some class P,
   and w's neighbourhood maps to a subset S of P that passes the three
   screens (G is 2-connected, and w has the minimum degree |S|).  So P plus
   a vertex joined to S is isomorphic to G with the new vertex sent to w.
2. The canonical deletion orbit is isomorphism-invariant.  I is read from
   degrees and adjacency alone, so any isomorphism G -> G' maps B(G) onto
   B(G'); the canonical labeling depends only on the isomorphism class, up
   to an automorphism, so it maps the orbit of m(G) onto the orbit of
   m(G').  A pair is therefore accepted iff every pair isomorphic to it (as
   graph plus new vertex) is accepted.
3. Subsets in one Aut(P)-orbit give isomorphic (child, new vertex) pairs,
   so keeping one S per orbit loses nothing by (1) and (2).  Conversely, let
   (P, S) and (P', S') both be accepted with isomorphic children.  By (2)
   an isomorphism can be chosen to send new vertex to new vertex; it then
   restricts to P -> P', so P = P' (one canonical representative per
   class), and it is an automorphism of P carrying S to S'.  So S and S'
   are one orbit and were reduced to one representative.

Hence the accepted children are the 2-connected classes, each once, and
no set of seen children is needed.

B(G) is Aut-invariant, so the deletion orbit lies inside it and m(G) is
the least label of its orbit.  A child whose new vertex is not in B(G) is
therefore rejected before it is labeled.  A child with B(G) = {new} is
accepted without a labeling: every automorphism maps B(G) onto itself, so
it fixes the new vertex, which is then m(G) and its whole orbit.  Any
other child is labeled once, which gives m(G) as the least canonical label
in B(G), and accepted iff that is the orbit root of the new vertex.  The
parents' automorphism generators are read from their records, where their
own labeling left them, so no parent is labeled again.

Every class below the cap has one record, a ``_Class``: its key, its
orbit roots and Aut generators in canonical labels (as ``canonize`` gave
them), and its block list: per block, the block's class (K2 or a
2-connected class, itself a record) and its vertices in that class's
canonical order.  A class without a cut vertex is its own single block.
The record reads its cut vertices, those in two or more blocks, from that
list once, as a mask: augmentation splits a parent there, and composition
reads a part's bouquet and pieces from it, so no block DFS runs here.
Every block of a gluing is a block of one part, so the glued graph's list
is the parts' lists with g2's vertices renamed as ``glue`` renames them,
and the canonical relabeling renames them again: no block is ever labeled.

The certificate of a gluing roots its block-cut tree at the centre.  Every
leaf of that tree is a block, so any two leaves are an even distance apart
and the centre is a single node.  A block B entered at cut vertex e (its
neighbour towards the centre) is coded as its class key followed by

* the orbit root of e's label in B, if B is a leaf (e is its only cut
  vertex), or else
* the byte 0xfe and the least image under Aut(B) of B's colouring, the
  least of its orbit closed under B's generators by ``canon.orbit``: 0xff at
  e, and at every other vertex v the code of v, which is the number of
  blocks at v other than B followed by their codes, sorted (a single 0 for
  a vertex in no other block).

The centre block is coded the same way with no vertex e.  A centre cut
vertex w is coded as the sorted codes of its blocks, concatenated.  The
certificate is the centre's code.  A key's first byte fixes its length, the
byte after it tells a leaf (an orbit root, below 0xfe) from an inner block,
and a vertex code's first byte counts the block codes that follow, so every
code parses back into the tree it was made from (Aho, Hopcroft and Ullman's
tree code, 1974, over blocks labeled up to automorphism).

Lemma (the certificate is complete).  Two gluings are isomorphic iff their
certificates are equal.  Call the piece of B at e the union of B and all
blocks beyond B's vertices other than e, rooted at e; the piece of a cut
vertex v under B, the union of the pieces of v's other blocks, rooted at v.
By induction on height, two pieces have equal codes iff some isomorphism
maps one onto the other, root to root.

1. A leaf block: two leaves are isomorphic with e sent to e' iff they have
   one class and, in its canonical form, e and e' lie in one Aut-orbit.
2. An inner block: an isomorphism of pieces maps B onto B' (e's only block
   in the piece) and the piece at each vertex v onto the piece at its
   image, so read in canonical labels it is an automorphism of the class
   carrying one colouring onto the other, and the least images agree.
   Conversely, an automorphism carrying one colouring onto the other pairs
   vertices with equal codes, whose pieces are isomorphic by induction;
   the pieces meet B only at their roots, so these maps and the
   automorphism agree where they meet and together map piece onto piece.
3. A cut vertex: its piece is its blocks' pieces glued at v, so two are
   isomorphic iff the blocks' codes agree as multisets.

The centre is isomorphism-invariant, so an isomorphism maps centre to
centre (cut vertex to cut vertex, block to block), and the whole graph is
the piece of its centre.

Composition codes a gluing at w from its parts, without building its tree.
A piece's height is the distance in the tree from its root to its farthest
leaf (1 for a leaf block); an arm of a node is the piece of a neighbour
beyond it, one longer than that piece.

Lemma (the walk).  (1) A node is the centre iff its two longest arms are
equal.  Let D be the tree's diameter and c its centre, the middle of every
longest path: two arms of c reach D/2, and a longer one would make a longer
path.  Let x be any other node, d from c, and z the end of a longest path
through c on the side away from x.  The arm of x towards c reaches z, d +
D/2 away.  A leaf y in any other arm lies at most D/2 - d from x, since the
path from y through x and c to z is at most D long.  So the longest arm of
x leads towards c and is at least 2d longer than any other.  (2) A piece of
the glued tree that does not hold w (except perhaps as its root) is a piece
of one part, and its code and height there are that part's own: its
blocks, and which of their vertices are cut vertices, are the same in both
graphs.

So a gluing's arms at w are both parts' pieces at their roots.  If the two
longest tie, w is the centre; else the walk steps along the longest arm,
which holds the centre, carrying the height of the arm back towards w, and
stops at the first node whose two longest arms tie.  Only the nodes on the
path back from the centre to w hold w, and each is coded once, from the
piece before it on the path and its other pieces (one ``_Class.least`` per
block); every other piece is read from its part's memo, a ``_Pieces`` per
part class holding the height and code of each piece by (block, entry
vertex), kept for one composition call.

A part whose cut vertices lie within its root carries its bouquet there:
its arms are leaves, each coded ``block key + bytes([root's orbit root in
the block])``, and it needs no memo, since no walk enters a leaf.  Gluing
(g1, r1) to (g2, r2) gives c1 + c2 + 1 cut vertices, where c_i counts the
cut vertices of g_i other than r_i; so two parts with bouquets give exactly
one, w is the centre, and the certificate is the sorted union of their
bouquets, joined without the arms.

A class in either stratum is labeled only when a verdict or a record
needs its labels, and then by one step, ``canon.canonize``: the canonical
key and copy, and the orbit roots and automorphism generators of that same
labeling, already in canonical labels, so nothing here translates them.
Composition stores each level's classes with a cut vertex as a
``_Gluings``: the rooted parts (record 1, r1, record 2, r2) of each
certificate's first gluing, in certificate order, glued when read, and
``extremal`` evaluates them from the parts' counts.  Augmentation stores
each level's accepted children: unlabeled if accepted by the singleton
rule, else the canonical copy its verdict made, which gets its record at
once below the cap; ``extremal`` evaluates the children as they are.  The
first read of a level's records (any of the four public readers, or
augmenting n + 1) canonises each unlabeled child, puts the canonical copies
in the children's place, then canonises each kept gluing, whose labels fix
``canonize``'s generators, and files the whole level by canonical key.

The classes live in one store, which keeps every level the same way.  A
read level is one tuple of records under (n, "records"), in key order,
each a full record at any n.  A level's part pairs stay under
(n, "gluings") for life, so its classes with a cut vertex have one row
order, the certificate order, whether or not its records were read.  Its
classes without a cut vertex stay under (n, "children") for life, in
augmentation order, so they have one row order too: the accepted children
beside the records of those labeled for their verdict, by position (none
at the cap), until the level is read, and their canonical copies after.
No level above the cap is generated, and ``rooted_classes(n)`` reads the
orbit roots of level n's records per call.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from operator import attrgetter, itemgetter

from .canon import canonize, orbit
from .graph import MAX_VERTICES, Graph, bits, components

# largest n an exhaustive search generates; n = 10 would need about 2 M
# classes with a cut vertex from composition alone
GENERATION_CAP = 9


# one shared object per orbit-root pattern, vertex order, permutation and
# generator list: the 11,117 classes on 8 vertices have 137 root patterns,
# and the 12,112 classes on at most 8 vertices hold 577 distinct generator
# lists of 1,176 permutations
_shared: dict[bytes | tuple, bytes | tuple] = {}


class _Class:
    """A class as the store holds it: its key and graph, per canonical label
    the least label of its Aut-orbit, generators of Aut in canonical labels,
    its block list (``None``: its own single block) and the mask of its cut
    vertices, those in two or more blocks.  Equal roots, vertex orders,
    permutations and generator lists are shared between classes.  Two leaf
    pairs of ``canonize``'s search may give the same generator; it is kept
    once, as every orbit closure pays for each generator."""

    __slots__ = ("key", "graph", "roots", "gens", "blocks", "cut")

    def __init__(
        self,
        key: bytes,
        graph: Graph,
        roots: bytes,
        auts: list[tuple[int, ...]],
        blocks: tuple[_Block, ...] | None = None,
    ):
        self.key = key
        self.graph = graph
        self.roots = _shared.setdefault(roots, roots)
        unique = dict.fromkeys(auts)
        gens = tuple(map(_shared.setdefault, unique, unique))
        self.gens = _shared.setdefault(gens, gens)
        if blocks is None:
            own = bytes(range(len(roots)))  # its canonical labels
            blocks = ((self, _shared.setdefault(own, own)),)
        self.blocks = blocks
        seen = cut = 0
        for _, verts in blocks:
            for v in verts:
                cut |= seen & 1 << v
                seen |= 1 << v
        self.cut = cut

    def least(self, colours: list[bytes]) -> bytes:
        """The least image under Aut of ``colours``, one per canonical label."""
        if len(colours) == 2:
            a, b = colours  # K2: the lesser of its two orders
            return min(a + b, b + a)
        getters = [itemgetter(*a) for a in self.gens]
        return b"".join(min(orbit(tuple(colours), getters, set())))


# a block of a graph: its class and its vertices in the class's canonical order
_Block = tuple[_Class, bytes]
# a rooted class as composition glues it: (record, root, bouquet)
_Part = tuple[_Class, int, tuple[bytes, ...] | None]
# the rooted parts (record 1, r1, record 2, r2) of a gluing
_Pair = tuple[_Class, int, _Class, int]


class _Gluings(Sequence[Graph]):
    """A level's classes with a cut vertex as part pairs, in ``pairs``, glued when read."""

    def __init__(self, pairs: tuple[_Pair, ...]):
        self.pairs = pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, i: int) -> Graph:
        cls1, r1, cls2, r2 = self.pairs[i]
        return glue(cls1.graph, r1, cls2.graph, r2)


# the class store (see above): (n, "records") -> a read level; (n, "gluings")
# -> a level's part pairs; (n, "children") -> its classes without a cut vertex
_store: dict[
    tuple[int, str],
    tuple[_Class, ...] | tuple[tuple[Graph, ...], dict[int, _Class]] | _Gluings,
] = {}


def _augmented(n: int) -> Sequence[Graph]:
    """Level n's classes without a cut vertex in augmentation order: its
    accepted children, unlabeled or labeled for their verdict, until the
    level is read (see above), and their canonical copies once it is."""
    if not 1 <= n <= GENERATION_CAP:
        raise ValueError(f"classes are generated for n in 1..{GENERATION_CAP}")
    if (n, "children") not in _store:
        if n <= 2:  # K1 and K2
            _store[n, "children"] = (Graph(n, (0,) if n == 1 else (0b10, 0b01)),), {}
        else:
            _store[n, "children"] = _two_connected(n)
    return _store[n, "children"][0]


def _records(n: int) -> tuple[_Class, ...]:
    """Level n's records, both strata, in key order.  The first call labels
    the level's unlabeled children, puts their canonical copies in their
    place, then labels its gluings, and files them all by key."""
    if (n, "records") not in _store:
        children = _augmented(n)
        labeled = _store[n, "children"][1]
        records = []
        for i, g in enumerate(children):
            cls = labeled.get(i)
            if cls is None:
                key, g, _, roots, auts = canonize(g)
                cls = _Class(key, g, roots, auts)
            records.append(cls)
        # the children go before the first gluing is labeled, never held with it
        _store[n, "children"] = tuple(cls.graph for cls in records), {}
        del children, labeled
        level = _composed(n)
        for pair, g in zip(level.pairs, level):
            key, g, pos, roots, auts = canonize(g)
            blocks = tuple((b, bytes(pos[v] for v in vs)) for b, vs in _glued_blocks(*pair))
            records.append(_Class(key, g, roots, auts, blocks))
        _store[n, "records"] = tuple(sorted(records, key=attrgetter("key")))
    return _store[n, "records"]


def block_classes(n: int) -> tuple[Graph, ...]:
    """The connected classes on n vertices without a cut vertex: K1, K2
    and, for n >= 3, the 2-connected classes, canonically labeled in key
    order."""
    return tuple(cls.graph for cls in _records(n) if len(cls.blocks) == 1)


def classes_with_cut_vertices(n: int) -> tuple[Graph, ...]:
    """All connected classes on n vertices having at least one cut vertex,
    canonically labeled in key order."""
    return tuple(cls.graph for cls in _records(n) if len(cls.blocks) > 1)


def connected_classes(n: int) -> tuple[Graph, ...]:
    """All connected graphs on exactly n vertices, one representative per
    isomorphism class, canonically labeled in key order."""
    return tuple(cls.graph for cls in _records(n))


def _two_connected(n: int) -> tuple[tuple[Graph, ...], dict[int, _Class]]:
    """The accepted children of canonical augmentation on n >= 3 vertices,
    one per 2-connected class (see the lemma above).  A child accepted by
    the singleton rule is kept unlabeled; any other is labeled for its
    verdict and kept as its canonical copy, and below the cap the record
    that labeling gives is kept too, by the child's position."""
    new = n - 1
    children: list[Graph] = []
    labeled: dict[int, _Class] = {}
    for record in _records(n - 1):
        parent = record.graph
        for subset in _subset_orbit_reps(record):
            # the new vertex n - 1 joined to every vertex of the subset
            adj = [a | 1 << new if subset >> v & 1 else a for v, a in enumerate(parent.adj)]
            adj.append(subset)
            best = _deletion_candidates(adj, subset.bit_count())
            if best is None:
                continue
            child = Graph(n, tuple(adj))
            if len(best) > 1:  # else B(child) = {new}: accepted unlabeled
                key, child, pos, roots, auts = canonize(child)
                # m(child), the least canonical label in the Aut-invariant
                # set ``best``, is the least label of its orbit
                if roots[pos[new]] != min(pos[v] for v in best):
                    continue
                if n < GENERATION_CAP:
                    labeled[len(children)] = _Class(key, child, roots, auts)
            children.append(child)
    return tuple(children), labeled


def _deletion_candidates(adj: list[int], size: int) -> list[int] | None:
    """The vertices of minimum degree ``size`` whose invariant I (see the
    lemma above) is greatest, or None if the last vertex is not among them."""
    deg = [a.bit_count() for a in adj]

    def invariant(v: int) -> tuple[tuple[int, ...], int]:
        nbrs = [u for u in range(len(adj)) if adj[v] >> u & 1]
        inner = sum((adj[u] & adj[v]).bit_count() for u in nbrs) // 2
        return tuple(sorted(deg[u] for u in nbrs)), inner

    new = len(adj) - 1
    own = invariant(new)
    best = [new]
    for v in range(new):
        if deg[v] == size:
            other = invariant(v)
            if other > own:
                return None
            if other == own:
                best.append(v)
    return best


def _subset_orbit_reps(record: _Class) -> list[int]:
    """One subset S of the record's vertices per orbit of its generators
    such that its graph p plus a vertex joined to S is 2-connected with
    minimum degree |S|."""
    p = record.graph
    full = (1 << p.n) - 1
    # S must meet every component of p - c, for every cut vertex c
    sides = [side for c in bits(record.cut) for side in components(p.adj, full & ~(1 << c))]
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
    getters = [itemgetter(*a) for a in record.gens]
    seen: set[tuple[int, ...]] = set()
    reps = []
    for s in kept:
        # s as a 0/1 tuple indexed by vertex, moved by each generator's getter
        indicator = tuple(s >> v & 1 for v in range(p.n))
        if indicator not in seen:
            reps.append(s)
            orbit(indicator, getters, seen)
    return reps


def rooted_classes(n: int) -> Iterator[_Part]:
    """(record, root, bouquet) for each class on n vertices in key order and
    each of its vertex orbits, rooted at the orbit's least vertex, made as
    they are read from level n's records, which the call reads.  The bouquet
    (see above) is None unless the class's cut vertices lie within the root.
    Kept for n < ``GENERATION_CAP``, the sizes composition glues."""
    if not 1 <= n < GENERATION_CAP:
        raise ValueError(f"rooted classes are kept for n in 1..{GENERATION_CAP - 1}")
    return (
        (cls, r, None if cls.cut & ~(1 << r) else _bouquet(cls, r))
        for cls in _records(n)
        for r in sorted(set(cls.roots))
    )


def _bouquet(cls: _Class, r: int) -> tuple[bytes, ...]:
    """The sorted leaf codes of a class whose cut vertices lie within r."""
    return tuple(sorted(b.key + bytes([b.roots[verts.index(r)]]) for b, verts in cls.blocks))


def _labels(n1: int, r1: int, n2: int, r2: int) -> list[int]:
    """Where ``glue`` puts each vertex of g2."""
    label = [n1 + v - (v > r2) for v in range(n2)]
    label[r2] = r1
    return label


def glue(g1: Graph, r1: int, g2: Graph, r2: int) -> Graph:
    """Identify root r2 of g2 with root r1 of g1.  g1 keeps its labels; g2's
    other vertices become g1.n, g1.n + 1, ... in their original order."""
    if not (0 <= r1 < g1.n and 0 <= r2 < g2.n):
        raise ValueError(f"roots ({r1}, {r2}) out of range for n = ({g1.n}, {g2.n})")
    n = g1.n + g2.n - 1
    if n > MAX_VERTICES:
        raise ValueError(f"glued graph has {n} > {MAX_VERTICES} vertices")
    n1, low = g1.n, (1 << r2) - 1
    adj = list(g1.adj) + [0] * (g2.n - 1)
    for v, a in zip(_labels(n1, r1, g2.n, r2), g2.adj):
        # g2's vertices below r2 move up by n1, those above it by n1 - 1
        adj[v] |= (a & low) << n1 | (a >> r2 + 1) << n1 + r2 | (a >> r2 & 1) << r1
    return Graph(n, tuple(adj))


def _glued_blocks(cls1: _Class, r1: int, cls2: _Class, r2: int) -> list[_Block]:
    """The block list of the two rooted classes glued, in ``glue``'s labels."""
    label = _labels(cls1.graph.n, r1, cls2.graph.n, r2)
    return [*cls1.blocks, *((b, bytes(map(label.__getitem__, verts))) for b, verts in cls2.blocks)]


class _Pieces:
    """The pieces (see above) of one part class in its own labels, their
    heights and codes memoised by (block, entry vertex), and the walk from
    a glue vertex to the centre."""

    __slots__ = ("blocks", "at", "cuts", "heights", "codes")

    def __init__(self, cls: _Class):
        self.blocks = cls.blocks
        self.at: list[list[int]] = [[] for _ in cls.roots]  # the blocks at each vertex
        for i, (_, verts) in enumerate(self.blocks):
            for v in verts:
                self.at[v].append(i)
        # per block, (position, vertex) of each of its cut vertices
        self.cuts = [
            [(k, v) for k, v in enumerate(verts) if cls.cut >> v & 1] for _, verts in self.blocks
        ]
        self.heights: dict[tuple[int, int], int] = {}
        self.codes: dict[tuple[int, int], bytes] = {}

    def height(self, i: int, e: int) -> int:
        """The height of block i's piece at e: 1 for a leaf."""
        h = self.heights.get((i, e))
        if h is None:
            top = max((self.beyond(v, i) for _, v in self.cuts[i] if v != e), default=-1)
            h = self.heights[i, e] = top + 2
        return h

    def beyond(self, v: int, i: int) -> int:
        """The height of cut vertex v's piece under block i."""
        return max(self.height(j, v) for j in self.at[v] if j != i)

    def code(self, i: int, e: int) -> bytes:
        """The code of block i's piece at e."""
        c = self.codes.get((i, e))
        if c is None:
            cls, verts = self.blocks[i]
            if self.height(i, e) == 1:
                c = cls.key + bytes([cls.roots[verts.index(e)]])
            else:
                c = cls.key + b"\xfe" + cls.least(self.colours(i, e, b"\xff"))
            self.codes[i, e] = c
        return c

    def under(self, v: int, i: int) -> bytes:
        """The code of cut vertex v's piece under block i."""
        codes = sorted([self.code(j, v) for j in self.at[v] if j != i])
        return bytes([len(codes)]) + b"".join(codes)

    def colours(self, i: int, e: int, code: bytes, skip: int = -1) -> list[bytes]:
        """Block i's colouring with ``code`` at e, the code under block i at
        each other cut vertex but ``skip`` (0xff there) and a single 0 elsewhere."""
        verts = self.blocks[i][1]
        colours = [b"\x00"] * len(verts)
        for k, v in self.cuts[i]:
            if v != e:
                colours[k] = b"\xff" if v == skip else self.under(v, i)
        colours[verts.index(e)] = code
        return colours

    def centre(self, i: int, e: int, code: bytes, back: int) -> bytes:
        """The certificate of a gluing whose longest arm at its glue vertex
        e enters block i and is longer than any other: ``code`` is e's code
        under block i and ``back`` the height of that piece plus one.  Each
        node steps along its longest arm until its two longest tie, and is
        coded as the piece of the node it steps to."""
        while True:
            cls = self.blocks[i][0]
            ahead = [(self.beyond(u, i), u) for _, u in self.cuts[i] if u != e]
            (h, v), *rest = sorted(ahead, reverse=True)
            runner = max(back - 1, rest[0][0] if rest else 0)
            if h == runner:  # block i is the centre
                return cls.key + b"\xfe" + cls.least(self.colours(i, e, code))
            code, back = cls.key + b"\xfe" + cls.least(self.colours(i, e, code, v)), runner + 2
            # cut vertex v, entered from block i
            ahead = [(self.height(k, v), k) for k in self.at[v] if k != i]
            (h, j), *rest = sorted(ahead, reverse=True)
            runner = max(back, rest[0][0] if rest else 0)
            codes = [self.code(k, v) for _, k in rest] + [code]
            if h == runner:  # v is the centre
                return b"".join(sorted(codes + [self.code(j, v)]))
            code, back = bytes([len(codes)]) + b"".join(sorted(codes)), runner + 1
            i, e = j, v


# a part's arms at its root, longest first: their heights and a closing 0,
# then their codes and None for a bouquet, else their blocks and its pieces
_Arms = tuple[tuple[int, ...], tuple[bytes, ...] | tuple[int, ...], _Pieces | None]


def _arms(part: _Part, pieces: dict[_Class, _Pieces]) -> _Arms:
    """The arms of ``part`` at its root, its class's pieces kept in ``pieces``."""
    cls, r, bouquet = part
    if bouquet is not None:  # its arms are its leaves
        return (1,) * len(bouquet) + (0,), bouquet, None
    own = pieces.get(cls)
    if own is None:
        own = pieces[cls] = _Pieces(cls)
    heights, blocks = zip(*sorted(((own.height(i, r), i) for i in own.at[r]), reverse=True))
    return heights + (0,), blocks, own


def _codes(r: int, arms: _Arms, start: int = 0) -> tuple[bytes, ...]:
    """The codes of a part's arms at its root r, from the ``start``-th longest on."""
    _, own, pieces = arms
    return own[start:] if pieces is None else tuple(pieces.code(i, r) for i in own[start:])


def _certificate(r1: int, arms1: _Arms, r2: int, arms2: _Arms) -> bytes:
    """The certificate of two parts glued at their roots r1 and r2, from
    their arms: the sorted arm codes if the two longest arms tie, so that
    the glue vertex is the centre, else the walk along the longest."""
    if arms1[0] < arms2[0]:
        r1, arms1, r2, arms2 = r2, arms2, r1, arms1
    heights, own, pieces = arms1
    runner = max(heights[1], arms2[0][0])
    if heights[0] == runner:
        return b"".join(sorted(_codes(r1, arms1) + _codes(r2, arms2)))
    rest = _codes(r1, arms1, 1) + _codes(r2, arms2)
    return pieces.centre(own[0], r1, bytes([len(rest)]) + b"".join(sorted(rest)), runner + 1)


def _gluings(n: int) -> Iterator[tuple[_Part, _Part, bytes]]:
    """(part 1, part 2, certificate) for every pair of rooted classes
    composition glues into n vertices: n1 <= n2 and, when n1 == n2, each
    unordered pair once.  Each part class's pieces are coded once per call;
    a class of order n - 1 meets only the rooted K2, and its roots come in
    a row, so its parts are made as they are glued and one such class's
    pieces are kept at a time."""
    pieces: dict[_Class, _Pieces] = {}
    for n1 in range(2, (n + 1) // 2 + 1):
        n2 = n + 1 - n1
        left = [(p, _arms(p, pieces)) for p in rooted_classes(n1)]
        if n2 == n1:
            right = left
        elif n1 == 2:  # the rooted K2 alone on the left
            right = _one_class_at_a_time(rooted_classes(n2))
        else:
            right = [(p, _arms(p, pieces)) for p in rooted_classes(n2)]
        for i, (p1, arms1) in enumerate(left):
            b1 = p1[2]
            for p2, arms2 in right[i:] if n2 == n1 else right:
                b2 = p2[2]
                if b1 is not None and b2 is not None:  # one cut vertex
                    cert = b"".join(sorted(b1 + b2))
                else:
                    cert = _certificate(p1[1], arms1, p2[1], arms2)
                yield p1, p2, cert


def _one_class_at_a_time(parts: Iterator[_Part]) -> Iterator[tuple[_Part, _Arms]]:
    """Each part with its arms, keeping the pieces of the current class only."""
    pieces: dict[_Class, _Pieces] = {}
    for p in parts:
        if p[0] not in pieces:
            pieces.clear()
        yield p, _arms(p, pieces)


def _composed(n: int) -> _Gluings:
    """Level n's part pairs, each certificate's first gluing, in certificate
    order."""
    if not 1 <= n <= GENERATION_CAP:
        raise ValueError(f"classes are generated for n in 1..{GENERATION_CAP}")
    if (n, "gluings") not in _store:
        pairs: dict[bytes, _Pair] = {}
        for (cls1, r1, _), (cls2, r2, _), cert in _gluings(n):
            if cert not in pairs:
                pairs[cert] = cls1, r1, cls2, r2
        _store[n, "gluings"] = _Gluings(tuple(pairs[cert] for cert in sorted(pairs)))
    return _store[n, "gluings"]
