"""Seeded inputs for the ``count-queries`` workload, with reference answers.

Every round asks the same number of queries of each kind; only the graphs
and vertices change with the seed.  A query is one call of the functions
``connsub count`` uses:

* ``F``    -- ``decompose.count_via_decomposition(g)``
* ``f``    -- ``decompose.subgraph_number_via_decomposition(g, v)``
* ``pair`` -- ``census.count_containing(g, (u, v))``

Graphs are built here as (n, edge list) and answered without ``connsub``:

* glued graphs -- a chain of blocks B0, B1, ..., each glued at one vertex
  of the block before it.  The reference applies the merge rule
  F = F1 + F2 - 1 + (f1 - 1)(f2 - 1) block by block, and the vertex rule
  f(x) = f_B(x) + f_B(x, a)(f_rest(a) - 1) for x in the last block B glued
  at a; each block is counted by the reference subset DP;
* random 2-connected blocks (a Hamiltonian cycle plus chords), counted by
  the subset DP, and K11..K13 from OEIS A001187;
* near-trees (stars, brooms, double brooms, hubs carrying edges and
  triangles) and family graphs (paths, cycles, lollipops), from closed forms
  or the chain rule.

Vertex ids are shuffled by a seeded permutation before the graph is handed
over, so the program sees no construction order.

``FAILING`` lists the queries that fail on every seed today, each with the
fault it shows; they stay in every round until the fault is mended.
"""

from __future__ import annotations

import random

import reference as ref


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _lollipop(n, g):
    return _cycle(g) + [(v - 1 if v > g else 0, v) for v in range(g, n)]


#: (label, kind, n, edges, vertices, why it fails); the same on every seed.
FAILING = [
    ("F(C26)", "F", 26, _cycle(26), (), "census size cap: n > 13 and m > 25"),
    ("F(C30)", "F", 30, _cycle(30), (), "census size cap: n > 13 and m > 25"),
    ("F(L(40,30))", "F", 40, _lollipop(40, 30), (), "census size cap on the C30 block"),
    (
        "f(TNrTmad?G?_DO?O???G?C??K????_G?_K??F, 0)",
        "f",
        *ref.parse_graph6("TNrTmad?G?_DO?O???G?C??K????_G?_K??F"),
        (0,),
        "decompose._pair hands the whole 14-vertex part around v to census",
    ),
]


def _block(rng: random.Random, b: int, chords: int) -> list[tuple[int, int]]:
    """2-connected graph on b vertices: a shuffled Hamiltonian cycle plus
    ``chords`` of the remaining pairs (a single edge for b = 2)."""
    if b == 2:
        return [(0, 1)]
    order = list(range(b))
    rng.shuffle(order)
    cycle = {tuple(sorted((order[i], order[(i + 1) % b]))) for i in range(b)}
    others = [(u, v) for u in range(b) for v in range(u + 1, b) if (u, v) not in cycle]
    return sorted(cycle | set(rng.sample(others, min(chords, len(others)))))


def _chords(shape: random.Random, b: int, lo: float, hi: float) -> int:
    return round(shape.uniform(lo, hi) * (b * (b - 1) // 2 - b)) if b > 3 else 0


class Chain:
    """A graph glued from blocks, tracking F and the last block's counts."""

    def __init__(self, b: int, edges):
        self.edges = list(edges)
        self.n = b
        self.last = ref.SubsetCounter(b, edges)
        self.last_ids = list(range(b))  # last block's local id -> global id
        self.glue = None  # local id in the last block where it hangs on
        self.rest_f = 1  # f of the rest of the graph at that vertex
        self.F = self.last.total()

    def f_local(self, x: int) -> int:
        return self.count_local((x,))

    def count_local(self, req) -> int:
        """Connected subgraphs of the whole graph containing the last
        block's local vertices ``req``."""
        own = self.last.containing(req)
        if self.glue is None:
            return own
        if self.glue in req:
            return own * self.rest_f
        return own + self.last.containing(tuple(req) + (self.glue,)) * (self.rest_f - 1)

    def add(self, rng: random.Random, b: int, edges, hub: bool = False) -> None:
        """Glue a block onto the last block: at the vertex where that block
        hangs on (``hub``), or else at a random vertex other than it, which
        keeps the block-cut tree a path."""
        if hub and self.glue is not None:
            at = self.glue
        else:
            at = rng.choice([x for x in range(len(self.last_ids)) if x != self.glue])
        f_at = self.f_local(at)
        block = ref.SubsetCounter(b, edges)
        y = rng.randrange(b)
        ids = []
        for v in range(b):
            if v == y:
                ids.append(self.last_ids[at])
            else:
                ids.append(self.n)
                self.n += 1
        self.edges.extend((ids[u], ids[v]) for u, v in edges)
        self.F = self.F + block.total() - 1 + (f_at - 1) * (block.containing((y,)) - 1)
        self.last, self.last_ids, self.glue, self.rest_f = block, ids, y, f_at


def _shuffled(rng, n, edges, verts):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges], tuple(perm[v] for v in verts)


class _Mix:
    """Query list under construction.

    ``shape`` fixes sizes and edge counts and is the same for every seed, so
    each round costs about the same whatever the seed; ``rng`` (seeded) draws
    which edges, glue points, query vertices and vertex labels.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.shape = random.Random(0)
        self.queries = []  # (label, kind, n, edges, vertices)
        self.expect = []  # int answer, or the name of the exception expected

    def ask(self, label, kind, n, edges, verts, answer):
        edges, verts = _shuffled(self.rng, n, edges, verts)
        self.queries.append((label, kind, n, edges, verts))
        self.expect.append(answer)

    def chain(self, sizes, density=(0.0, 0.0), hub=False) -> Chain:
        """Glue blocks of the given sizes, in order, into one graph."""
        rng, shape = self.rng, self.shape
        chords = [_chords(shape, b, *density) for b in sizes]
        ch = Chain(sizes[0], _block(rng, sizes[0], chords[0]))
        for b, c in zip(sizes[1:], chords[1:]):
            ch.add(rng, b, _block(rng, b, c), hub)
        return ch

    def chain_sizes(self, n: int, sizes) -> list[int]:
        """Block sizes, drawn from ``sizes``, for a chain on n vertices."""
        out = [min(self.shape.choice(sizes), n)]
        total = out[0]
        while total < n:
            b = min(self.shape.choice(sizes), n - total + 1)
            out.append(b)
            total += b - 1
        return out

    def last_vertex(self, ch: Chain) -> int:
        """A local vertex of the last block other than its glue vertex."""
        return self.rng.choice([x for x in range(len(ch.last_ids)) if x != ch.glue])

    def last_pair(self, ch: Chain) -> tuple[int, int]:
        x = self.last_vertex(ch)
        return x, self.rng.choice([v for v in range(len(ch.last_ids)) if v != x])


def build(seed: int):
    """The seeded query list and its expected answers, in round order."""
    mix = _Mix(seed)
    rng, shape = mix.rng, mix.shape

    # glued graphs, n = 10..20: F and f at a vertex of the last block
    for i in range(48):
        ch = mix.chain(mix.chain_sizes(10 + i % 11, (2, 3, 4, 5, 6, 7, 8)), (0.0, 0.5))
        x = mix.last_vertex(ch)
        mix.ask(f"glued{i}:F", "F", ch.n, ch.edges, (), ch.F)
        mix.ask(f"glued{i}:f", "f", ch.n, ch.edges, (ch.last_ids[x],), ch.f_local(x))

    # small glued graphs, n = 9..12: census on a pair in the last block
    for i in range(10):
        ch = mix.chain(mix.chain_sizes(9 + i % 4, (3, 4, 5, 6)), (0.2, 0.6))
        x, y = mix.last_pair(ch)
        ids = (ch.last_ids[x], ch.last_ids[y])
        mix.ask(f"glued-small{i}:pair", "pair", ch.n, ch.edges, ids, ch.count_local((x, y)))

    # random 2-connected blocks, 5..9 vertices: F, f(v) and a pair
    for i in range(60):
        b = 5 + i % 5
        edges = _block(rng, b, _chords(shape, b, 0.05, 0.6))
        cnt = ref.SubsetCounter(b, edges)
        u, v = rng.sample(range(b), 2)
        mix.ask(f"block{i}:F", "F", b, edges, (), cnt.total())
        mix.ask(f"block{i}:f", "f", b, edges, (u,), cnt.containing((u,)))
        mix.ask(f"block{i}:pair", "pair", b, edges, (u, v), cnt.containing((u, v)))

    # dense blocks, 9..10 vertices, and the complete graphs K11..K13
    for i in range(16):
        b = 9 + i % 2
        edges = _block(rng, b, _chords(shape, b, 0.7, 0.95))
        cnt = ref.SubsetCounter(b, edges)
        u = rng.randrange(b)
        mix.ask(f"dense{i}:F", "F", b, edges, (), cnt.total())
        mix.ask(f"dense{i}:f", "f", b, edges, (u,), cnt.containing((u,)))
    for n in (11, 12, 13):
        kn = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mix.ask(f"K{n}:F", "F", n, kn, (), ref.complete_F(n))
        mix.ask(f"K{n}:f", "f", n, kn, (0,), ref.complete_f(n))

    # near-trees with high-degree vertices
    for i, n in enumerate((12, 15, 18, 20, 22, 24)):
        star = [(0, j) for j in range(1, n)]
        mix.ask(f"star{i}:F", "F", n, star, (), ref.star_F(n))
        mix.ask(f"star{i}:f-center", "f", n, star, (0,), ref.star_f_center(n))
        mix.ask(f"star{i}:f-leaf", "f", n, star, (1,), ref.star_f_leaf(n))
    for i, (k, m) in enumerate(((2, 14), (4, 10), (6, 8), (8, 6), (10, 4), (3, 12))):
        broom = [(j, j + 1) for j in range(k - 1)] + [(k - 1, v) for v in range(k, k + m)]
        mix.ask(f"broom{i}:F", "F", k + m, broom, (), ref.broom_F(k, m))
        mix.ask(f"broom{i}:f", "f", k + m, broom, (0,), ref.broom_f_path_end(k, m))
    double_brooms = ((1, 9, 2), (3, 3, 8), (5, 6, 4), (9, 9, 2), (2, 7, 6), (4, 4, 5))
    for i, (l, m, d) in enumerate(double_brooms):
        n = l + m + d
        edges = [(j, j + 1) for j in range(d - 1)]
        edges += [(0, v) for v in range(d, d + l)] + [(d - 1, v) for v in range(d + l, n)]
        mix.ask(f"double-broom{i}:F", "F", n, edges, (), ref.double_broom_F(l, m, d))
    # a hub carrying e pendant edges and t triangles (F about 2^e 7^t); census
    # counts the pair by enumerating subgraphs while m - n <= 2
    for i, (e, t) in enumerate(((10, 1), (8, 2), (5, 3), (3, 4), (11, 1), (12, 0)) * 2):
        sizes = [2] * e + [3] * t
        rng.shuffle(sizes)
        ch = mix.chain(sizes, hub=True)
        x, y = mix.last_pair(ch)
        ids = (ch.last_ids[x], ch.last_ids[y])
        mix.ask(f"hub{i}:F", "F", ch.n, ch.edges, (), ch.F)
        mix.ask(f"hub{i}:f", "f", ch.n, ch.edges, (ids[0],), ch.f_local(x))
        mix.ask(f"hub{i}:pair", "pair", ch.n, ch.edges, ids, ch.count_local((x, y)))

    # family graphs
    for i, n in enumerate((10, 16, 22, 28, 34, 40)):
        path = [(j, j + 1) for j in range(n - 1)]
        mix.ask(f"path{i}:F", "F", n, path, (), ref.path_F(n))
        mix.ask(f"path{i}:f", "f", n, path, (0,), n)
    for i, n in enumerate((10, 13, 16, 19, 22, 25)):
        mix.ask(f"cycle{i}:F", "F", n, _cycle(n), (), n * n + 1)
        mix.ask(f"cycle{i}:f", "f", n, _cycle(n), (0,), ref.cycle_f(n))
    for i, (n, g) in enumerate(((18, 3), (20, 8), (27, 12), (25, 17), (36, 21), (40, 25))):
        lol = _lollipop(n, g)
        mix.ask(f"lollipop{i}:F", "F", n, lol, (), ref.lollipop_F(n, g))
        mix.ask(f"lollipop{i}:f", "f", n, lol, (n - 1,), ref.lollipop_f_pendant(n, g))

    for label, kind, n, edges, verts, _why in FAILING:
        mix.queries.append((label, kind, n, list(edges), tuple(verts)))
        mix.expect.append("CensusLimitError")
    return mix.queries, mix.expect
