"""Reference counts for checking the benchmark's outputs.

Nothing here imports ``connsub``: every number the benchmark compares
against is computed from first principles or taken from the OEIS.

* ``SubsetCounter`` -- a vertex-subset DP for graphs of up to about ten
  vertices.  For every vertex set S it counts the connected spanning
  subgraphs of G[S], anchored at the highest vertex of S:
  2^{e(S)} = sum over T (top(S) in T, T subset of S) of c(T) 2^{e(S - T)}.
  Any containment count is then a sum over the supersets of the required set.
* closed forms from the paper for the path, star, cycle, lollipop and
  double broom (the broom is the double broom with no leaves at one end);
* connected labelled graph counts by the exponential-formula recurrence
  (OEIS A001187), which give F and f for the complete graph;
* unlabelled class counts: connected graphs (OEIS A001349) and 2-connected
  graphs (OEIS A002218); their difference is the number of classes with a
  cut vertex.
"""

from __future__ import annotations

from collections import deque
from math import comb

#: OEIS A001349, connected unlabelled graphs on n vertices
CONNECTED_CLASSES = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080}
#: OEIS A002218, 2-connected unlabelled graphs on n >= 2 vertices (K2 counted)
TWO_CONNECTED_CLASSES = {2: 1, 3: 1, 4: 3, 5: 10, 6: 56, 7: 468, 8: 7123, 9: 194066}


def cut_classes(n: int) -> int:
    """Number of connected classes on n >= 2 vertices with a cut vertex."""
    return CONNECTED_CLASSES[n] - TWO_CONNECTED_CLASSES[n]


# ---------------------------------------------------------------------------
# graphs as (n, edge list)


def parse_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode a short-form graph6 string (n <= 62)."""
    data = [ord(ch) - 63 for ch in text.strip()]
    n = data[0]
    if not 1 <= n <= 62 or any(not 0 <= x < 64 for x in data):
        raise ValueError(f"not a short-form graph6 string: {text!r}")
    bits = []
    for x in data[1:]:
        bits.extend((x >> s) & 1 for s in range(5, -1, -1))
    edges = []
    i = 0
    for j in range(1, n):
        for u in range(j):
            if bits[i]:
                edges.append((u, j))
            i += 1
    return n, edges


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _reach(adj: list[int], start: int, allowed: int) -> int:
    seen = 1 << start
    todo = [start]
    while todo:
        v = todo.pop()
        new = adj[v] & allowed & ~seen
        seen |= new
        while new:
            low = new & -new
            todo.append(low.bit_length() - 1)
            new ^= low
    return seen


def cut_vertex_count(n: int, edges) -> int:
    """Vertices whose removal disconnects the graph (by n reachability scans)."""
    adj = adjacency(n, edges)
    full = (1 << n) - 1
    count = 0
    for v in range(n):
        rest = full & ~(1 << v)
        if rest and _reach(adj, (rest & -rest).bit_length() - 1, rest) != rest:
            count += 1
    return count


def girth(n: int, edges) -> float:
    """Length of a shortest cycle (inf for a forest), by BFS from every vertex."""
    adj = adjacency(n, edges)
    best = float("inf")
    for s in range(n):
        dist = [-1] * n
        par = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            m = adj[v]
            while m:
                low = m & -m
                w = low.bit_length() - 1
                m ^= low
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    par[w] = v
                    queue.append(w)
                elif w != par[v]:
                    best = min(best, dist[v] + dist[w] + 1)
    return best


# ---------------------------------------------------------------------------
# subset DP


class SubsetCounter:
    """Connected-subgraph counts of one small graph, from its subset table."""

    MAX_N = 12

    def __init__(self, n: int, edges):
        if n > self.MAX_N:
            raise ValueError(f"reference subset DP is for n <= {self.MAX_N}")
        adj = adjacency(n, edges)
        size = 1 << n
        inside = [0] * size  # edges with both ends in S
        for S in range(1, size):
            top = S.bit_length() - 1
            rest = S ^ (1 << top)
            inside[S] = inside[rest] + (adj[top] & rest).bit_count()
        table = [0] * size
        for S in range(1, size):
            high = 1 << (S.bit_length() - 1)
            rest = S ^ high
            total = 1 << inside[S]
            if rest:
                sub = (rest - 1) & rest  # proper subsets of rest, down to 0
                while True:
                    T = high | sub
                    total -= table[T] << inside[S ^ T]
                    if sub == 0:
                        break
                    sub = (sub - 1) & rest
            table[S] = total
        self.n = n
        self.table = table

    def total(self) -> int:
        return sum(self.table)

    def containing(self, vertices) -> int:
        """Connected subgraphs whose vertex set contains every given vertex."""
        mask = 0
        for v in vertices:
            mask |= 1 << v
        free = ((1 << self.n) - 1) & ~mask
        total = 0
        sub = free
        while True:
            total += self.table[mask | sub]
            if sub == 0:
                break
            sub = (sub - 1) & free
        return total

    def min_vertex_count(self) -> tuple[int, tuple[int, ...]]:
        """(min over v of f(v), the vertices attaining it)."""
        fs = [self.containing((v,)) for v in range(self.n)]
        low = min(fs)
        return low, tuple(v for v, f in enumerate(fs) if f == low)


# ---------------------------------------------------------------------------
# closed forms (the paper's formulas, written out independently)


def path_F(n: int) -> int:
    return n * (n + 1) // 2


def star_F(n: int) -> int:
    """Star K_{1,n-1}."""
    return (1 << (n - 1)) + n - 1


def star_f_center(n: int) -> int:
    return 1 << (n - 1)


def star_f_leaf(n: int) -> int:
    return (1 << (n - 2)) + 1


def cycle_f(g: int) -> int:
    """Subgraphs of C_g through one vertex: a path through it, or the cycle."""
    return (g * g + g + 2) // 2


def lollipop_F(n: int, g: int) -> int:
    """C_g with a pendant path of k = n - g vertices: the cycle's g^2 + 1,
    the k(k+1)/2 sub-paths of the tail, and k tail prefixes times each
    cycle subgraph through the attachment vertex."""
    k = n - g
    return g * g + 1 + k * (k + 1) // 2 + k * cycle_f(g)


def lollipop_f_pendant(n: int, g: int) -> int:
    return (n - g) + cycle_f(g)


def double_broom_F(l: int, m: int, d: int) -> int:
    """Path of d >= 1 vertices with l leaves at one end and m at the other.

    A subtree is a single leaf, or a path segment [i..j] extended by any
    subset of the leaves at an end it reaches.
    """
    return l + m + (1 << (l + m)) + (d - 1) * ((1 << l) + (1 << m)) + (d - 1) * (d - 2) // 2


def broom_F(k: int, m: int) -> int:
    """Path of k vertices with m leaves on its last vertex."""
    return double_broom_F(0, m, k)


def broom_f_path_end(k: int, m: int) -> int:
    return (1 << m) + k - 1


# ---------------------------------------------------------------------------
# complete graphs (OEIS A001187)


def connected_labelled(n_max: int) -> list[int]:
    """c[j] = connected labelled graphs on j vertices, j = 0..n_max."""
    c = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        c[n] = (1 << comb(n, 2)) - sum(
            comb(n - 1, k - 1) * c[k] * (1 << comb(n - k, 2)) for k in range(1, n)
        )
    return c


def complete_F(n: int) -> int:
    c = connected_labelled(n)
    return sum(comb(n, k) * c[k] for k in range(1, n + 1))


def complete_f(n: int) -> int:
    c = connected_labelled(n)
    return sum(comb(n - 1, k - 1) * c[k] for k in range(1, n + 1))


def self_test() -> None:
    """Cross-check the subset DP, the closed forms and A001187 on small cases."""
    assert connected_labelled(6)[1:] == [1, 1, 4, 38, 728, 26704]
    for n in range(1, 8):
        kn = SubsetCounter(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        assert kn.total() == complete_F(n) and kn.containing((0,)) == complete_f(n)
    for n in range(2, 9):
        path = SubsetCounter(n, [(i, i + 1) for i in range(n - 1)])
        assert path.total() == path_F(n) == double_broom_F(0, 0, n)
        star = SubsetCounter(n, [(0, i) for i in range(1, n)])
        assert star.total() == star_F(n) == double_broom_F(0, n - 1, 1)
        assert star.containing((0,)) == star_f_center(n)
        assert star.containing((1,)) == star_f_leaf(n)
    for g in range(3, 8):
        for n in range(g, 10):
            edges = [(i, (i + 1) % g) for i in range(g)]
            edges += [(v - 1 if v > g else 0, v) for v in range(g, n)]
            lol = SubsetCounter(n, edges)
            assert lol.total() == lollipop_F(n, g)
            assert lol.containing((n - 1,)) == lollipop_f_pendant(n, g)
    for l, m, d in ((1, 1, 2), (2, 3, 2), (2, 2, 3), (0, 3, 4), (3, 1, 5)):
        n = l + m + d
        edges = [(i, i + 1) for i in range(d - 1)]
        edges += [(0, v) for v in range(d, d + l)]
        edges += [(d - 1, v) for v in range(d + l, n)]
        db = SubsetCounter(n, edges)
        assert db.total() == double_broom_F(l, m, d)
        if l == 0:
            assert db.containing((0,)) == broom_f_path_end(d, m)
