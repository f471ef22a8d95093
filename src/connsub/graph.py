"""Immutable bitset-backed simple graphs and their structural queries.

Vertices are dense integers ``0..n-1`` with ``n <= 64`` so every neighbor
set fits in one machine word.  A graph is its vertex count and its
adjacency bitsets, nothing more: the edge list and the edge count are
derived from the bitsets on demand.  All operations are pure; graphs are
safe to share across threads.

``from_edges`` validates input from outside the package.  Graphs built
inside it (relabelled, induced, edge-deleted, glued) are assembled from
bitsets directly, mapping vertex masks through ``map_mask``.

Blocks are vertex masks.  They and the cut vertices come from one bitset
DFS, ``_blocks``: both ``blocks`` and ``cut_vertices`` read it, and it is
also the connectivity check that raises ``DisconnectedGraphError`` for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from typing import Iterable, Sequence

MAX_VERTICES = 64

Edge = tuple[int, int]


class DisconnectedGraphError(ValueError):
    """Raised when an operation that requires a connected graph gets one that is not."""


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on ``0..n-1``: bit v of ``adj[u]`` is set
    exactly when uv is an edge."""

    n: int
    adj: tuple[int, ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[Edge]) -> "Graph":
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        seen: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        adj = [0] * n
        for u, v in seen:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge as ``(u, v)`` with u < v, in sorted order; rebuilt on
        each access, so only the bitsets are ever stored."""
        return tuple(
            (u, v) for u, a in enumerate(self.adj) for v in bits(a >> u + 1 << u + 1)
        )

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def remove_edge(self, u: int, v: int) -> "Graph":
        if not (0 <= u < self.n and 0 <= v < self.n and self.has_edge(u, v)):
            raise ValueError(f"no edge {(u, v) if u < v else (v, u)}")
        adj = list(self.adj)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        return Graph(self.n, tuple(adj))

    def subgraph_on(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on ``vertices``; returns it with the old-id tuple
        (new id ``i`` corresponds to ``old[i]``)."""
        old = tuple(sorted(set(vertices)))
        if not old or old[0] < 0 or old[-1] >= self.n:
            raise ValueError(f"vertices {old} are not a non-empty subset of 0..{self.n - 1}")
        image = [0] * self.n
        for i, v in enumerate(old):
            image[v] = 1 << i
        return Graph(len(old), tuple(map_mask(self.adj[v], image) for v in old)), old

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Relabeled copy where old vertex ``v`` becomes ``perm[v]``."""
        p = tuple(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError(f"relabel needs a permutation of 0..{self.n - 1}, got {p}")
        image = [1 << x for x in p]
        adj = [0] * self.n
        for v, a in enumerate(self.adj):
            adj[p[v]] = map_mask(a, image)
        return Graph(self.n, tuple(adj))


def bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def map_mask(mask: int, image: Sequence[int]) -> int:
    """The union of ``image[v]`` over the vertices v in ``mask``.  With
    single-bit images this maps a vertex set through a vertex map (an image
    of 0 drops the vertex); with ``image = adj`` it is the neighbourhood."""
    out = 0
    for v in bits(mask):
        out |= image[v]
    return out


def reach(adj: Sequence[int], start: int, allowed: int) -> int:
    """Bitmask of vertices reachable from ``start`` staying inside ``allowed``."""
    reached = (1 << start) & allowed
    frontier = reached
    while frontier:
        frontier = map_mask(frontier, adj) & allowed & ~reached
        reached |= frontier
    return reached


def components(adj: Sequence[int], allowed: int) -> list[int]:
    """Vertex masks of the components of the subgraph induced on
    ``allowed``, in order of their lowest vertex."""
    comps = []
    while allowed:
        comp = reach(adj, (allowed & -allowed).bit_length() - 1, allowed)
        comps.append(comp)
        allowed &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return reach(g.adj, 0, full) == full


def _blocks(g: Graph) -> tuple[list[int], int]:
    """Vertex masks of every block, in the order they close, and the mask of
    cut vertices: one bitset DFS (Hopcroft & Tarjan's low-link test).

    ``up[v]`` collects the neighbourhoods of v's DFS subtree. A DFS of an
    undirected graph has no cross edges, so when child v of p finishes, the
    subtree reaches above p (low(v) < disc(p)) exactly when ``up[v]`` meets a
    vertex seen before v other than p; otherwise the subtree's unclaimed
    vertices and p form one block. A vertex in two or more blocks is a cut
    vertex.
    """
    adj = g.adj
    up = list(adj)
    before = [0] * g.n
    seen = unclaimed = 1
    masks: list[int] = []
    cuts = covered = 0
    stack = [0]
    while stack:
        v = stack[-1]
        fresh = adj[v] & ~seen
        if fresh:
            w = (fresh & -fresh).bit_length() - 1
            before[w] = seen
            seen |= 1 << w
            unclaimed |= 1 << w
            stack.append(w)
            continue
        stack.pop()
        if not stack:
            break
        p = stack[-1]
        up[p] |= up[v]
        if up[v] & before[v] == 1 << p:
            block = unclaimed & ~before[v]
            unclaimed ^= block
            block |= 1 << p
            masks.append(block)
            cuts |= covered & block
            covered |= block
    if seen != (1 << g.n) - 1:
        raise DisconnectedGraphError("operation requires a connected graph")
    return masks or [1], cuts  # n = 1: the lone vertex is one block


def cut_vertices(g: Graph) -> frozenset[int]:
    """Articulation vertices: the vertices that lie in two or more blocks."""
    return frozenset(bits(_blocks(g)[1]))


def blocks(g: Graph) -> list[int]:
    """The vertex mask of every block of a connected graph, ordered by
    sorted vertex list.  A bridge is a 2-vertex block and a single-vertex
    graph is one trivial block, so the blocks always cover the vertex set;
    each edge lies in the one block holding both its ends."""
    return sorted(_blocks(g)[0], key=bits)


def girth(g: Graph) -> int | None:
    """Shortest cycle length via BFS from every vertex; None for forests."""
    best: int | None = None
    adj = g.adj
    for root in range(g.n):
        dist = [-1] * g.n
        par = [-1] * g.n
        dist[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            if best is not None and 2 * dist[u] >= best:
                continue
            for w in bits(adj[u]):
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    par[w] = u
                    q.append(w)
                elif w != par[u]:
                    cyc = dist[u] + dist[w] + 1
                    if best is None or cyc < best:
                        best = cyc
        if best == 3:
            break
    return best

