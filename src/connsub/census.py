"""Exact counting and enumeration of connected subgraphs.

A connected subgraph is a pair ``(V', E')`` with ``E'`` drawn from the edges
induced on ``V'``; single vertices count, the empty graph does not.  With two
or more vertices such a subgraph has no isolated vertex, so it is exactly a
non-empty connected edge subset.  All counts are exact Python integers.

Three counting routes are provided:

* a vertex-subset dynamic program (polynomial in 2^n, n <= 13),
* a recursive enumerator growing connected edge sets from an anchor edge,
* a naive loop over all 2^m edge subsets (the cross-check oracle, m <= 18).

The count queries take one of the first two: the subset DP when n <= 13
and m - n > 2, otherwise the enumerator, which refuses m > 25.  On a
near-tree (m - n <= 2), then, a query and ``count_by_enumeration`` are one
route, and only the edge-subset loop checks them independently.
"""

from __future__ import annotations

from typing import Callable, Collection, Sequence

from .graph import Graph, bits, map_mask

# Routing limits for count queries.  The subset DP costs ~3^n, the
# enumerator is linear in the number of subgraphs it visits, the naive
# loop costs 2^m.  A near-tree (m - n <= 2) has up to 2^m + n <= 2^(n+2) + n
# connected subgraphs (a star has 2^(n-1) + n - 1), well below the DP's 3^n:
# the enumerator is about twice as fast at n = 13 and the only route above,
# so near-trees go to the enumerator at any size.
_DP_MAX_N = 13
_ENUM_MAX_M = 25
_NAIVE_MAX_M = 18


class CensusLimitError(ValueError):
    """Input too large for exact brute-force counting; decompose it first."""


def _req_mask(g: Graph, req: Collection[int]) -> int:
    mask = 0
    for v in req:
        if not 0 <= v < g.n:
            raise ValueError(f"required vertex {v} out of range")
        mask |= 1 << v
    return mask


def connected_set_table(g: Graph) -> list[int]:
    """For every vertex subset S (as a bitmask), the number of connected
    subgraphs whose vertex set is exactly S.

    Entry for a singleton is 1 (the one-vertex subgraph); for |S| >= 2 it is
    the number of connected edge subsets spanning S.  Every counting query
    is a partial sum of this table:

        F(G)                     = sum over all S
        f_G(v)                   = sum over S containing v
        count with required set R = sum over S containing R
    """
    n = g.n
    if n > _DP_MAX_N:
        raise CensusLimitError(f"subset table needs n <= {_DP_MAX_N}, got {n}")
    adj = g.adj
    size = 1 << n
    # ecnt[S] = number of edges inside S
    ecnt = [0] * size
    for S in range(1, size):
        low = S & -S
        v = low.bit_length() - 1
        rest = S ^ low
        ecnt[S] = ecnt[rest] + (adj[v] & rest).bit_count()
    npow = [1 << e for e in ecnt]

    # Recurrence: splitting any edge subset of G[S] by the component of the
    # lowest vertex v0 gives  2^{e(S)} = sum over T (v0 in T, T subseteq S) of
    # table[T] * 2^{e(S minus T)}, with table[{v0}] = 1 covering the case
    # where v0 is untouched by edges.
    table = [0] * size
    for v in range(n):
        table[1 << v] = 1
    for S in range(1, size):
        low = S & -S
        rest = S ^ low
        if not rest:
            continue
        acc = 0
        sub = (rest - 1) & rest
        while True:
            t = table[low | sub]
            if t:
                acc += t * npow[rest ^ sub]
            if sub == 0:
                break
            sub = (sub - 1) & rest
        table[S] = npow[S] - acc
    return table


def _count_from_table(table: Sequence[int], size: int, req_mask: int) -> int:
    if req_mask == 0:
        return sum(table)
    return sum(table[S] for S in range(size) if S & req_mask == req_mask)


def _walk(g: Graph, rmask: int, visit: Callable[[int, int], None]) -> None:
    """Call ``visit(edge_mask, vertex_mask)`` once for every connected
    subgraph whose vertex set contains ``rmask``; bit i of ``edge_mask``
    stands for ``g.edges[i]``.

    Single vertices come first.  Edge sets are then grown from an anchor
    edge, extending only with eligible edges of larger index; extensions
    skipped at one branch are excluded from the whole subtree, so no set is
    produced twice.
    """
    if rmask.bit_count() <= 1:
        for v in range(g.n):
            if rmask == 0 or rmask == 1 << v:
                visit(0, 1 << v)
    inc = [0] * g.n  # vertex -> bitmask of incident edge indices
    emask = []  # edge index -> vertex pair bitmask
    for i, (u, v) in enumerate(g.edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
        emask.append(1 << u | 1 << v)

    def grow(sel: int, vmask: int, banned: int, above: int) -> None:
        if vmask & rmask == rmask:
            visit(sel, vmask)
        taken = 0
        for j in bits(map_mask(vmask, inc) & ~sel & ~banned & above):
            grow(sel | 1 << j, vmask | emask[j], banned | taken, above)
            taken |= 1 << j

    for i in range(len(emask)):
        grow(1 << i, emask[i], 0, -1 << i + 1)


def count_by_enumeration(g: Graph, req: Collection[int] = ()) -> int:
    """Count via the recursive connected-extension enumerator."""
    if g.m > _ENUM_MAX_M:
        raise CensusLimitError(f"enumeration needs m <= {_ENUM_MAX_M}, got {g.m}")
    total = 0

    def bump(_sel: int, _vmask: int) -> None:
        nonlocal total
        total += 1

    _walk(g, _req_mask(g, req), bump)
    return total


def count_by_edge_subsets(g: Graph, req: Collection[int] = ()) -> int:
    """Independent oracle: loop over all 2^m edge subsets with a direct
    connectivity check.  Exponential; kept only to cross-check conventions.
    """
    m = g.m
    if m > _NAIVE_MAX_M:
        raise CensusLimitError(f"naive subset loop needs m <= {_NAIVE_MAX_M}, got {m}")
    rmask = _req_mask(g, req)
    emask = [(1 << u) | (1 << v) for u, v in g.edges]
    count = 0
    if rmask.bit_count() <= 1:
        count += g.n if rmask == 0 else 1
    for sub in range(1, 1 << m):
        chosen = [emask[j] for j in bits(sub)]
        vmask = 0
        for em in chosen:
            vmask |= em
        if vmask & rmask != rmask:
            continue
        # BFS over selected edges only
        reached = vmask & -vmask
        while True:
            grown = reached
            for em in chosen:
                if em & grown:
                    grown |= em
            if grown == reached:
                break
            reached = grown
        if reached == vmask:
            count += 1
    return count


def _count(g: Graph, req: Collection[int]) -> int:
    rmask = _req_mask(g, req)
    if g.n <= _DP_MAX_N and g.m - g.n > 2:
        return _count_from_table(connected_set_table(g), 1 << g.n, rmask)
    if g.m <= _ENUM_MAX_M:
        return count_by_enumeration(g, req)
    raise CensusLimitError(
        f"graph too large for brute-force counting (n={g.n}, m={g.m}); decompose it"
    )


def count_connected_subgraphs(g: Graph) -> int:
    """Total number of connected subgraphs (defined for any simple graph)."""
    return _count(g, ())


def subgraph_number(g: Graph, v: int) -> int:
    """Number of connected subgraphs containing vertex ``v``."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return _count(g, (v,))


def count_containing(g: Graph, req: Collection[int]) -> int:
    """Number of connected subgraphs whose vertex set contains ``req``.

    An empty requirement counts everything; a requirement spanning several
    components of a disconnected graph simply yields 0.
    """
    return _count(g, req)
