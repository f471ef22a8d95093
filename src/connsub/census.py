"""Exact counting and enumeration of connected subgraphs.

A connected subgraph is a pair ``(V', E')`` with ``E'`` drawn from the edges
induced on ``V'``; single vertices count, the empty graph does not.  With two
or more vertices such a subgraph has no isolated vertex, so it is exactly a
non-empty connected edge subset.  All counts are exact Python integers.

Two exact counting routes are provided:

* a vertex-subset table (n <= 13), the subset-convolution logarithm of
  2^e(S) in O(n^2 2^n) int64 array operations modulo each of a few primes,
  with e(S) from ``_edge_counts``, which ``extremal``'s batched tables
  also call,
* a recursive enumerator growing connected edge sets from an anchor edge
  (m <= 25).

``routes(g)`` lists the routes that take a graph, the table first when
m - n > 2 and the enumerator first on a near-tree (m - n <= 2); the count
queries take the first, and a check of them the next, where one takes it.
"""

from __future__ import annotations

from typing import Callable, Collection, NamedTuple, Sequence

import numpy as np

from .graph import Graph

# Routing limits for count queries.  The subset DP costs O(n^2 2^n) array
# operations whatever m is, and the enumerator is linear in the number of
# subgraphs it visits.  A near-tree (m - n <= 2) has up to 2^m + n <=
# 2^(n+2) + n connected subgraphs (a star has 2^(n-1) + n - 1), and the
# enumerator is the only route above n = 13, so near-trees go to the
# enumerator at any size.  At n = 13 (a 2-CPU Xeon host, Python 3.11,
# numpy 2.4; min of 20-30) the DP takes 3.6-4.0 ms on a near-tree and the
# enumerator 0.06 ms on the 13-cycle, 1.0 ms on it with chords 0-6 and 3-9,
# and 1.3 ms on the 13-star; a star with two or three chords between its
# leaves (12.6k-22k subgraphs) still takes it 7-13 ms.
_DP_MAX_N = 13
_ENUM_MAX_M = 25
# moduli of the subset table: primes below 2^29, so that in int64 the
# unreduced transforms, sums of 2^n residues, stay below 2^13 p < 2^62 and a
# step of the logarithm stays above -(n + 1) p^2 >= -14 p^2 > -2^63; their
# product, about 2^87, covers the largest entry the table can hold,
# 2^m <= 2^78 at n = 13
_PRIMES = (536870909, 536870879, 536870869)


class CensusLimitError(ValueError):
    """A graph past census's exact routes: the subset DP takes n <= 13 and
    the enumerator m <= 25."""


def _req_mask(g: Graph, req: Collection[int]) -> int:
    mask = 0
    for v in req:
        if not 0 <= v < g.n:
            raise ValueError(f"required vertex {v} out of range")
        mask |= 1 << v
    return mask


def _transform(x: np.ndarray, sign: int) -> None:
    """Zeta (sign 1) or Moebius (sign -1) transform, in place, over the
    subset that indexes each row of ``x``: row X becomes the (signed) sum of
    the rows of the subsets of X.  Nothing is reduced, so magnitudes grow by
    a factor of at most 2 per bit."""
    size, width = x.shape
    half = 1
    while half < size:
        pairs = x.reshape(size // (2 * half), 2, half * width)
        upper = pairs[:, 1]
        if sign > 0:
            upper += pairs[:, 0]
        else:
            upper -= pairs[:, 0]
        half *= 2


def _log(z: np.ndarray, p: int) -> np.ndarray:
    """The power-series logarithm mod ``p``, row by row, of residues
    ``z[X, k]`` with ``z[X, 0] = 1``, times k: column k of the result is
    d[k] = k z[k] - sum over 0 < j < k of d[j] z[k - j].  Unreduced, a
    column stays above -(n + 1) p^2; numpy's ``%`` makes it non-negative."""
    width = z.shape[1]
    d = z * np.arange(width)
    for k in range(1, width):
        column = d[:, k]
        column -= np.vecdot(d[:, 1:k], z[:, k - 1 : 0 : -1])
        column %= p
    return d


# rows of the table that one call of ``_log`` takes: its temporaries, not
# the table, would otherwise set a table's memory peak
_LOG_ROWS = 1 << 10


def _table_mod(n: int, m: int, ecnt: np.ndarray, p: int) -> np.ndarray:
    """``connected_set_table`` mod ``p``, a prime above n and below 2^29,
    as residues."""
    size = 1 << n
    masks = np.arange(size)
    rank = np.bitwise_count(masks)
    # ranked zeta of A(S) = 2^e(S): t[X, k] sums A(S) over S in X, |S| = k
    t = np.zeros((size, n + 1), np.int64)
    t[masks, rank] = np.array([pow(2, e, p) for e in range(m + 1)])[ecnt]
    _transform(t, 1)
    t %= p
    for lo in range(0, size, _LOG_ROWS):
        t[lo : lo + _LOG_ROWS] = _log(t[lo : lo + _LOG_ROWS], p)
    # ranked Moebius; the rank-|S| entry at S is |S| C(S) mod p
    _transform(t, -1)
    inverse = np.array([0, *(pow(k, -1, p) for k in range(1, n + 1))])
    return t[masks, rank] % p * inverse[rank] % p


def _edge_counts(adj: np.ndarray) -> np.ndarray:
    """e(S) for every vertex subset S of each graph, as ``[subset, graph]``,
    from the graphs' adjacency masks as ``[vertex, graph]`` (int64)."""
    n, cnt = adj.shape
    masks = np.arange(1 << n)[:, None]
    ecnt = np.zeros((1 << n, cnt), np.int64)
    # e(S) from e(S minus its top vertex v): add v's neighbours below it
    for v in range(1, n):
        below = 1 << v
        np.add(ecnt[:below], np.bitwise_count(masks[:below] & adj[v]), out=ecnt[below : 2 * below])
    return ecnt


def connected_set_table(g: Graph) -> list[int]:
    """For every vertex subset S (as a bitmask), the number of connected
    subgraphs whose vertex set is exactly S.

    Entry for a singleton is 1 (the one-vertex subgraph); for |S| >= 2 it is
    the number of connected edge subsets spanning S.  Every counting query
    is a partial sum of this table:

        F(G)                     = sum over all S
        f_G(v)                   = sum over S containing v
        count with required set R = sum over S containing R

    Splitting an edge subset of G[S] into its components gives
    2^{e(S)} = sum over the set partitions of S of the product of the
    table over the blocks, so the table is the subset-convolution logarithm
    of A(S) = 2^{e(S)} (Bjorklund, Husfeldt, Kaski & Koivisto, "Fourier
    meets Moebius", STOC 2007): a ranked zeta transform of A, a power-series
    logarithm at every subset, and a ranked Moebius transform, in
    O(n^2 2^n) array operations.  That runs modulo primes of ``_PRIMES``
    until their product exceeds 2^m, which bounds every entry (an entry
    counts edge subsets of G[S]); Garner's mixed radix then gives each entry
    exactly.  A prime list too short for the bound raises.
    """
    n, m = g.n, g.m
    if n > _DP_MAX_N:
        raise CensusLimitError(f"subset table needs n <= {_DP_MAX_N}, got {n}")
    moduli, covered = [], 1
    for p in _PRIMES:
        if covered > 1 << m:
            break
        moduli.append(p)
        covered *= p
    if covered <= 1 << m:
        raise CensusLimitError(f"subset table residues cannot cover 2^{m}: too few primes")
    ecnt = _edge_counts(np.asarray(g.adj, np.int64)[:, None])[:, 0]
    # Garner: entry = x0 + p0 x1 + p0 p1 x2 + ... with digits x_i < p_i
    digits = []
    for p in moduli:
        x = _table_mod(n, m, ecnt, p)
        for q, y in zip(moduli, digits):
            x = (x - y) % p * pow(q, -1, p) % p
        digits.append(x)
    out = digits[0].tolist()
    # a higher digit is nonzero only on the few entries at or above p0
    scale = moduli[0]
    for x, p in zip(digits[1:], moduli[1:]):
        for s in np.flatnonzero(x).tolist():
            out[s] += scale * int(x[s])
        scale *= p
    return out


def _count_from_table(table: Sequence[int], size: int, req_mask: int) -> int:
    if req_mask == 0:
        return sum(table)
    return sum(table[S] for S in range(size) if S & req_mask == req_mask)


def _table_count(g: Graph, req: Collection[int]) -> int:
    rmask = _req_mask(g, req)
    return _count_from_table(connected_set_table(g), 1 << g.n, rmask)


def _walk(g: Graph, rmask: int, visit: Callable[[int, int], None]) -> None:
    """Call ``visit(edge_mask, vertex_mask)`` once for every connected
    subgraph whose vertex set contains ``rmask``; bit i of ``edge_mask``
    stands for ``g.edges[i]``.

    Single vertices come first.  Edge sets are then grown from an anchor
    edge, extending only with eligible edges of larger index; extensions
    skipped at one branch are excluded from the whole subtree, so no set is
    produced twice.  Each step adds one edge j, so the edges touching the
    set (the frontier) grow by the edges at j's two ends, ``touch[j]``,
    and ``banned`` holds the chosen edges, those below the anchor and the
    extensions skipped so far: the candidates are ``frontier & ~banned``.
    """
    if rmask.bit_count() <= 1:
        for v in range(g.n):
            if rmask == 0 or rmask == 1 << v:
                visit(0, 1 << v)
    edges = g.edges
    inc = [0] * g.n  # vertex -> bitmask of incident edge indices
    for i, (u, v) in enumerate(edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
    emask = [1 << u | 1 << v for u, v in edges]  # edge index -> its ends
    touch = [inc[u] | inc[v] for u, v in edges]  # edge index -> edges at its ends

    def grow(sel: int, vmask: int, frontier: int, banned: int) -> None:
        if vmask & rmask == rmask:
            visit(sel, vmask)
        cand = frontier & ~banned
        while cand:
            low = cand & -cand
            cand ^= low
            banned |= low
            j = low.bit_length() - 1
            grow(sel | low, vmask | emask[j], frontier | touch[j], banned)

    for i in range(len(edges)):
        grow(1 << i, emask[i], touch[i], (1 << i + 1) - 1)


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


class Route(NamedTuple):
    """An exact counting route: its name, its test of a graph, its count."""

    name: str
    takes: Callable[[Graph], bool]
    count: Callable[[Graph, Collection[int]], int]


# both counts look their route up in the module when called, so a wrapper
# set on ``connected_set_table`` or ``count_by_enumeration`` sees each call
_ROUTES = (
    Route("table", lambda g: g.n <= _DP_MAX_N, _table_count),
    Route("enumerate", lambda g: g.m <= _ENUM_MAX_M, lambda g, req: count_by_enumeration(g, req)),
)


def routes(g: Graph) -> list[Route]:
    """The routes that take ``g``, in the order census prefers them: the
    table first when m - n > 2, the enumerator first on a near-tree."""
    order = _ROUTES if g.m - g.n > 2 else _ROUTES[::-1]
    return [route for route in order if route.takes(g)]


def _count(g: Graph, req: Collection[int]) -> int:
    taken = routes(g)
    if not taken:
        _req_mask(g, req)  # a bad vertex is reported before the limit, as a route does
        raise CensusLimitError(
            f"census counts graphs with n <= {_DP_MAX_N} (subset DP) or m <= {_ENUM_MAX_M}"
            f" (enumerator), got n={g.n}, m={g.m}"
        )
    return taken[0].count(g, req)


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
