"""Counting by cut-vertex decomposition.

A cut vertex ``w`` splits a connected graph into edge-disjoint parts that
pairwise meet only in ``w``.  Totals and per-vertex counts then follow from
three rules:

* merge:     F(G) = F(G1) + F(G2) - 1 + (f_{G1}(w) - 1)(f_{G2}(w) - 1)
* vertex:    f_G(v) = f_{G1}(v) + f_{G1}(v, w) (f_{G2}(w) - 1)   for v in G1
* product:   f_G(w) = prod over parts of f_part(w)

The vertex rule at v = w is the product rule for two parts, since
f_{G1}(w, w) = f_{G1}(w).  ``merge_count`` and ``vertex_count`` are the
one implementation of the first two: the recursion below calls them on
Python integers, and ``extremal`` calls them on int64 arrays to evaluate
every class with a cut vertex at ``GENERATION_CAP`` from the two rooted
parts it is glued from.

F(G) and the single-vertex counts recurse until only 2-connected blocks
remain, where brute-force census takes over.  The pair count f_{G1}(v, w)
of the vertex rule does not recurse: census counts it on the whole part G1
around v, which may itself hold cut vertices and be far larger than v's
block.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import census
from .graph import DisconnectedGraphError, Graph, bits, components, cut_vertices, reach


@dataclass(frozen=True)
class SplitPart:
    """One side of a split: a re-labeled connected subgraph plus the map
    back to the original vertex ids (``vertices[new_id] == old_id``)."""

    graph: Graph
    vertices: tuple[int, ...]
    w_local: int


def split_at(g: Graph, w: int) -> tuple[SplitPart, ...]:
    """Split at a cut vertex: one part per component of G - w, re-attached to w."""
    if not 0 <= w < g.n:
        raise ValueError(f"vertex {w} is not a cut vertex")
    comps = components(g.adj, (1 << g.n) - 1 & ~(1 << w))
    # G is connected iff every component of G - w holds a neighbour of w,
    # and then w is a cut vertex iff there are at least two
    if not all(comp & g.adj[w] for comp in comps):
        raise DisconnectedGraphError("operation requires a connected graph")
    if len(comps) < 2:
        raise ValueError(f"vertex {w} is not a cut vertex")
    parts = []
    for comp in comps:
        sub, old = g.subgraph_on(bits(comp | 1 << w))
        parts.append(SplitPart(sub, old, old.index(w)))
    return tuple(parts)


def merge_count(F1, F2, f1w, f2w):
    """Total count of two parts glued at one shared vertex w, from each
    part's total and its count at w; integers or arrays alike."""
    return F1 + F2 - 1 + (f1w - 1) * (f2w - 1)


def vertex_count(f1v, f1vw, f2w):
    """The count at a vertex v of part 1 after gluing at w, from v's count
    and v's pair count with w in part 1 and w's count in part 2."""
    return f1v + f1vw * (f2w - 1)


# Memo keys: ("F", graph), ("f", graph, v), ("pair", graph, u, v).  One memo
# dict lives per top-level call, so repeated parts inside a single
# evaluation are counted once but nothing is shared across evaluations.


def _product_at(g: Graph, w: int, memo: dict) -> int:
    """f_G(w) for a cut vertex: the product over the parts at w."""
    result = 1
    for part in split_at(g, w):
        result *= _f(part.graph, part.w_local, memo)
    return result


def count_via_decomposition(g: Graph) -> int:
    """F(G): split at a cut vertex and fold parts pairwise with the merge
    rule; 2-connected graphs go straight to census."""
    return _F(g, {})


def _F(g: Graph, memo: dict) -> int:
    key = ("F", g)
    if key in memo:
        return memo[key]
    cuts = cut_vertices(g)
    if not cuts:
        val = census.count_connected_subgraphs(g)
    else:
        w = min(cuts)
        total_F = total_fw = None
        for part in split_at(g, w):
            F = _F(part.graph, memo)
            fw = _f(part.graph, part.w_local, memo)
            if total_F is None:
                total_F, total_fw = F, fw
            else:
                total_F = merge_count(total_F, F, total_fw, fw)
                total_fw *= fw
        val = total_F
    memo[key] = val
    return val


def subgraph_number_via_decomposition(g: Graph, v: int) -> int:
    """f_G(v) by splitting at a cut vertex that separates v's part."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return _f(g, v, {})


def _f(g: Graph, v: int, memo: dict) -> int:
    key = ("f", g, v)
    if key in memo:
        return memo[key]
    cuts = cut_vertices(g)
    if not cuts:
        val = census.subgraph_number(g, v)
    elif cuts == {v}:
        val = _product_at(g, v, memo)
    else:
        # split at the cut vertex leaving v in the smallest part
        full = (1 << g.n) - 1
        best_w = min(
            (w for w in cuts if w != v),
            key=lambda w: (reach(g.adj, v, full & ~(1 << w)).bit_count(), w),
        )
        parts = split_at(g, best_w)
        mine = next(p for p in parts if v in p.vertices)
        v_local = mine.vertices.index(v)
        f1 = _f(mine.graph, v_local, memo)
        f1vw = _pair(mine.graph, v_local, mine.w_local, memo)
        f2 = 1
        for part in parts:
            if part is not mine:
                f2 *= _f(part.graph, part.w_local, memo)
        val = vertex_count(f1, f1vw, f2)
    memo[key] = val
    return val


def _pair(g: Graph, u: int, v: int, memo: dict) -> int:
    key = ("pair", g, u, v)
    if key in memo:
        return memo[key]
    val = census.count_containing(g, (u, v))
    memo[key] = val
    return val

