"""Counting by cut-vertex decomposition.

A cut vertex ``w`` splits a connected graph into edge-disjoint parts that
pairwise meet only in ``w``.  Totals and per-vertex counts then follow from
three rules:

* product:   f_G(w) = prod over parts of f_part(w)
* total:     F(G) = f_G(w) + sum over parts of (F(part) - f_part(w))
* vertex:    f_G(v) = f_{G1}(v) + f_{G1}(v, w) (f_{G2}(w) - 1)   for v in G1

A subgraph either holds w, and then is one subgraph at w from each part,
or lies in one part away from w.  For two parts the total rule is the
merge rule F(G1) + F(G2) - 1 + (f_{G1}(w) - 1)(f_{G2}(w) - 1), and for
v = w the vertex rule is the product rule.  ``merge_count`` and
``vertex_count`` write those two-part rules once for integers and arrays
alike: ``extremal`` calls them on int64 arrays to evaluate every level's
classes with a cut vertex from the two rooted parts each is glued from,
and the recursion below calls ``vertex_count``.

The recursion, cached for one query, takes F(G) by the total rule at the
least cut vertex, f_G(v) by the product rule whenever v is a cut vertex,
and f_G(v) for any other v by the vertex rule, with G1 the part holding v
and G2 the other parts at w.  It stops at 2-connected blocks, which census
counts.  The pair count f_{G1}(v, w) does not recurse: census counts it on
the whole part G1, which may itself hold cut vertices and be far larger
than v's block, so census can refuse it though every block is small.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod

from . import census
from .graph import DisconnectedGraphError, Graph, bits, components, cut_vertices, is_connected, reach


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


def count_via_decomposition(g: Graph) -> int:
    """F(G): the total rule at the least cut vertex, down to 2-connected
    blocks, which census counts."""
    return _query(g, ())


def subgraph_number_via_decomposition(g: Graph, v: int) -> int:
    """f_G(v): the product rule if v is a cut vertex, otherwise the vertex
    rule at the cut vertex that leaves v the smallest part."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return _query(g, (v,))


def count_containing(g: Graph, req: tuple[int, ...]) -> int:
    """The decomposition route's count: F(G) or f_G(v) of a connected graph,
    and census's for a disconnected graph or two or more vertices."""
    if len(req) >= 2 or not is_connected(g):
        return census.count_containing(g, req)
    return subgraph_number_via_decomposition(g, *req) if req else count_via_decomposition(g)


_ROUTE = census.Route("decompose", lambda g: is_connected(g) and bool(cut_vertices(g)), count_containing)


def routes(g: Graph, req: tuple[int, ...] = ()) -> list[census.Route]:
    """Census's routes for ``g`` in census's order, with decomposition second
    where ``g`` is connected, has a cut vertex and ``req`` holds at most one
    vertex; elsewhere decomposition would only hand ``g`` to census, or has
    no rule.  A graph that no census route takes raises census's limit error."""
    taken = census.routes(g)
    if not taken:
        census.count_containing(g, req)  # raises census's own limit error
    if len(req) <= 1 and _ROUTE.takes(g):
        taken.insert(1, _ROUTE)
    return taken


def _query(g: Graph, req: tuple[int, ...]) -> int:
    """The connected subgraphs of g that hold every vertex of ``req``: F(g)
    for (), f_g(v) for (v,) and the pair count for (v, w).  ``count`` is
    cached for this query alone, so a part or a pair met twice in it is
    counted once."""

    @cache
    def count(g: Graph, req: tuple[int, ...]) -> int:
        if len(req) == 2:
            return census.count_containing(g, req)
        cuts = cut_vertices(g)
        if not cuts:
            return census.subgraph_number(g, *req) if req else census.count_connected_subgraphs(g)
        if req and req[0] not in cuts:
            # the vertex rule at the cut vertex that leaves v the smallest part
            (v,) = req
            full = (1 << g.n) - 1
            w = min(cuts, key=lambda w: (reach(g.adj, v, full & ~(1 << w)).bit_count(), w))
            parts = split_at(g, w)
            mine = next(p for p in parts if v in p.vertices)
            v_local = mine.vertices.index(v)
            return vertex_count(
                count(mine.graph, (v_local,)),
                count(mine.graph, (v_local, mine.w_local)),
                prod(count(p.graph, (p.w_local,)) for p in parts if p is not mine),
            )
        # the product rule; F adds the subgraphs without w, each in one part
        parts = split_at(g, req[0] if req else min(cuts))
        away = 0 if req else sum(count(p.graph, ()) - count(p.graph, (p.w_local,)) for p in parts)
        return away + prod(count(p.graph, (p.w_local,)) for p in parts)

    return count(g, req)
