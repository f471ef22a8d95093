"""Test-side wrappers over package internals, used as oracles and keys."""

from connsub import census
from connsub.canon import canonical_labeling
from connsub.graph import bits


def canonical_key(g):
    return canonical_labeling(g)[0]


def enumerate_connected_subgraphs(g, req, visitor):
    """Visit every connected subgraph whose vertex set contains ``req``,
    exactly once, in the enumerator's order, passing the sorted vertex tuple
    and the sorted edge tuple."""
    edges = g.edges
    census._walk(
        g,
        sum(1 << v for v in set(req)),
        lambda sel, vmask: visitor(tuple(bits(vmask)), tuple(edges[i] for i in bits(sel))),
    )
