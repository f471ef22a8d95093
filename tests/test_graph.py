import dataclasses
import itertools
import random

import pytest
from hypothesis import given

from connsub.families import build, parse_family_spec, spec, special_vertex
from connsub.generate import connected_classes
from connsub.graph import (
    DisconnectedGraphError,
    Graph,
    bits,
    blocks,
    cut_vertices,
    girth,
    is_connected,
    reach,
)

from helpers import canonical_key
from strategies import connected_graphs


def G(text):
    return build(parse_family_spec(text))


class TestGraphType:
    def test_from_edges_normalizes(self):
        g = Graph.from_edges(3, [(2, 0), (1, 2)])
        assert g.edges == ((0, 2), (1, 2))
        assert g.adj[2] == 0b011

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_too_many_vertices(self):
        with pytest.raises(ValueError):
            Graph.from_edges(65, [])

    def test_adj_symmetric(self):
        g = G("C:n=5")
        for u in range(5):
            for v in range(5):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_stores_only_the_bitsets(self):
        assert [f.name for f in dataclasses.fields(Graph)] == ["n", "adj"]

    def test_edges_and_m_derived_from_adj(self):
        g = Graph.from_edges(4, [(3, 0), (2, 1), (0, 1)])
        assert g.edges == ((0, 1), (0, 3), (1, 2))
        assert g.m == 3
        assert Graph.from_edges(1, []).edges == () and Graph.from_edges(1, []).m == 0


class TestConstructionGuards:
    def test_relabel_rejects_non_permutation(self):
        p3 = G("P:n=3")
        for perm in ([0, 1, 2, 5], [0, 1], [0, 0, 1], [0, 1, 3]):
            with pytest.raises(ValueError):
                p3.relabel(perm)

    def test_subgraph_on_rejects_outside_vertex(self):
        p3 = G("P:n=3")
        for vertices in ([0, 1, 7], [-1, 0], []):
            with pytest.raises(ValueError):
                p3.subgraph_on(vertices)

    def test_remove_edge_rejects_non_edge(self):
        p3 = G("P:n=3")
        for u, v in ((0, 2), (1, 1), (0, 3), (-1, 0)):
            with pytest.raises(ValueError, match="no edge"):
                p3.remove_edge(u, v)


# edge-list references for the bitset constructions, all through from_edges


def _relabel_ref(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _subgraph_on_ref(g, vertices):
    old = sorted(set(vertices))
    index = {v: i for i, v in enumerate(old)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return Graph.from_edges(len(old), edges), tuple(old)


def _remove_edge_ref(g, u, v):
    return Graph.from_edges(g.n, [e for e in g.edges if e != (min(u, v), max(u, v))])


def _classes_and_relabellings(n_max, seed):
    # every connected class with n <= n_max, and a seeded relabelling of each
    rng = random.Random(seed)
    for n in range(1, n_max + 1):
        for cls in connected_classes(n):
            yield cls
            yield cls.relabel(rng.sample(range(n), n))


class TestBitsetConstructionMatchesEdgeLists:
    def test_edges_round_trip(self):
        for g in _classes_and_relabellings(7, 1):
            edges = g.edges
            assert list(edges) == sorted(edges) and all(u < v for u, v in edges)
            assert g.m == len(edges)
            assert Graph.from_edges(g.n, edges) == g

    def test_relabel(self):
        rng = random.Random(2)
        for g in _classes_and_relabellings(7, 3):
            perm = rng.sample(range(g.n), g.n)
            assert g.relabel(perm) == _relabel_ref(g, perm)

    def test_subgraph_on(self):
        rng = random.Random(4)
        for g in _classes_and_relabellings(7, 5):
            subsets = [[u for u in range(g.n) if u != v] for v in range(g.n)]
            subsets.append(rng.sample(range(g.n), rng.randint(1, g.n)))
            for vertices in subsets:
                if vertices:
                    assert g.subgraph_on(vertices) == _subgraph_on_ref(g, vertices)

    def test_remove_edge(self):
        for g in _classes_and_relabellings(7, 6):
            for u, v in g.edges:
                assert g.remove_edge(v, u) == g.remove_edge(u, v) == _remove_edge_ref(g, u, v)


class TestConnectivity:
    def test_single_vertex(self):
        assert is_connected(Graph.from_edges(1, []))

    def test_path(self):
        assert is_connected(G("P:n=4"))

    def test_two_disjoint_edges(self):
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestCutVertices:
    def test_cycle_has_none(self):
        assert cut_vertices(G("C:n=6")) == frozenset()

    def test_path_inner_vertices(self):
        assert cut_vertices(G("P:n=5")) == {1, 2, 3}

    def test_lollipop_single_cut_of_degree_three(self):
        g = G("L:n=6,g=5")
        cuts = cut_vertices(g)
        assert len(cuts) == 1
        (w,) = cuts
        assert g.adj[w].bit_count() == 3

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            cut_vertices(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_path_is_unique_maximizer(self):
        # k <= n-2 always, equality only on the path
        for n in range(2, 9):
            path_key = canonical_key(G(f"P:n={n}"))
            for g in connected_classes(n):
                k = len(cut_vertices(g))
                assert k <= n - 2
                if k == n - 2:
                    assert canonical_key(g) == path_key

    def test_matches_naive_removal_definition(self):
        for g in connected_classes(6):
            naive = {
                v
                for v in range(g.n)
                if g.n > 1 and not _connected_without(g, v)
            }
            assert cut_vertices(g) == naive


def _connected_without(g, v):
    keep = [u for u in range(g.n) if u != v]
    sub, _ = g.subgraph_on(keep)
    return is_connected(sub)


class TestBlockCutTree:
    def test_cycle_single_block(self):
        g = G("C:n=5")
        assert blocks(g) == [0b11111]
        assert cut_vertices(g) == frozenset()

    def test_lollipop_two_blocks(self):
        g = G("L:n=6,g=5")
        masks = blocks(g)
        assert sorted(b.bit_count() for b in masks) == [2, 5]
        (w,) = cut_vertices(g)
        assert all(b >> w & 1 for b in masks)

    def test_path_blocks_are_edges(self):
        g = G("P:n=4")
        masks = blocks(g)
        assert len(masks) == 3
        assert all(b.bit_count() == 2 for b in masks)
        assert cut_vertices(g) == {1, 2}

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        assert blocks(g) == [1] and cut_vertices(g) == frozenset()

    @given(connected_graphs(min_n=2, max_n=8))
    def test_invariants(self, g):
        masks, cuts = blocks(g), cut_vertices(g)
        # every edge in exactly one block
        all_edges = [e for b in masks for e in _block_edges(g, b)]
        assert sorted(all_edges) == list(g.edges)
        # vertex in >= 2 blocks iff cut vertex
        counts = {v: sum(b >> v & 1 for b in masks) for v in range(g.n)}
        assert {v for v, c in counts.items() if c >= 2} == set(cuts)
        assert cuts == {v for v in range(g.n) if not _connected_without(g, v)}
        # block/cut incidence forms a tree
        nodes = len(masks) + len(cuts)
        links = sum(counts[w] for w in cuts)
        assert links == nodes - 1

    def test_pendant_blocks(self):
        g = G("L:n=6,g=5")
        cut_mask = sum(1 << w for w in cut_vertices(g))
        pendant = {i for i, b in enumerate(blocks(g)) if (b & cut_mask).bit_count() == 1}
        assert pendant == {0, 1}

    def test_matches_brute_force_blocks(self):
        # every class with n <= 7, plus a relabelling so the DFS root moves
        rng = random.Random(11)
        for n in range(2, 8):
            for cls in connected_classes(n):
                for g in (cls, cls.relabel(rng.sample(range(n), n))):
                    masks = blocks(g)
                    oracle = _blocks_oracle(g)
                    assert [bits(b) for b in masks] == oracle
                    # the blocks' edge sets partition the edges
                    edges = sorted(e for b in masks for e in _block_edges(g, b))
                    assert edges == list(g.edges)
                    shared = [v for v in range(n) if sum(v in s for s in oracle) >= 2]
                    assert sorted(cut_vertices(g)) == shared


def _block_edges(g, block):
    """The edges with both ends in the vertex mask ``block``: a block's edge
    set follows from its vertex set."""
    return [(u, v) for u, v in g.edges if block >> u & 1 and block >> v & 1]


def _induces_connected(g, mask):
    return reach(g.adj, (mask & -mask).bit_length() - 1, mask) == mask


def _blocks_oracle(g):
    """Sorted vertex lists of the maximal vertex sets that induce a single
    edge or a 2-connected subgraph (connected after removing any one vertex)."""

    def is_block_like(mask):
        vs = bits(mask)
        if len(vs) == 2:
            return g.has_edge(*vs)
        return _induces_connected(g, mask) and all(
            _induces_connected(g, mask & ~(1 << v)) for v in vs
        )

    candidates = sorted(
        (m for m in range(1 << g.n) if m.bit_count() >= 2 and is_block_like(m)),
        key=int.bit_count,
        reverse=True,
    )
    maximal: list[int] = []
    for m in candidates:
        if all(m & other != m for other in maximal):
            maximal.append(m)
    return sorted(bits(m) for m in maximal)


class TestGirth:
    def test_cycle(self):
        assert girth(G("C:n=7")) == 7

    def test_tree_infinite(self):
        assert girth(G("T:l=2,m=3,d=4")) is None

    def test_q_family(self):
        assert girth(G("Q:n=9,k=4")) == 4

    def test_matches_brute_force(self):
        for n in range(3, 8):
            for g in connected_classes(n):
                assert girth(g) == _girth_oracle(g)


def _girth_oracle(g):
    best = None
    for length in range(3, g.n + 1):
        for verts in itertools.combinations(range(g.n), length):
            for perm in itertools.permutations(verts[1:]):
                cyc = (verts[0],) + perm
                if all(
                    g.has_edge(cyc[i], cyc[(i + 1) % length]) for i in range(length)
                ):
                    best = length
                    break
            if best:
                break
        if best:
            break
    return best


class TestSpecialVertices:
    def test_lollipop_tags(self):
        fs = spec("L", n=6, g=5)
        g = build(fs)
        assert g.adj[special_vertex(fs, "pendant")].bit_count() == 1
        assert g.adj[special_vertex(fs, "cut")].bit_count() == 3

    def test_pathstar_tags(self):
        fs = spec("PS", k=4, m=3)
        g = build(fs)
        assert g.adj[special_vertex(fs, "path_end")].bit_count() == 1
        assert g.adj[special_vertex(fs, "center")].bit_count() == 4
