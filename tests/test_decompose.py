import hashlib

import pytest
from hypothesis import given

from connsub import census, decompose
from connsub.census import CensusLimitError
from connsub.families import build, parse_family_spec
from connsub.generate import connected_classes, glue, rooted_classes
from connsub.graph import DisconnectedGraphError, Graph, bits, blocks, components, cut_vertices
from connsub.graphio import parse_graph6

from helpers import block_expansion_count, canonical_key
from strategies import connected_graphs


def G(text):
    return build(parse_family_spec(text))


@pytest.fixture
def census_calls(monkeypatch):
    """The census queries made while a test runs, as (name, edges, args)."""
    calls = []
    for name in ("count_connected_subgraphs", "subgraph_number", "count_containing"):
        real = getattr(census, name)

        def record(g, *args, _real=real, _name=name):
            calls.append((_name, g.edges, args))
            return _real(g, *args)

        monkeypatch.setattr(census, name, record)
    return calls


class TestSplit:
    def test_lollipop_splits_into_cycle_and_edge(self):
        g = G("L:n=6,g=5")
        parts = decompose.split_at(g, 0)
        sizes = sorted(p.graph.n for p in parts)
        assert sizes == [2, 5]
        for p in parts:
            assert p.vertices[p.w_local] == 0

    def test_path_splits_into_two_paths(self):
        parts = decompose.split_at(G("P:n=5"), 2)
        assert sorted(p.graph.n for p in parts) == [3, 3]
        assert all(p.graph.m == 2 for p in parts)

    def test_star_splits_into_edges(self):
        parts = decompose.split_at(G("S:n=5"), 0)
        assert len(parts) == 4
        assert all(p.graph.n == 2 for p in parts)

    def test_parts_partition_edges(self):
        g = G("T:l=2,m=3,d=3")
        for w in sorted(cut_vertices(g)):
            parts = decompose.split_at(g, w)
            total = sum(p.graph.m for p in parts)
            assert total == g.m
            for p in parts:
                assert p.graph.n >= 2

    def test_non_cut_vertex_rejected(self):
        with pytest.raises(ValueError):
            decompose.split_at(G("C:n=5"), 0)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            decompose.split_at(Graph.from_edges(4, [(0, 1), (2, 3)]), 1)
        with pytest.raises(DisconnectedGraphError):
            decompose.split_at(Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]), 1)

    def test_single_vertex_and_out_of_range_rejected(self):
        for g, w in ((Graph(1, (0,)), 0), (G("P:n=3"), 3), (G("P:n=3"), -1)):
            with pytest.raises(ValueError, match="not a cut vertex"):
                decompose.split_at(g, w)

    def test_validates_without_the_block_dfs(self, monkeypatch):
        # the components of G - w already decide both checks
        monkeypatch.setattr(decompose, "cut_vertices", None)
        assert len(decompose.split_at(G("S:n=5"), 0)) == 4
        with pytest.raises(ValueError):
            decompose.split_at(G("C:n=5"), 0)


class TestMerge:
    def test_lollipop_value(self):
        assert decompose.merge_count(26, 3, 16, 2) == 43

    def test_trivial_part_is_identity(self):
        assert decompose.merge_count(123, 1, 45, 1) == 123

    def test_two_triangles(self):
        assert decompose.merge_count(10, 10, 7, 7) == 55

    def test_rules_match_census_on_every_small_gluing(self):
        # every gluing of two rooted classes into n <= 6 vertices, both
        # orders: the merge rule gives F and the vertex rule every f(x),
        # each from census values of the parts alone
        pool = [pair for n in range(1, 6) for pair in rooted_classes(n)]
        glued = 0
        for g1, r1 in pool:
            for g2, r2 in pool:
                if g1.n + g2.n - 1 > 6:
                    continue
                g = glue(g1, r1, g2, r2)
                a, b = census.subgraph_number(g1, r1), census.subgraph_number(g2, r2)
                F1, F2 = census.count_connected_subgraphs(g1), census.count_connected_subgraphs(g2)
                assert decompose.merge_count(F1, F2, a, b) == census.count_connected_subgraphs(g)
                # glue keeps g1's labels and puts g2's other vertices after them
                label = [g1.n + v - (v > r2) for v in range(g2.n)]
                label[r2] = r1
                for part, root, other, where in ((g1, r1, b, range(g1.n)), (g2, r2, a, label)):
                    for x, y in enumerate(where):
                        f = census.subgraph_number(part, x)
                        pair = f if x == root else census.count_containing(part, (x, root))
                        got = decompose.vertex_count(f, pair, other)
                        assert got == census.subgraph_number(g, y), (g1, r1, g2, r2, x)
                glued += 1
        assert glued == 367  # ordered pairs of the 74 rooted classes on 1..5 vertices


def _product_over_parts(g, w):
    result = 1
    for part in decompose.split_at(g, w):
        result *= decompose.subgraph_number_via_decomposition(part.graph, part.w_local)
    return result


class TestCutVertexProduct:
    def test_lollipop(self):
        g = G("L:n=6,g=5")
        assert decompose.subgraph_number_via_decomposition(g, 0) == _product_over_parts(g, 0) == 32

    def test_claw_center(self):
        g = G("S:n=4")
        assert decompose.subgraph_number_via_decomposition(g, 0) == _product_over_parts(g, 0) == 8

    def test_two_triangles(self):
        g = G("CC:n=5,m1=3,m2=3")
        assert decompose.subgraph_number_via_decomposition(g, 0) == _product_over_parts(g, 0) == 49

    def test_product_matches_census(self):
        for n in range(3, 8):
            for g in connected_classes(n):
                for w in sorted(cut_vertices(g)):
                    assert decompose.subgraph_number_via_decomposition(
                        g, w
                    ) == _product_over_parts(g, w) == census.subgraph_number(g, w)


# n = 21, blocks of 9, 6, 4 and 5 vertices, cut vertices 1, 8 and 9.  The
# f(v) values come from the block-tree sum f_G(v) = sum over S of t_B(S)
# times the product of the branch counts at the cut vertices in S, over
# per-block subset tables t_B, computed without this package.
BRANCHING = "TNrTmad?G?_DO?O???G?C??K????_G?_K??F"


class TestCutVertexRule:
    @pytest.mark.parametrize("n", [51, 64])
    def test_every_vertex_of_a_long_path(self, n):
        g = G(f"P:n={n}")
        got = [decompose.subgraph_number_via_decomposition(g, v) for v in range(n)]
        assert got == [(v + 1) * (n - v) for v in range(n)]

    @pytest.mark.parametrize("v,value", [(1, 25781517520), (8, 25816662114), (9, 25760171025)])
    def test_cut_vertices_of_a_branching_graph(self, v, value):
        g = parse_graph6(BRANCHING)
        assert decompose.subgraph_number_via_decomposition(g, v) == value
        # the subgraphs without v are those of the components of G - v
        rest = components(g.adj, (1 << g.n) - 1 & ~(1 << v))
        without = sum(decompose.count_via_decomposition(g.subgraph_on(bits(c))[0]) for c in rest)
        assert decompose.count_via_decomposition(g) - without == value

    @pytest.mark.xfail(
        raises=CensusLimitError,
        strict=True,
        reason="the vertex rule's pair count takes census on v's whole 14-vertex part",
    )
    def test_non_cut_vertex_of_a_branching_graph(self):
        g = parse_graph6(BRANCHING)
        assert decompose.subgraph_number_via_decomposition(g, 0) == 25478409940

    def test_equal_parts_are_counted_once(self, census_calls):
        # the star's 11 parts at its centre are one K2, rooted alike
        assert decompose.count_via_decomposition(G("S:n=12")) == 2**11 + 11
        assert census_calls == [("count_connected_subgraphs", ((0, 1),), ()), ("subgraph_number", ((0, 1),), (0,))]

    def test_a_pair_count_met_again_is_counted_once(self, census_calls):
        # down P5 from its end, every vertex rule splits off one K2 and asks
        # for the pair count of that same K2 again
        assert decompose.subgraph_number_via_decomposition(G("P:n=5"), 0) == 5
        assert census_calls == [
            ("subgraph_number", ((0, 1),), (0,)),
            ("count_containing", ((0, 1),), ((0, 1),)),
        ]

    def test_no_count_outlives_its_query(self, census_calls):
        g = G("S:n=12")
        assert decompose.count_via_decomposition(g) == decompose.count_via_decomposition(g)
        assert len(census_calls) == 4 and census_calls[:2] == census_calls[2:]

    def test_census_calls_are_pinned(self, census_calls):
        # F and every f(v) of the connected classes up to n = 6 and of named
        # graphs, and f at the branching graph's cut vertices: the census
        # calls, in order, of the rules above and their choice of cut vertex
        graphs = [g for n in range(1, 7) for g in sorted(connected_classes(n), key=lambda g: g.adj)]
        graphs += [G(t) for t in ("P:n=20", "S:n=13", "L:n=12,g=11", "T:l=3,m=3,d=4", "Q:n=9,k=3")]
        assert len(graphs) == 148
        for g in graphs:
            decompose.count_via_decomposition(g)
            for v in range(g.n):
                decompose.subgraph_number_via_decomposition(g, v)
        for v in (1, 8, 9):
            decompose.subgraph_number_via_decomposition(parse_graph6(BRANCHING), v)
        digest = hashlib.sha256(repr(census_calls).encode()).hexdigest()
        assert digest == "1cb04c00012d72fb32063e63cc5dbefbaf5115dcfb5c1ea16b3bb7f38ee66dc2"


@given(connected_graphs(min_n=8, max_n=11))
def test_branching_block_cut_trees_match_one_subset_table(g):
    table = census.connected_set_table(g)
    assert decompose.count_via_decomposition(g) == sum(table)
    for v in range(g.n):
        want = sum(t for S, t in enumerate(table) if S >> v & 1)
        assert decompose.subgraph_number_via_decomposition(g, v) == want


class TestTotals:
    @pytest.mark.parametrize(
        "text,value",
        [("L:n=12,g=11", 190), ("T:l=3,m=3,d=3", 103), ("C:n=9", 82)],
    )
    def test_named_values(self, text, value):
        assert decompose.count_via_decomposition(G(text)) == value

    def test_split_choice_does_not_matter(self):
        g = G("T:l=2,m=2,d=4")
        want = census.count_connected_subgraphs(g)
        for w in sorted(cut_vertices(g)):
            total_F = total_fw = None
            for part in decompose.split_at(g, w):
                F = decompose.count_via_decomposition(part.graph)
                fw = decompose.subgraph_number_via_decomposition(part.graph, part.w_local)
                if total_F is None:
                    total_F, total_fw = F, fw
                else:
                    total_F = decompose.merge_count(total_F, F, total_fw, fw)
                    total_fw *= fw
            assert total_F == want


class TestVertexCounts:
    def test_lollipop_pendant(self):
        assert decompose.subgraph_number_via_decomposition(G("L:n=6,g=5"), 5) == 17

    def test_broom_path_end(self):
        assert decompose.subgraph_number_via_decomposition(G("PS:k=4,m=3"), 0) == 11

    def test_two_connected_falls_back_to_census(self):
        g = G("C:n=7")
        for v in range(7):
            assert decompose.subgraph_number_via_decomposition(
                g, v
            ) == census.subgraph_number(g, v)


class TestBlockExpansion:
    def test_lollipop_cycle_block(self):
        g = G("L:n=6,g=5")
        blk = next(b for b in blocks(g) if b.bit_count() == 5)
        assert block_expansion_count(g, blk) == 43

    def test_path_middle_edge(self):
        g = G("P:n=4")
        blk = 0b0110  # the edge {1, 2}
        assert blk in blocks(g)
        assert block_expansion_count(g, blk) == 10

    def test_two_triangles(self):
        g = G("CC:n=5,m1=3,m2=3")
        blk = blocks(g)[0]
        assert block_expansion_count(g, blk) == 55

    def test_rejects_non_block(self):
        g = G("P:n=4")
        with pytest.raises(ValueError):
            block_expansion_count(g, 0b1001)


def K(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i)])


class TestRoutes:
    # the route names for req = (), (0,) and (0, 1)
    @pytest.mark.parametrize(
        "g, names",
        [
            (G("P:n=5"), [["enumerate", "decompose", "table"]] * 2 + [["enumerate", "table"]]),
            (K(5), [["table", "enumerate"]] * 3),
            (G("C:n=8"), [["enumerate", "table"]] * 3),
            (G("P:n=20"), [["enumerate", "decompose"]] * 2 + [["enumerate"]]),
            (K(8), [["table"]] * 3),
            (Graph.from_edges(4, [(0, 1), (2, 3)]), [["enumerate", "table"]] * 3),
        ],
        ids=["P5", "K5", "C8", "P20", "K8", "2K2"],
    )
    def test_names_in_order_and_one_count(self, g, names):
        for req, want in zip(((), (0,), (0, 1)), names):
            taken = decompose.routes(g, req)
            assert [route.name for route in taken] == want
            assert {route.count(g, req) for route in taken} == {census.count_containing(g, req)}

    @pytest.mark.parametrize("text", ["P:n=51", "C:n=30"])
    def test_a_graph_past_census_raises_its_limit_error(self, text):
        g = G(text)
        with pytest.raises(CensusLimitError) as want:
            census.count_connected_subgraphs(g)
        for req in ((), (0,), (0, 1)):
            with pytest.raises(CensusLimitError) as got:
                decompose.routes(g, req)
            assert str(got.value) == str(want.value)


class TestOracleEquivalence:
    def test_exhaustive_small(self):
        for n in range(3, 7):
            for g in connected_classes(n):
                if not cut_vertices(g):
                    continue
                want = census.count_connected_subgraphs(g)
                assert decompose.count_via_decomposition(g) == want
                for v in range(n):
                    assert decompose.subgraph_number_via_decomposition(
                        g, v
                    ) == census.subgraph_number(g, v)
                for blk in blocks(g):
                    assert block_expansion_count(g, blk) == want

    def test_pair_through_cut_vertex(self):
        # a subgraph holding vertices from two different parts must hold
        # the cut vertex as well
        for text in ["T:l=2,m=2,d=3", "L:n=7,g=4", "CC:n=7,m1=3,m2=3"]:
            g = G(text)
            for w in sorted(cut_vertices(g)):
                parts = decompose.split_at(g, w)
                p1, p2 = parts[0], parts[-1]
                v = next(x for x in p1.vertices if x != w)
                x = next(y for y in p2.vertices if y != w)
                assert census.count_containing(g, (v, x)) == census.count_containing(
                    g, (v, x, w)
                )


def test_whole_pipeline_on_reference_graph():
    g = G("Q:n=9,k=4")
    want = census.count_connected_subgraphs(g)
    assert want == 100
    assert decompose.count_via_decomposition(g) == want
    assert canonical_key(g) == canonical_key(g)
