import tracemalloc
from math import comb, isqrt, prod

import pytest
from hypothesis import given

from connsub import census
from connsub.families import build, parse_family_spec
from connsub.generate import connected_classes
from connsub.graph import Graph

from helpers import (
    count_by_edge_subsets,
    enumerate_connected_subgraphs,
    subset_table_oracle,
    walk_oracle,
)
from strategies import any_graphs, connected_graphs


def G(text):
    return build(parse_family_spec(text))


K1 = Graph.from_edges(1, [])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestTotals:
    def test_single_vertex(self):
        assert census.count_connected_subgraphs(K1) == 1

    def test_cycle_four(self):
        assert census.count_connected_subgraphs(G("C:n=4")) == 17

    def test_path_four(self):
        assert census.count_connected_subgraphs(G("P:n=4")) == 10

    def test_claw(self):
        assert census.count_connected_subgraphs(G("S:n=4")) == 11


class TestVertexCounts:
    def test_single_vertex(self):
        assert census.subgraph_number(K1, 0) == 1

    def test_star_center(self):
        assert census.subgraph_number(G("S:n=4"), 0) == 8

    def test_path_pendant(self):
        assert census.subgraph_number(G("P:n=3"), 0) == 3

    def test_cycle_vertex(self):
        assert census.subgraph_number(G("C:n=5"), 0) == 16

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            census.subgraph_number(K1, 3)


class TestRequiredSets:
    def test_cycle_adjacent_pair(self):
        assert census.count_containing(G("C:n=6"), (0, 1)) == 17

    def test_cycle_antipodal_pair(self):
        assert census.count_containing(G("C:n=6"), (0, 3)) == 13

    def test_path_both_ends(self):
        assert census.count_containing(G("P:n=3"), (0, 2)) == 1

    def test_empty_requirement_is_total(self):
        g = G("L:n=6,g=5")
        assert census.count_containing(g, ()) == census.count_connected_subgraphs(g)

    def test_requirement_across_components_is_zero(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert census.count_containing(g, (0, 2)) == 0

    def test_cycle_pair_formula(self):
        for n in range(3, 9):
            g = G(f"C:n={n}")
            for d in range(1, n // 2 + 1):
                want = (n * n + 2 * d * d - 2 * n * d + n + 2) // 2
                assert census.count_containing(g, (0, d)) == want


class TestEnumerator:
    def test_single_vertex_visit(self):
        visits = []
        enumerate_connected_subgraphs(K1, (), lambda vs, es: visits.append((vs, es)))
        assert visits == [((0,), ())]

    def test_edge_visits(self):
        visits = []
        g = Graph.from_edges(2, [(0, 1)])
        enumerate_connected_subgraphs(g, (), lambda vs, es: visits.append((vs, es)))
        assert visits == [((0,), ()), ((1,), ()), ((0, 1), ((0, 1),))]

    def test_triangle_with_required_vertex(self):
        visits = []
        enumerate_connected_subgraphs(
            G("C:n=3"), (0,), lambda vs, es: visits.append(vs)
        )
        assert len(visits) == 7
        assert all(0 in vs for vs in visits)

    def test_each_subgraph_once(self):
        g = G("C:n=5")
        seen = set()
        enumerate_connected_subgraphs(
            g, (), lambda vs, es: seen.add((vs, es)) or None
        )
        assert len(seen) == census.count_connected_subgraphs(g)

    def test_deterministic_order(self):
        g = G("L:n=6,g=4")
        first, second = [], []
        enumerate_connected_subgraphs(g, (), lambda vs, es: first.append((vs, es)))
        enumerate_connected_subgraphs(g, (), lambda vs, es: second.append((vs, es)))
        assert first == second


def walk_visits(walk, g, rmask):
    visits = []
    walk(g, rmask, lambda sel, vmask: visits.append((sel, vmask)))
    return visits


class TestWalkAgainstOracle:
    def test_every_small_class(self):
        # at n = 7 only the near-trees, the enumerator's production route:
        # all 853 classes hold 11.5M subgraphs, K7 alone 2.1M
        for n in range(1, 8):
            for g in connected_classes(n):
                if n == 7 and g.m - n > 2:
                    continue
                # a requirement only filters the oracle's visits
                every = walk_visits(walk_oracle, g, 0)
                for rmask in {0, 1 | 1 << n - 1, *(1 << v for v in range(n))}:
                    want = [(sel, vmask) for sel, vmask in every if vmask & rmask == rmask]
                    assert walk_visits(census._walk, g, rmask) == want

    @given(any_graphs(max_n=10))
    def test_random_graphs(self, g):
        if g.m > 16:
            return
        for rmask in {0, 1, 1 | 1 << g.n - 1}:
            assert walk_visits(census._walk, g, rmask) == walk_visits(walk_oracle, g, rmask)


class TestRouteAgreement:
    def test_exhaustive_small(self):
        for n in range(1, 6):
            for g in connected_classes(n):
                table = census.count_connected_subgraphs(g)
                assert table == census.count_by_enumeration(g)
                assert table == count_by_edge_subsets(g)
                for v in range(n):
                    fv = census.subgraph_number(g, v)
                    assert fv == census.count_by_enumeration(g, (v,))
                    assert fv == count_by_edge_subsets(g, (v,))

    @given(any_graphs(max_n=10))
    def test_random_graphs_all_routes(self, g):
        if g.m > 16:
            return
        req_options = [(), (0,)] + ([(0, g.n - 1)] if g.n >= 2 else [])
        for req in req_options:
            a = census.count_containing(g, req)
            assert a == census.count_by_enumeration(g, req)
            assert a == count_by_edge_subsets(g, req)

    @given(connected_graphs(max_n=10, max_extra=4))
    def test_random_connected_dp_vs_enumeration(self, g):
        # read the subset table itself: census sends these near-trees to
        # the enumerator, so the public counts would compare it with itself
        if g.m > census._ENUM_MAX_M:
            return
        table = census.connected_set_table(g)
        assert sum(table) == census.count_by_enumeration(g)
        for v in range(g.n):
            fv = sum(t for S, t in enumerate(table) if S >> v & 1)
            assert fv == census.count_by_enumeration(g, (v,))


class TestInvariants:
    @given(connected_graphs(max_n=7))
    def test_vertex_count_at_most_total(self, g):
        F = census.count_connected_subgraphs(g)
        for v in range(g.n):
            fv = census.subgraph_number(g, v)
            assert fv <= F
            assert (fv == F) == (g.n == 1)

    def test_edge_deletion_strictly_decreases(self):
        for n in range(2, 6):
            for g in connected_classes(n):
                F = census.count_connected_subgraphs(g)
                for u, v in g.edges:
                    h = g.remove_edge(u, v)
                    assert census.count_connected_subgraphs(h) < F
                    for x in range(n):
                        assert census.subgraph_number(h, x) < census.subgraph_number(g, x)

    def test_two_connected_pair_bounds(self):
        from connsub.graph import cut_vertices

        for n in range(3, 8):
            cyc_max = (n * n - n + 4) // 2
            for g in connected_classes(n):
                if cut_vertices(g):
                    continue
                is_cycle = g.m == n
                for u in range(n):
                    for v in range(u + 1, n):
                        got = census.count_containing(g, (u, v))
                        assert 4 * got >= n * n + 2 * n + 4
                        if is_cycle:
                            assert got <= cyc_max
                        else:
                            assert got > cyc_max


class TestEdgeSubsetOracle:
    def test_naive_limit(self):
        assert count_by_edge_subsets(G("C:n=10")) == 101
        dense = [(i, j) for i in range(8) for j in range(i + 1, 8)][:20]
        with pytest.raises(census.CensusLimitError):
            count_by_edge_subsets(Graph.from_edges(8, dense))

    @pytest.mark.parametrize("n", [14, 16])
    def test_cycles_past_the_table(self, n):
        # 2-connected near-trees above 13 vertices: only the enumerator takes
        # them, so no other census route checks F, f(0) or a pair count
        g = G(f"C:n={n}")
        assert [r.name for r in census.routes(g)] == ["enumerate"]
        for req in ((), (0,), (0, n // 2)):
            assert census.count_containing(g, req) == count_by_edge_subsets(g, req)


class TestLimits:
    def test_large_sparse_uses_enumeration(self):
        g = G("C:n=20")
        assert census.count_connected_subgraphs(g) == 401

    def test_too_large_raises(self):
        # 16 vertices, dense: beyond both the table and the enumerator
        edges = [(i, j) for i in range(16) for j in range(i + 1, 16)][:40]
        with pytest.raises(census.CensusLimitError):
            census.count_connected_subgraphs(Graph.from_edges(16, edges))


class TestSubsetTable:
    def test_every_small_class_matches_the_oracle(self):
        for n in range(1, 8):
            for g in connected_classes(n):
                assert census.connected_set_table(g) == subset_table_oracle(g)

    @given(any_graphs(max_n=10))
    def test_random_graphs_match_the_oracle(self, g):
        assert census.connected_set_table(g) == subset_table_oracle(g)

    def test_complete_graphs_match_the_oracle(self):
        for n in range(1, 14):
            assert census.connected_set_table(complete(n)) == subset_table_oracle(complete(n))

    def test_a_table_on_every_prime_matches_the_oracle(self):
        # K13 less a matching of 6 edges: m = 72, so every digit is read
        g = Graph.from_edges(13, [e for e in complete(13).edges if e[1] != e[0] + 1 or e[0] % 2])
        assert g.m == 72 and prod(census._PRIMES[:2]) < 1 << g.m
        assert census.connected_set_table(g) == subset_table_oracle(g)

    def test_a_table_peaks_below_two_megabytes(self):
        # about 1.4 MB with the logarithm taken 2^10 rows at a time, 2.2 MB
        # with it over the whole 2^13-row table: its temporaries set the peak
        g = complete(13)
        tracemalloc.start()
        try:
            census.connected_set_table(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    @pytest.mark.parametrize("n", [11, 12, 13])
    def test_complete_graph_counts(self, n):
        # c_k connected labeled graphs on k vertices (OEIS A001187), by the
        # component of vertex 1: c_k = 2^C(k,2) - sum C(k-1, j-1) c_j 2^C(k-j,2)
        c = [0]
        for k in range(1, n + 1):
            c.append(2 ** comb(k, 2) - sum(comb(k - 1, j - 1) * c[j] * 2 ** comb(k - j, 2) for j in range(1, k)))
        g = complete(n)
        assert census.count_connected_subgraphs(g) == sum(comb(n, k) * c[k] for k in range(1, n + 1))
        f = sum(comb(n - 1, k - 1) * c[k] for k in range(1, n + 1))
        assert [census.subgraph_number(g, v) for v in (0, n - 1)] == [f, f]

    def test_primes_cover_every_table(self):
        for p in census._PRIMES:
            assert census._DP_MAX_N < p < 1 << 29
            assert all(p % d for d in range(2, isqrt(p) + 1))
        # an entry counts edge subsets, so 2^m with m at most C(13, 2) bounds it
        assert prod(census._PRIMES) > 1 << comb(census._DP_MAX_N, 2)
        # int64 bounds: an unreduced transform sums 2^n residues, and a step
        # of the logarithm subtracts up to n + 1 products of two
        assert (1 << census._DP_MAX_N) * max(census._PRIMES) < 2**62
        assert (census._DP_MAX_N + 1) * max(census._PRIMES) ** 2 < 2**63

    def test_too_few_primes_raise(self, monkeypatch):
        # one 16-bit prime cannot hold K8's entries, which reach 2^28
        monkeypatch.setattr(census, "_PRIMES", (65521,))
        with pytest.raises(census.CensusLimitError):
            census.count_connected_subgraphs(complete(8))
        monkeypatch.setattr(census, "_PRIMES", census._PRIMES[:2])
        with pytest.raises(census.CensusLimitError):
            census.count_connected_subgraphs(complete(13))

    def test_small_primes_that_cover_stay_exact(self, monkeypatch):
        # two 16-bit primes cover 2^28: the residues combine exactly
        want = subset_table_oracle(complete(8))
        monkeypatch.setattr(census, "_PRIMES", (65521, 65519))
        assert census.connected_set_table(complete(8)) == want
        # three 10-bit primes: two higher digits on top of the first
        monkeypatch.setattr(census, "_PRIMES", (1021, 1019, 1013))
        assert census.connected_set_table(complete(8)) == want
