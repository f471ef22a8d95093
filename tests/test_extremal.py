import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from connsub import census, extremal, generate
from connsub.extremal import (
    ClassSpec,
    _class_rows,
    evaluate_counts,
    report_summary_line,
    report_to_json_dict,
    search_min_F,
    search_min_vertex_subgraph_number,
)
from connsub.families import build, parse_family_spec
from connsub.generate import GENERATION_CAP, connected_classes, glue
from connsub.graph import Graph, bits, cut_vertices, girth, is_connected

from helpers import canonical_key, subset_tables


def G(text):
    return build(parse_family_spec(text))


def keyof(text):
    return canonical_key(G(text))


def minimizer_keys(report):
    from connsub.graphio import parse_graph6

    return {canonical_key(parse_graph6(s)) for s in report.minimizers}


class TestClassSpec:
    def test_rejects_over_cap(self):
        with pytest.raises(ValueError):
            ClassSpec(10, 0)

    def test_rejects_bad_subset(self):
        with pytest.raises(ValueError):
            ClassSpec(5, 1, subset="cacti")

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            ClassSpec(5, -1)


def class_graphs(spec):
    cat, rows = _class_rows(spec)
    return [cat.graphs[i] for i in rows]


class TestGenerate:
    def test_all_four_vertex_graphs(self):
        seen = [g for k in range(0, 4) for g in class_graphs(ClassSpec(4, k))]
        assert len(seen) == 6

    def test_class_six_one_contains_named_graphs(self):
        keys = {canonical_key(g) for g in class_graphs(ClassSpec(6, 1))}
        assert keyof("S:n=6") in keys
        assert keyof("L:n=6,g=5") in keys

    def test_impossible_cut_counts_empty(self):
        assert len(class_graphs(ClassSpec(5, 5))) == 0
        assert len(class_graphs(ClassSpec(5, 4))) == 0

    def test_no_class_has_n_or_n_minus_one_cut_vertices(self):
        # the lemma behind _class_rows' early return, checked on every
        # class rather than assumed: an end vertex of a longest path is no
        # cut vertex, and a connected graph on n >= 2 vertices has two; the
        # kernel's cut count also puts each class in its generator's stratum
        for n in range(2, 9):
            block, cut = extremal.catalog(n, "block"), extremal.catalog(n, "cut")
            assert (block.k == 0).all() and (cut.k >= 1).all()
            assert np.concatenate([block.k, cut.k]).max() <= n - 2

    def test_catalog_takes_only_the_two_strata(self):
        for stratum in ("all", "2-connected", ""):
            with pytest.raises(ValueError):
                extremal.catalog(5, stratum)
        with pytest.raises(TypeError):
            extremal.catalog(5)

    def test_catalogs_evaluate_each_class_once(self, monkeypatch):
        # the 468 classes without a cut vertex go through the kernel once;
        # the 385 with one are evaluated from their parts' values, one pair
        # evaluation per part order 2..6; a second read evaluates nothing
        monkeypatch.setattr(generate, "_store", {})
        monkeypatch.setattr(extremal, "_catalog_cache", {})
        evaluated = []
        kernel = extremal.evaluate_counts

        def spy(graphs, *pairs):
            evaluated.append((graphs[0].n, *pairs))
            return kernel(graphs, *pairs)

        monkeypatch.setattr(extremal, "evaluate_counts", spy)
        assert len(extremal.catalog(7, "cut")) == 385
        assert sorted(evaluated) == [(order, True) for order in range(2, 7)]
        evaluated.clear()
        assert len(extremal.catalog(7, "block")) == 468
        assert len(extremal.catalog(7, "cut")) == 385
        assert evaluated == [(7,)]
        assert {stratum for _, stratum in extremal._catalog_cache} == {"cut", "block"}

    def test_visited_graphs_satisfy_filters(self):
        spec = ClassSpec(7, 2, min_girth=4, subset="nontrees")
        seen = class_graphs(spec)
        assert seen
        for g in seen:
            assert is_connected(g)
            assert len(cut_vertices(g)) == 2
            assert girth(g) >= 4
            assert g.m >= g.n
        # the floor is inclusive
        assert any(girth(g) == 4 for g in seen)

    def test_girth_filter_trivial_below_four(self):
        plain = class_graphs(ClassSpec(6, 2))
        floored = class_graphs(ClassSpec(6, 2, min_girth=3))
        assert len(plain) == len(floored)

    def test_girth_floor_keeps_forests(self):
        # a tree has no cycle, so no floor removes it
        trees = class_graphs(ClassSpec(7, 2, subset="trees"))
        assert trees
        assert class_graphs(ClassSpec(7, 2, min_girth=50, subset="trees")) == trees


class TestBatchKernel:
    def test_matches_scalar_tables_exhaustively(self):
        for n in range(2, 7):
            graphs = list(connected_classes(n))
            tables = subset_tables(graphs)
            for row, g in zip(tables, graphs):
                assert list(row) == census.connected_set_table(g)

    def test_pair_and_edge_counts_match_census(self):
        for n in range(2, 7):
            graphs = list(connected_classes(n))
            _, f, _, m, _, pair = evaluate_counts(graphs, True)
            assert (f == evaluate_counts(graphs)[1]).all()
            assert m.tolist() == [g.m for g in graphs]
            assert (pair == pair.transpose(0, 2, 1)).all()
            for g, row in zip(graphs, pair):
                for x in range(n):
                    for y in range(x, n):
                        assert row[x, y] == census.count_containing(g, {x, y})

    def test_evaluate_counts_rejects_disconnected(self):
        with pytest.raises(ValueError):
            evaluate_counts([Graph.from_edges(4, [(0, 1), (2, 3)])])

    def test_sparse_order_eleven_matches_census(self):
        for text in ("C:n=11", "P:n=11"):
            g = G(text)
            assert list(subset_tables([g])[0]) == census.connected_set_table(g)

    def test_rejects_batches_beyond_int64_bound(self):
        k11 = Graph.from_edges(11, [(i, j) for i in range(11) for j in range(i + 1, 11)])
        assert k11.n + k11.m == 66
        with pytest.raises(ValueError):
            subset_tables([k11])
        with pytest.raises(ValueError):
            subset_tables([G("P:n=13")])


class TestCatalogColumns:
    def test_structure_columns_match_the_graph_oracles(self):
        # below the cap, k, girth and the tree flag are read off the subset
        # table; cut_vertices, graph.girth and g.m are the oracles
        for n in range(1, GENERATION_CAP):
            for stratum in ("block", "cut"):
                cat = extremal.catalog(n, stratum)
                assert cat.k.tolist() == [len(cut_vertices(g)) for g in cat.graphs]
                assert cat.girth.tolist() == [girth(g) or extremal._NO_CYCLE for g in cat.graphs]
                assert cat.tree.tolist() == [g.m == n - 1 for g in cat.graphs]

    def test_count_columns_match_census(self):
        for n in range(1, 8):
            for stratum in ("block", "cut"):
                cat = extremal.catalog(n, stratum)
                for g, total, f_min, argmin in zip(
                    cat.graphs, cat.total.tolist(), cat.f_min.tolist(), cat.argmin.tolist()
                ):
                    assert total == census.count_connected_subgraphs(g)
                    fs = [census.subgraph_number(g, v) for v in range(n)]
                    assert f_min == min(fs)
                    assert bits(argmin) == [v for v in range(n) if fs[v] == f_min]


class TestCapFromParts:
    def test_parts_match_the_kernel_on_every_cap_class(self):
        # every class with a cut vertex, at every n up to the cap, evaluated
        # from its parts, against the kernel and graph.girth on its glued graph
        sizes = {3: 1, 4: 3, 5: 11, 6: 56, 7: 385, 8: 3994, GENERATION_CAP: 67014}
        for n, size in sizes.items():
            cat = extremal.catalog(n, "cut")
            assert len(cat) == size
            _, fvec, _, _, _ = extremal._evaluate_gluings(cat.graphs.pairs)
            member = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
            for lo in range(0, len(cat), 2048):
                rows = slice(lo, lo + 2048)
                pairs = cat.graphs.pairs[rows]
                graphs = [glue(c1.graph, r1, c2.graph, r2) for c1, r1, c2, r2 in pairs]
                tables = subset_tables(graphs)
                want = np.stack([tables[:, member[:, x]].sum(axis=1) for x in range(n)], axis=1)
                assert (fvec[rows] == want).all()
                total, f, cut, m, girths = evaluate_counts(graphs)
                f_min, argmin = extremal._minima(f)
                assert (cat.total[rows] == total).all()
                assert (cat.f_min[rows] == f_min).all() and (cat.argmin[rows] == argmin).all()
                assert (cat.k[rows] == np.bitwise_count(cut)).all()
                assert (cat.tree[rows] == (m == n - 1)).all() and (cat.girth[rows] == girths).all()
                assert cat.girth[rows].tolist() == [
                    girth(g) or extremal._NO_CYCLE for g in graphs
                ]

    def test_refuses_a_cap_batch_beyond_the_int64_bound(self, monkeypatch):
        # the parts' tables (n + m <= 8 + 28) pass a bound of 37; the largest
        # gluing, K8 with a pendant edge (9 + 29), does not
        pairs = generate._composed(GENERATION_CAP).pairs
        monkeypatch.setattr(extremal, "_EXACT_MAX_N_PLUS_M", 37)
        with pytest.raises(ValueError, match=r"n \+ m <= 37, batch has 38"):
            extremal._evaluate_gluings(pairs)

    def test_the_int64_bound_is_checked_on_every_slice(self, monkeypatch):
        # at 64 gluings a slice, K8 with a pendant edge sits past the first
        # slice, so a guard that read only the first would pass the batch
        n, rows = GENERATION_CAP, 64
        pairs = generate._composed(n).pairs
        n1s = np.array([cls1.graph.n for cls1, _, _, _ in pairs])
        (bad,) = np.flatnonzero([n + c1.graph.m + c2.graph.m > 37 for c1, _, c2, _ in pairs])
        assert bad not in np.flatnonzero(n1s == n1s.min())[:rows]
        monkeypatch.setattr(extremal, "_SLICE_ENTRIES", rows * n)
        monkeypatch.setattr(extremal, "_EXACT_MAX_N_PLUS_M", 37)
        with pytest.raises(ValueError, match=r"n \+ m <= 37, batch has 38"):
            extremal._evaluate_gluings(pairs)

    def test_cap_search_builds_no_graph_but_its_minimisers(self, monkeypatch):
        # composing and evaluating the cap glues nothing and runs no kernel
        # at the cap; a search glues only the minimisers it reports, and so
        # does a search below the cap
        generate.rooted_classes(GENERATION_CAP - 1)  # level 8's records
        store = dict(generate._store)
        store.pop((GENERATION_CAP, "gluings"), None)
        monkeypatch.setattr(generate, "_store", store)
        monkeypatch.setattr(extremal, "_catalog_cache", {})
        kernel_calls, glued = [], []
        kernel = extremal.evaluate_counts

        def kernel_spy(graphs, *pairs):
            kernel_calls.append((graphs[0].n, *pairs))
            return kernel(graphs, *pairs)

        def glue_spy(*parts):
            glued.append(parts)
            return glue(*parts)

        monkeypatch.setattr(extremal, "evaluate_counts", kernel_spy)
        monkeypatch.setattr(generate, "glue", glue_spy)
        assert len(extremal.catalog(GENERATION_CAP, "cut")) == 67014
        assert glued == []
        report = search_min_F(ClassSpec(GENERATION_CAP, 1))
        # glued to be named and again to be re-checked
        assert len(set(glued)) == len(report.minimizers) == 1
        # the part values: one pair-count evaluation per order below the cap
        assert sorted(kernel_calls) == [(order, True) for order in range(2, GENERATION_CAP)]
        # below the cap a search reads the same part pairs: the n = 8
        # searches make one pair evaluation per part order 2..7 and one plain
        # kernel call, for the classes without a cut vertex, and glue only
        # their minimisers
        kernel_calls.clear()
        glued.clear()
        reports = [search_min_F(ClassSpec(GENERATION_CAP - 1, k)) for k in range(7)]
        assert sorted(kernel_calls) == [
            *((order, True) for order in range(2, GENERATION_CAP - 1)),
            (GENERATION_CAP - 1,),
        ]
        named = set().union(*(minimizer_keys(r) for r in reports if r.spec.k >= 1))
        assert len(set(glued)) == len(named)
        assert {canonical_key(glue(*parts)) for parts in glued} == named


def traced_peak(call, *args):
    """The result of ``call(*args)`` and the peak of its allocations under
    tracemalloc, in bytes."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    def test_a_kernel_batch_at_nine_peaks_below_twelve_megabytes(self):
        # about 8.5 MB in chunks of 2^18 table entries (512 graphs at n = 9),
        # 24.5 MB in chunks of 2,048 graphs: a chunk's tables set the peak,
        # whatever the graphs; these are 2,048 classes of the cap, glued
        pairs = generate._composed(GENERATION_CAP).pairs[:2048]
        graphs = [glue(c1.graph, r1, c2.graph, r2) for c1, r1, c2, r2 in pairs]
        _, peak = traced_peak(evaluate_counts, graphs)
        assert peak < 12 << 20

    def test_the_cap_evaluation_peaks_below_twenty_megabytes_over_its_outputs(self):
        # about 14.8 MB over the outputs' 6.2 MB in slices of 2^15 entries
        # and 2^18-entry kernel chunks, 29.9 MB with whole part-order groups
        # and 2,048-graph chunks
        pairs = generate._composed(GENERATION_CAP).pairs
        outputs, peak = traced_peak(extremal._evaluate_gluings, pairs)
        assert peak - sum(a.nbytes for a in outputs) < 20 << 20

    def test_small_chunks_and_slices_change_no_value(self, monkeypatch):
        # 7 graphs a kernel chunk at n = 8 and 37 gluings a slice, each
        # with a ragged last one, against the default budgets
        graphs = list(connected_classes(8))[:300]
        pairs = generate._composed(8).pairs
        groups = np.unique([cls1.graph.n for cls1, _, _, _ in pairs], return_counts=True)[1]
        assert len(graphs) % 7 and (groups % 37).any()
        want = evaluate_counts(graphs, True) + extremal._evaluate_gluings(pairs)
        monkeypatch.setattr(extremal, "_CHUNK_ENTRIES", 7 << 8)
        monkeypatch.setattr(extremal, "_SLICE_ENTRIES", 37 * 8)
        got = evaluate_counts(graphs, True) + extremal._evaluate_gluings(pairs)
        assert len(got) == len(want) == 11
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestSearches:
    def test_min_total_six_one(self):
        report = search_min_F(ClassSpec(6, 1))
        assert report.minimum == 37
        assert minimizer_keys(report) == {keyof("S:n=6")}
        assert report.class_size == 33

    def test_min_vertex_eight_two_nontrees(self):
        report = search_min_vertex_subgraph_number(ClassSpec(8, 2, subset="nontrees"))
        assert report.minimum == 24
        assert minimizer_keys(report) == {keyof("L:n=8,g=6")}

    def test_min_vertex_tie_at_six_one(self):
        report = search_min_vertex_subgraph_number(ClassSpec(6, 1))
        assert report.minimum == 17
        assert minimizer_keys(report) == {keyof("S:n=6"), keyof("L:n=6,g=5")}

    def test_empty_class_report(self):
        report = search_min_F(ClassSpec(5, 4))
        assert report.minimum is None
        assert report.minimizers == ()
        assert report.class_size == 0

    def test_subset_minima_combine(self):
        spec_all = ClassSpec(7, 2)
        trees = search_min_F(ClassSpec(7, 2, subset="trees"))
        nontrees = search_min_F(ClassSpec(7, 2, subset="nontrees"))
        combined = search_min_F(spec_all)
        assert combined.minimum == min(trees.minimum, nontrees.minimum)
        assert (
            trees.class_size + nontrees.class_size == combined.class_size
        )

    def test_minimizers_sorted_and_distinct(self):
        report = search_min_vertex_subgraph_number(ClassSpec(8, 3))
        assert list(report.minimizers) == sorted(report.minimizers)
        assert len(set(report.minimizers)) == len(report.minimizers)
        assert len(report.argmin_vertices) == len(report.minimizers)

    @pytest.mark.parametrize(
        "spec", [ClassSpec(5, 1), ClassSpec(GENERATION_CAP, 4)], ids=["n5", "cap"]
    )
    def test_search_canonises_and_serialises_only_its_minimisers(self, monkeypatch, spec):
        # at the cap the minimum vertex count over k = 4 has two minimisers;
        # a class is canonised once, when a report first names it
        cat = extremal.catalog(spec.n, "cut")
        monkeypatch.setitem(extremal._catalog_cache, (spec.n, "cut"), replace(cat, names={}))
        canonised, serialised = [], []
        canonize, serialize = extremal.canonize, extremal.serialize_graph6
        monkeypatch.setattr(extremal, "canonize", lambda g: canonised.append(g) or canonize(g))
        monkeypatch.setattr(
            extremal, "serialize_graph6", lambda g: serialised.append(g) or serialize(g)
        )
        named = set()
        for search in (search_min_F, search_min_vertex_subgraph_number, search_min_F):
            report = search(spec)
            assert report.class_size > len(report.minimizers)
            named.update(report.minimizers)
            assert len(canonised) == len(serialised) == len(named)
            assert set(map(serialize, serialised)) == named

    @pytest.mark.parametrize(
        "search,column",
        [
            (search_min_F, "total"),
            (search_min_vertex_subgraph_number, "f_min"),
            (search_min_vertex_subgraph_number, "argmin"),
        ],
    )
    def test_decomposition_recheck_catches_a_wrong_column(self, monkeypatch, search, column):
        # a fresh names dict: a wrong argmin column must not name the real catalog's rows
        cat = extremal.catalog(6, "cut")
        wrong = replace(cat, names={}, **{column: getattr(cat, column) - 1})
        monkeypatch.setitem(extremal._catalog_cache, (6, "cut"), wrong)
        with pytest.raises(AssertionError, match="decomposition disagrees"):
            search(ClassSpec(6, 1))


class TestReports:
    def test_json_shape(self):
        report = search_min_F(ClassSpec(6, 2))
        doc = report_to_json_dict(report)
        assert doc["minimum"] == str(report.minimum)
        assert doc["class"] == {"n": 6, "k": 2, "min_girth": None, "subset": "all"}
        assert json.dumps(doc)

    def test_json_empty_class(self):
        doc = report_to_json_dict(search_min_F(ClassSpec(5, 4)))
        assert doc["minimum"] is None and doc["minimizers"] == []

    def test_summary_line(self):
        line = report_summary_line(search_min_F(ClassSpec(6, 1)))
        assert line.startswith("min=37 minimizers=") and line.endswith("classes=33")

    def test_cap_level_reports_are_pinned(self):
        # every n = 9 search with k >= 1 reports the canonical graph6 and
        # argmin labels of its minimisers, although the one-cut-vertex
        # classes there are stored unlabeled; the digest was taken when
        # every class was stored canonically labeled
        digest = hashlib.sha256()
        for k in range(1, 8):
            for subset in ("all", "trees", "nontrees"):
                for min_girth in (k, k + 3):
                    spec = ClassSpec(9, k, min_girth=min_girth, subset=subset)
                    for search in (search_min_F, search_min_vertex_subgraph_number):
                        doc = report_to_json_dict(search(spec))
                        del doc["wall_time_ms"]
                        digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == (
            "7f3b243b370a0093f5d3f751b799f4f823dda9a709a624cbf1676fd6ea7f9a89"
        )


class TestTheoremRegistry:
    def test_names_listed(self):
        from connsub.verify import theorem_names, verify_theorem

        names = theorem_names()
        assert "edge-monotonicity" in names and "count-floor-girth" in names
        with pytest.raises(ValueError):
            verify_theorem("no-such-claim")

    def test_n_max_below_a_first_n_is_refused(self):
        # a row with no n up to n_max would check nothing and read as a pass
        from connsub.verify import verify_theorem

        with pytest.raises(ValueError, match="'edge-monotonicity' starts at n = 2"):
            verify_theorem("edge-monotonicity", 1)
        with pytest.raises(ValueError, match="'girth-free-agreement' starts at n = 6"):
            verify_theorem("girth-free-agreement", 5)
        assert verify_theorem("edge-monotonicity", 2).items
        assert verify_theorem("branch-move-decrease", 1).passed

    def test_floor_row_fails_an_unexpected_empty_class(self):
        # no tree on n vertices has n - 1 cut vertices; a row without an
        # emptiness rule must report such a class as a failure, not skip it
        from dataclasses import replace

        from connsub import verify

        row = verify._THEOREMS["tree-vertex-floor"][2]
        row = replace(row, ks=lambda n: range(n - 1, n), expected=lambda n, k: ())
        items = [item for n in (3, 4) for item in row(n)]
        assert [item.passed for item in items] == [False, False]

    def test_block_pair_floor_reports_the_four_star(self):
        # the 4-star is the floor's one exception; named as any other graph,
        # its centre-leaf pair (count 4) breaks the floor 2(4-1)-1 = 5
        from connsub import verify

        star4 = verify._named_form("S:n=4")[0]
        assert verify._block_pair_offence(4, star4) is None
        assert verify._block_pair_offence(4, star4="not the star") == f"{star4} pair (0,3): 4 < 5"

    @pytest.mark.parametrize(
        "edges,offence",
        [
            # three triangles at 0: the argmin triangle has two non-edge sharers
            ([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4), (0, 5), (5, 6), (0, 6)],
             "non-pendant-edge sharer at 0"),
            # a triangle and five pendant edges at 0: five sharers are too many
            ([(0, 1), (1, 2), (0, 2)] + [(0, v) for v in range(3, 8)], "5 other blocks at 0"),
            # a triangle and two pendant edges at 0 keep the limit
            ([(0, 1), (1, 2), (0, 2), (0, 3), (0, 4)], None),
        ],
    )
    def test_pendant_share_offence(self, edges, offence):
        from connsub import verify
        from connsub.extremal import SearchReport
        from connsub.graphio import serialize_graph6

        g = Graph.from_edges(max(max(e) for e in edges) + 1, edges)
        g6 = serialize_graph6(g)
        report = SearchReport(ClassSpec(g.n, 1), "minf", 0, (g6,), ((1,),), 1, 0)
        got = verify._pendant_share_offence(report)
        assert got == (None if offence is None else f"{g6}: {offence}")

    @pytest.mark.parametrize(
        "text,tag,argmin,passed",
        [
            # every vertex of the cycle is in the tagged vertex's orbit
            ("C:n=5", "any", (0, 1, 2, 3, 4), True),
            ("C:n=5", "any", (0,), False),
            # the lollipop's pendant, canonical label 0, is its own orbit
            ("L:n=6,g=4", "pendant", (0,), True),
            ("L:n=6,g=4", "pendant", (4,), False),
        ],
    )
    def test_argmin_at_tag_is_the_tagged_orbit(self, text, tag, argmin, passed):
        from connsub import verify
        from connsub.extremal import SearchReport

        g6 = verify._named_form(text)[0]
        # the check reads only the minimizers and their argmin vertices
        report = SearchReport(ClassSpec(5, 0), "minf", 0, (g6,), (argmin,), 1, 0)
        assert verify._argmin_at_tag(report, text, tag) is passed
