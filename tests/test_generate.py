import gc
import hashlib
import random
import sys
from collections import Counter
from dataclasses import replace
from itertools import combinations
from operator import itemgetter

import pytest

import connsub
from connsub import canon, extremal, generate
from connsub.canon import (
    canonical_labeling,
    positions,
    vertex_orbits,
)
from connsub.extremal import ClassSpec, search_min_F, search_min_vertex_subgraph_number
from connsub.generate import (
    GENERATION_CAP,
    classes_with_cut_vertices,
    connected_classes,
    glue,
    rooted_classes,
)
from connsub.graph import Graph, cut_vertices, is_connected
from connsub.graphio import parse_graph6

from helpers import _group, canonical_key, labeled_key, leaf_stripping_certificate

# connected graphs up to isomorphism, then the 2-connected stratum
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
TWO_CONNECTED_COUNTS = {3: 1, 4: 3, 5: 10, 6: 56, 7: 468, 8: 7123}


def test_connected_class_counts():
    for n, want in CONNECTED_COUNTS.items():
        assert len(connected_classes(n)) == want


def naive_connected_classes(n: int) -> tuple[Graph, ...]:
    """Completeness oracle: scan all labeled graphs on n <= 6 vertices.  For
    n = 7, join a new vertex to every nonempty subset of every naive class
    on 6 vertices: deleting a leaf of a spanning tree leaves a connected
    graph, so every connected class arises."""
    if n == 7:
        labeled = [
            Graph(n, (*(a | (s >> v & 1) << 6 for v, a in enumerate(p.adj)), s))
            for p in naive_connected_classes(6)
            for s in range(1, 1 << 6)
        ]
    else:
        pairs = list(combinations(range(n), 2))
        labeled = [
            Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            for mask in range(1 << len(pairs))
        ]
    found: dict[bytes, Graph] = {}
    for g in labeled:
        if not is_connected(g):
            continue
        key, order, _ = canonical_labeling(g)
        if key not in found:
            found[key] = g.relabel(positions(order))
    return tuple(found[k] for k in sorted(found))


def test_all_connected_and_distinct():
    for n in range(1, 9):
        classes = connected_classes(n)
        assert all(is_connected(g) for g in classes)
        keys = [canonical_key(g) for g in classes]
        # distinct, canonically labeled, in canonical-key order
        assert keys == sorted(set(keys))
        assert keys == [labeled_key(g) for g in classes]


def test_matches_naive_oracle():
    for n in range(1, 8):
        fast = {canonical_key(g) for g in connected_classes(n)}
        naive = {canonical_key(g) for g in naive_connected_classes(n)}
        assert fast == naive


def test_cut_vertex_stratum_counts():
    for n in range(3, 9):
        want = CONNECTED_COUNTS[n] - TWO_CONNECTED_COUNTS[n]
        assert len(classes_with_cut_vertices(n)) == want


def test_two_connected_stratum_counts():
    # the augmented stratum: every class without a cut vertex, A002218
    for n in range(3, 9):
        composed = set(classes_with_cut_vertices(n))
        two = [g for g in connected_classes(n) if g not in composed]
        assert len(two) == TWO_CONNECTED_COUNTS[n]
        assert not any(cut_vertices(g) for g in two)
        assert generate.block_classes(n) == tuple(two)


def test_block_classes_seed_k1_and_k2():
    assert generate.block_classes(1) == connected_classes(1) == (Graph(1, (0,)),)
    assert generate.block_classes(2) == connected_classes(2) == (Graph.from_edges(2, [(0, 1)]),)
    with pytest.raises(ValueError):
        generate.block_classes(0)


def test_augmentation_canonisation_count(monkeypatch):
    # screening subsets, keeping one per Aut(parent) orbit and rejecting a
    # child on its invariant keep the labelings near the class count (12,350
    # through n = 8); one per (parent, subset) is 116,146
    monkeypatch.setattr(generate, "_store", {})
    calls = 0
    label = canon.canonical_labeling

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return label(*args, **kwargs)

    # every class, and every augmented child with two or more deletion
    # candidates, is labeled once by canon.canonize; parents' generators
    # come from the store
    monkeypatch.setattr(canon, "canonical_labeling", counted)
    assert len(generate.connected_classes(8)) == CONNECTED_COUNTS[8]
    assert calls < 13_000


def _deletion_set(adj):
    """B(G) from its definition: the vertices of minimum degree whose
    sorted neighbour degrees, then edge count among the neighbours, are
    greatest."""
    n = len(adj)
    deg = [a.bit_count() for a in adj]

    def invariant(v):
        nbrs = [u for u in range(n) if adj[v] >> u & 1]
        inner = sum(adj[x] >> y & 1 for x, y in combinations(nbrs, 2))
        return sorted(deg[u] for u in nbrs), inner

    low = [v for v in range(n) if deg[v] == min(deg)]
    top = max(map(invariant, low))
    return {v for v in low if invariant(v) == top}


def test_unlabeled_verdicts_match_the_labeled_verdict():
    # on every child at every level <= 8 whose new vertex is a deletion
    # candidate, in augmentation's order (its parents in key order, both
    # strata together), the labeled verdict accepts iff
    # the new vertex lies in the orbit of m(G), the vertex of B(G) with the
    # least canonical label: it accepts every child whose only deletion
    # candidate is the new vertex, and augmentation keeps exactly the
    # children it accepts
    for n in range(3, 9):
        new = n - 1
        accepted, singletons = [], 0
        for cls in generate._records(n - 1):
            parent = cls.graph
            for s in generate._subset_orbit_reps(cls):
                adj = [a | 1 << new if s >> v & 1 else a for v, a in enumerate(parent.adj)]
                adj.append(s)
                best = generate._deletion_candidates(adj, s.bit_count())
                b = _deletion_set(adj)
                assert best == (sorted(b, key=lambda v: v != new) if new in b else None)
                if best is None:  # the orbit of m(G) lies in B(G)
                    continue
                key, _, pos, roots, _ = canon.canonize(Graph(n, tuple(adj)))
                least = min(b, key=pos.__getitem__)
                verdict = roots[pos[new]] == roots[pos[least]]
                if best == [new]:
                    assert verdict
                    singletons += 1
                if verdict:
                    accepted.append(key)
        children, labels = generate._two_connected(n)
        assert len(accepted) == TWO_CONNECTED_COUNTS[n] >= singletons
        assert [canonical_key(g) for g in children] == accepted
        # an unlabeled child keeps its labels, the new vertex last; a
        # labeled one is its canonical copy, held by its record with that
        # labeling's key, orbit roots and generators
        assert len(children) - len(labels) == singletons
        for i, g in enumerate(children):
            label = labels.get(i)
            if label is None:
                assert generate._deletion_candidates(list(g.adj), g.adj[new].bit_count()) == [new]
            else:
                assert label.graph is g
                again, _, _, roots_again, _ = canon.canonize(g)
                assert (label.key, label.roots) == (again, roots_again)
                assert all(g.relabel(a) == g for a in label.gens)
    # at n = 8, 5,369 of the 7,352 children that pass the invariant screen
    assert singletons == 5369


def test_stored_generators_generate_each_class_group():
    # the store keeps each class's generators below the cap; they generate
    # the same group as a fresh labeling of the stored canonical graph
    for n in range(1, 8):
        for cls in generate._records(n):
            want = _group(canonical_labeling(cls.graph)[2], n)
            assert _group(cls.gens, n) == want


def _screened(p):
    """Every subset S, as a mask, such that p plus a vertex joined to S is
    2-connected with minimum degree |S|, by building each child."""
    kept = []
    for s in range(1, 1 << p.n):
        size = s.bit_count()
        adj = [a | 1 << p.n if s >> v & 1 else a for v, a in enumerate(p.adj)] + [s]
        child = Graph(p.n + 1, tuple(adj))
        if size >= 2 and not cut_vertices(child) and min(a.bit_count() for a in adj) == size:
            kept.append(s)
    return kept


def test_subset_orbit_reps_are_the_least_of_each_orbit():
    # against the enumerated group: one subset per orbit of screened
    # subsets, the orbit's least mask, in ascending order
    for n in range(1, 8):
        for cls in generate._records(n):
            g = cls.graph
            group = _group(cls.gens, n)
            want = {
                min(sum(1 << perm[v] for v in range(n) if s >> v & 1) for perm in group)
                for s in _screened(g)
            }
            assert generate._subset_orbit_reps(cls) == sorted(want)


def test_each_record_holds_its_cut_vertex_mask():
    # the vertices in two or more of a record's blocks, against the block DFS
    for n in range(1, 9):
        for cls in generate._records(n):
            assert cls.cut == sum(1 << v for v in cut_vertices(cls.graph))


def test_augmentation_runs_no_block_dfs(monkeypatch):
    # each parent is split at its record's cut mask, so level 8's
    # 2-connected classes are built from an empty store with the DFS refused
    monkeypatch.setattr(generate, "_store", {})

    def refused(g):
        raise AssertionError("augmentation ran the block DFS")

    monkeypatch.setattr("connsub.graph._blocks", refused)
    assert len(generate._augmented(8)) == TWO_CONNECTED_COUNTS[8]


def test_least_image_is_the_least_over_the_group(monkeypatch):
    # every least image the certificates take while n <= 8 is composed
    # equals the least over the enumerated group's images
    monkeypatch.setattr(generate, "_store", {})
    calls = []
    least = generate._Class.least

    def spy(self, colours):
        result = least(self, colours)
        calls.append((self, list(colours), result))
        return result

    monkeypatch.setattr(generate._Class, "least", spy)
    for n in range(1, 9):
        generate._composed(n)
    assert calls
    groups = {}
    for cls, colours, result in calls:
        if cls.key not in groups:
            groups[cls.key] = _group(cls.gens, len(cls.roots))
        assert result == b"".join(min(itemgetter(*perm)(colours) for perm in groups[cls.key]))


def test_cap_certificates_are_pinned():
    # the cap's classes with a cut vertex, the first gluing of each
    # certificate in sorted certificate order: the certificate bytes fix the
    # order of the cap's rows
    first = {}
    for (cls1, r1, _), (cls2, r2, _), cert in generate._gluings(GENERATION_CAP):
        first.setdefault(cert, (cls1, r1, cls2, r2))
    certificates = sorted(first)
    assert generate._composed(GENERATION_CAP).pairs == tuple(first[c] for c in certificates)
    assert len(certificates) == 67_014
    digest = hashlib.sha256(b"".join(bytes([len(c)]) + c for c in certificates))
    assert digest.hexdigest() == (
        "a87107c41c17d31b065e2c0b80535eedb6603d6ef83a432873caaaa6b5ce949a"
    )


def test_searches_at_the_cap_build_no_records(monkeypatch):
    # with the cap at 7, both objectives for every k read the cap through
    # its unread views: no record tuple is built there, and the children
    # labeled for their verdict keep no record; a read of the cap gives full
    # records, generators included, and leaves its part pairs as they were
    monkeypatch.setattr(generate, "_store", {})
    monkeypatch.setattr(extremal, "_catalog_cache", {})
    monkeypatch.setattr(generate, "GENERATION_CAP", 7)
    for k in range(8):
        for search in (search_min_F, search_min_vertex_subgraph_number):
            search(ClassSpec(7, k))
    assert (7, "records") not in generate._store
    children, labeled = generate._store[7, "children"]
    assert len(children) == TWO_CONNECTED_COUNTS[7] and labeled == {}
    pairs = generate._composed(7)
    records = generate._records(7)
    assert len(records) == CONNECTED_COUNTS[7]
    assert any(cls.gens for cls in records if len(cls.blocks) == 1)
    assert any(cls.gens for cls in records if len(cls.blocks) > 1)
    assert generate._composed(7) is pairs


def test_class_records_are_pinned():
    # every record on at most 8 vertices, per level those with one block
    # and then the rest, each in key order: its key, its orbit roots and its
    # block list (each block's class key and vertices)
    digest = hashlib.sha256()
    for n in range(1, 9):
        records = generate._records(n)
        keys = [cls.key for cls in records]
        assert keys == sorted(keys)
        for cls in sorted(records, key=lambda cls: len(cls.blocks) > 1):
            blocks = b"".join(b.key + verts for b, verts in cls.blocks)
            digest.update(cls.key + cls.roots + bytes([len(cls.blocks)]) + blocks)
    assert digest.hexdigest() == (
        "52b71c57ed8bf358257c70bd603b6917cd98154bdf58912b64c0bcf4fabac009"
    )


def test_levels_above_the_cap_are_refused(monkeypatch):
    # no records are kept at the cap, so nothing can be generated past it;
    # the refusal comes before any level is built
    monkeypatch.setattr(generate, "_store", {})
    for build in (generate.block_classes, classes_with_cut_vertices, connected_classes):
        with pytest.raises(ValueError, match=f"n in 1..{GENERATION_CAP}$"):
            build(GENERATION_CAP + 1)
    assert generate._store == {}


def test_cut_class_search_skips_augmenting_its_level(monkeypatch):
    # k >= 1 reads only composition, which glues rooted classes on fewer
    # vertices: level 7's 2-connected stratum is never built
    monkeypatch.setattr(generate, "_store", {})
    monkeypatch.setattr(extremal, "_catalog_cache", {})
    augmented = []
    augment = generate._two_connected

    def spy(n):
        augmented.append(n)
        return augment(n)

    monkeypatch.setattr(generate, "_two_connected", spy)
    assert search_min_F(ClassSpec(7, 2)).class_size > 0
    assert augmented and max(augmented) < 7
    assert (7, "children") not in generate._store and (7, "records") not in generate._store


def test_block_class_search_skips_composing_its_level(monkeypatch):
    # k = 0 reads only augmentation, whose parents are the classes on n - 1
    # vertices: level 8's classes with a cut vertex are never composed
    monkeypatch.setattr(generate, "_store", {})
    monkeypatch.setattr(extremal, "_catalog_cache", {})
    composed = []
    compose = generate._composed
    evaluated = []
    kernel = extremal.evaluate_counts

    def compose_spy(n):
        composed.append(n)
        return compose(n)

    def kernel_spy(graphs):
        evaluated.append(len(graphs))
        return kernel(graphs)

    monkeypatch.setattr(generate, "_composed", compose_spy)
    monkeypatch.setattr(extremal, "evaluate_counts", kernel_spy)
    assert search_min_F(ClassSpec(8, 0)).class_size == TWO_CONNECTED_COUNTS[8]
    assert composed and max(composed) <= 7
    assert sum(evaluated) == TWO_CONNECTED_COUNTS[8]
    # every stored level is read records, part pairs or unread children
    assert {tag for _, tag in generate._store} == {"records", "gluings", "children"}
    assert (8, "records") not in generate._store and (8, "gluings") not in generate._store


def test_block_class_search_labels_only_undecided_children(monkeypatch):
    # from an empty store the n = 8 search over 2-connected classes labels
    # the levels below 8, the children with two or more deletion candidates
    # and its minimiser, and builds a record at n = 8 only for each child
    # labeled for its verdict; the first read of block_classes(8) labels the
    # rest and the 3,994 classes with a cut vertex and builds their records,
    # 11,117 in all, and a second read labels none
    monkeypatch.setattr(generate, "_store", {})
    monkeypatch.setattr(extremal, "_catalog_cache", {})
    labeled, records = [], []
    label = canon.canonical_labeling
    init = generate._Class.__init__

    def counted(g):
        labeled.append(g.n)
        return label(g)

    def built(self, key, *args):
        records.append(key[0])
        init(self, key, *args)

    monkeypatch.setattr(canon, "canonical_labeling", counted)
    monkeypatch.setattr(generate._Class, "__init__", built)
    report = search_min_F(ClassSpec(8, 0))
    assert report.class_size == TWO_CONNECTED_COUNTS[8]
    assert len(labeled) <= 3000
    unlabeled = len(generate._augmented(8)) - len(generate._store[8, "children"][1])
    # of the 7,352 children that pass the invariant screen, 5,369 are
    # accepted unlabeled and the rest labeled for their verdict
    assert unlabeled == 5369
    assert records.count(8) == TWO_CONNECTED_COUNTS[8] - unlabeled
    assert labeled.count(8) == 7352 - unlabeled + len(report.minimizers)
    labeled.clear()
    assert len(generate.block_classes(8)) == TWO_CONNECTED_COUNTS[8]
    assert labeled == [8] * (unlabeled + 3994)
    assert records.count(8) == CONNECTED_COUNTS[8]
    labeled.clear()
    generate.block_classes(8)
    assert labeled == []


def test_block_reports_do_not_depend_on_when_the_level_is_labeled(monkeypatch):
    # the catalog reads level 8's accepted children in augmentation's order
    # whether or not the level is labeled, as the children or as their
    # canonical copies, so its counted columns agree row for row; both
    # objectives report the same either way
    rooted_classes(7)
    below = {level: entry for level, entry in generate._store.items() if level[0] < 8}
    reports, columns = {}, []
    for read_first in (True, False):
        monkeypatch.setattr(generate, "_store", dict(below))
        monkeypatch.setattr(extremal, "_catalog_cache", {})
        if read_first:
            generate.block_classes(8)
        for _ in range(2):  # the second pass after the level is read
            for search in (search_min_F, search_min_vertex_subgraph_number):
                report = replace(search(ClassSpec(8, 0)), wall_time_ms=0)
                reports.setdefault(search, set()).add(report)
            generate.block_classes(8)
        cat = extremal.catalog(8, "block")
        columns.append([getattr(cat, name).tolist() for name in ("k", "total", "f_min", "girth")])
    assert columns[0] == columns[1]
    assert [len(found) for found in reports.values()] == [1, 1]


def test_cut_reports_do_not_depend_on_when_the_level_is_labeled(monkeypatch):
    # the catalog reads level 8's part pairs in certificate order whether
    # or not the level is labeled, and the pairs outlive that labeling; both
    # objectives report the same for every k either way
    rooted_classes(7)
    below = {level: entry for level, entry in generate._store.items() if level[0] < 8}
    reports = {}
    for read_first in (True, False):
        monkeypatch.setattr(generate, "_store", dict(below))
        monkeypatch.setattr(extremal, "_catalog_cache", {})
        pairs = generate._composed(8)
        if read_first:
            classes_with_cut_vertices(8)
        for _ in range(2):  # the second pass after the level is read
            for k in range(1, 7):
                for search in (search_min_F, search_min_vertex_subgraph_number):
                    report = replace(search(ClassSpec(8, k)), wall_time_ms=0)
                    reports.setdefault((search, k), set()).add(report)
            classes_with_cut_vertices(8)
        assert extremal.catalog(8, "cut").graphs is generate._composed(8) is pairs
    assert len(reports) == 12
    assert [len(found) for found in reports.values()] == [1] * 12


def test_cut_vertex_stratum_matches_filter():
    for n in range(3, 8):
        by_filter = {
            canonical_key(g) for g in connected_classes(n) if cut_vertices(g)
        }
        composed = {canonical_key(g) for g in classes_with_cut_vertices(n)}
        assert composed == by_filter


def test_certificate_is_complete():
    # the lemma in generate: every pair-loop gluing, with one cut vertex
    # (its bouquet) or more (its block-cut tree), shares its certificate
    # exactly with the gluings isomorphic to it
    for n, want in {3: 1, 4: 3, 5: 11, 6: 56, 7: 385, 8: 3994}.items():
        key_of: dict[bytes, bytes] = {}
        cert_of: dict[bytes, bytes] = {}
        for (cls1, r1, b1), (cls2, r2, b2), cert in generate._gluings(n):
            glued = glue(cls1.graph, r1, cls2.graph, r2)
            assert (b1 is not None and b2 is not None) == (len(cut_vertices(glued)) == 1)
            key = canonical_key(glued)
            assert key_of.setdefault(cert, key) == key
            assert cert_of.setdefault(key, cert) == cert
        assert len(key_of) == want


def test_walk_gives_the_leaf_stripping_certificate():
    # every gluing with n <= 8 gets, from its parts' pieces and the walk to
    # the centre, the bytes the oracle builds from the whole block-cut tree;
    # 3,463 of them have two or more cut vertices
    tree = 0
    for n in range(3, 9):
        for p1, p2, cert in generate._gluings(n):
            blocks = generate._glued_blocks(*p1[:2], *p2[:2])
            assert cert == leaf_stripping_certificate(blocks, n)
            tree += p1[2] is None or p2[2] is None
    assert tree == 3463


def test_composition_keeps_no_piece_codes(monkeypatch):
    # the parts' piece codes live for one composition: none outlives it
    monkeypatch.setattr(generate, "_store", {})
    for n in range(1, 8):
        rooted_classes(n)
    made = []
    init = generate._Pieces.__init__

    def counted(self, cls):
        made.append(len(cls.roots))
        init(self, cls)

    monkeypatch.setattr(generate._Pieces, "__init__", counted)
    gc.collect()
    generate._composed(8)
    assert set(made) == {3, 4, 5, 6, 7}
    assert not [o for o in gc.get_objects() if isinstance(o, generate._Pieces)]


def test_composition_labels_each_class_once_below_the_cap_and_none_at_it(monkeypatch):
    # below the cap the first gluing of each certificate is labeled and the
    # rest are dropped, beside the level's unlabeled children; composing
    # the cap labels nothing, and keeps every class with a cut vertex
    # unlabeled, as the parts of its first gluing
    want = Counter(len(cut_vertices(g)) for g in classes_with_cut_vertices(8))
    monkeypatch.setattr(generate, "_store", {})
    for n in range(1, 8):
        rooted_classes(n)
    unlabeled = len(generate._augmented(8)) - len(generate._store[8, "children"][1])
    labeled = []
    label = canon.canonical_labeling

    def counted(g):
        labeled.append(g.n)
        return label(g)

    monkeypatch.setattr(canon, "canonical_labeling", counted)
    assert len(classes_with_cut_vertices(8)) == len(labeled) - unlabeled == 3994
    del generate._store[8, "records"], generate._store[8, "gluings"]
    labeled.clear()
    monkeypatch.setattr(generate, "GENERATION_CAP", 8)
    composed = generate._composed(8)
    assert labeled == []
    assert len(composed) == CONNECTED_COUNTS[8] - TWO_CONNECTED_COUNTS[8] == 3994
    assert Counter(len(cut_vertices(g)) for g in composed) == want


def test_level_is_labeled_only_when_its_records_are_read(monkeypatch):
    # from a store holding levels <= 7 and level 8's children, the n = 8
    # searches with a cut vertex label only the minimisers they name; the
    # first read of level 8's records labels its 3,994 classes with a cut
    # vertex and its unlabeled children, and a second read labels none
    monkeypatch.setattr(generate, "_store", {})
    monkeypatch.setattr(extremal, "_catalog_cache", {})
    for n in range(1, 8):
        rooted_classes(n)
    unlabeled = len(generate._augmented(8)) - len(generate._store[8, "children"][1])
    labeled = []
    label = canon.canonical_labeling

    def counted(g):
        result = label(g)
        labeled.append(result[0])
        return result

    monkeypatch.setattr(canon, "canonical_labeling", counted)
    named = set()
    for k in range(1, 7):
        for search in (search_min_F, search_min_vertex_subgraph_number):
            named.update(search(ClassSpec(8, k)).minimizers)
    assert named and sorted(labeled) == sorted(canonical_key(parse_graph6(s)) for s in named)
    labeled.clear()
    assert len(classes_with_cut_vertices(8)) == len(labeled) - unlabeled == 3994
    labeled.clear()
    assert len(classes_with_cut_vertices(8)) == 3994
    assert labeled == []


def test_children_are_freed_before_the_gluings_are_labeled(monkeypatch):
    # the first read of a level drops its unlabeled children before it
    # labels its first gluing, so the two are never held together
    monkeypatch.setattr(generate, "_store", {})
    for n in range(1, 8):
        rooted_classes(n)
    children, labeled = generate._augmented(8), generate._store[8, "children"][1]
    held = [next(g for i, g in enumerate(children) if i not in labeled)]
    del children, labeled
    referrers = []
    canonize = generate.canonize

    def spy(g):
        if not referrers and cut_vertices(g):
            referrers.append([r for r in gc.get_referrers(held[0]) if r is not held])
        return canonize(g)

    monkeypatch.setattr(generate, "canonize", spy)
    assert len(connected_classes(8)) == CONNECTED_COUNTS[8]
    assert referrers == [[]]


def test_rooted_classes_orbits():
    pairs = [(cls.graph, root) for cls, root, _ in rooted_classes(3)]
    # P_3 has two vertex orbits, the triangle one
    assert len(pairs) == 3
    for g, root in pairs:
        assert any(root in orbit for orbit in vertex_orbits(g))


def test_rooted_classes_one_root_per_orbit():
    # pairs = sum over classes of the orbit count, n = 2..8
    for n, want in {2: 1, 3: 3, 4: 11, 5: 58, 6: 407, 7: 4306, 8: 72489}.items():
        assert len(list(rooted_classes(n))) == want
    for n in range(2, 8):
        want = [(g, orbit[0]) for g in connected_classes(n) for orbit in vertex_orbits(g)]
        assert [(cls.graph, root) for cls, root, _ in rooted_classes(n)] == want


def test_rooted_classes_refuses_the_cap():
    # orbit roots are kept only for the sizes composition glues
    with pytest.raises(ValueError):
        rooted_classes(GENERATION_CAP)


def test_composition_reads_its_parts_through_rooted_classes(monkeypatch):
    # wrapped at its module attribute, as the benchmark's tracer wraps it,
    # rooted_classes is read for every part order n1 in 2..7 when level 8
    # is composed from an empty store
    monkeypatch.setattr(generate, "_store", {})
    read = []
    rooted = generate.rooted_classes

    def counted(n):
        read.append(n)
        return rooted(n)

    monkeypatch.setattr(generate, "rooted_classes", counted)
    generate._composed(8)
    assert set(read) == set(range(2, 8))


def test_glue_labels_g2_after_g1_in_order():
    g1 = Graph.from_edges(3, [(0, 1), (1, 2)])  # P3 rooted at an end, 2
    g2 = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])  # paw rooted at 2
    glued = glue(g1, 2, g2, 2)
    assert glued.n == g1.n + g2.n - 1
    assert set(g1.edges) <= set(glued.edges)
    # g2's vertices 0, 1, 3 become 3, 4, 5 and its root becomes g1's root
    relabel = {0: 3, 1: 4, 2: 2, 3: 5}
    mapped = {tuple(sorted((relabel[u], relabel[v]))) for u, v in g2.edges}
    assert set(glued.edges) == set(g1.edges) | mapped


def _glue_ref(g1, r1, g2, r2):
    """Edge-list reference for ``glue``, built through from_edges."""
    label = {r2: r1}
    for v in range(g2.n):
        if v != r2:
            label[v] = g1.n + len(label) - 1
    edges = list(g1.edges) + [(label[u], label[v]) for u, v in g2.edges]
    return Graph.from_edges(g1.n + g2.n - 1, edges)


def test_glue_matches_edge_list_reference():
    # every connected class with n <= 7 and a seeded relabelling of each,
    # glued on both sides of a seeded rooted class
    rng = random.Random(9)
    pool = [(cls.graph, r) for n in range(1, 5) for cls, r, _ in rooted_classes(n)]
    for n in range(1, 8):
        for cls in connected_classes(n):
            for g in (cls, cls.relabel(rng.sample(range(n), n))):
                r = rng.randrange(n)
                h, hr = pool[rng.randrange(len(pool))]
                assert glue(g, r, h, hr) == _glue_ref(g, r, h, hr)
                assert glue(h, hr, g, r) == _glue_ref(h, hr, g, r)


def test_glue_rejects_out_of_range_roots():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    for r1, r2 in ((3, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            glue(p3, r1, p3, r2)
    with pytest.raises(ValueError):
        glue(Graph.from_edges(40, []), 0, Graph.from_edges(40, []), 0)


def test_package_attribute_is_the_generate_module():
    # the package must not shadow its submodule with extremal.generate
    assert connsub.generate is sys.modules["connsub.generate"]
