import hashlib
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from connsub.canon import _refine, canonical_labeling, canonize, vertex_orbits
from connsub.families import build, parse_family_spec
from connsub.generate import connected_classes
from connsub.graph import Graph
from connsub.graphio import parse_graph6

from helpers import canonical_key, labeled_key, refine_oracle
from strategies import any_graphs


def G(text):
    return build(parse_family_spec(text))


@given(any_graphs(max_n=7), st.randoms(use_true_random=False))
def test_key_invariant_under_relabeling(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_key(g) == canonical_key(g.relabel(perm))


@given(any_graphs(max_n=7))
def test_canonical_graph_is_fixed_point(g):
    c = canonize(g)[1]
    assert canonize(c)[1].edges == c.edges
    assert canonical_key(c) == canonical_key(g)


def test_distinct_classes_distinct_keys():
    keys = [canonical_key(g) for g in connected_classes(6)]
    assert len(keys) == len(set(keys))


def _orbits_brute(g):
    # a bijection mapping every edge to an edge preserves the edge set
    auts = [
        perm
        for perm in itertools.permutations(range(g.n))
        if all(g.has_edge(perm[u], perm[v]) for u, v in g.edges)
    ]
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a in auts:
        for v in range(g.n):
            ra, rv = find(a[v]), find(v)
            if ra != rv:
                parent[ra] = rv
    groups = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(vs)) for vs in groups.values())


def test_orbits_match_brute_force_exhaustive():
    for n in range(1, 6):
        for g in connected_classes(n):
            assert vertex_orbits(g) == _orbits_brute(g)


def test_orbits_match_brute_force_random_six():
    rnd = random.Random(11)
    pool = list(connected_classes(6))
    for g in rnd.sample(pool, 25):
        assert vertex_orbits(g) == _orbits_brute(g)


def _assert_canonize_contract(g):
    key, c, pos, roots, auts = canonize(g)
    assert c == g.relabel(pos) and key == labeled_key(c)
    # every generator maps the canonical copy onto itself
    assert all(c.relabel(list(a)) == c for a in auts)
    # roots[i] is the least label of i's orbit
    orbits = _orbits_brute(c)
    assert list(roots) == [min(o) for i in range(g.n) for o in orbits if i in o]
    # read through pos, the roots group g's vertices into its orbits
    groups = {}
    for v in range(g.n):
        groups.setdefault(roots[pos[v]], []).append(v)
    assert [tuple(vs) for vs in groups.values()] == vertex_orbits(g)


def test_canonize_contract_on_every_class_up_to_six():
    for n in range(1, 7):
        for g in connected_classes(n):
            _assert_canonize_contract(g)


@given(any_graphs(max_n=7))
def test_canonize_contract(g):
    _assert_canonize_contract(g)


def test_star_orbits():
    assert vertex_orbits(G("S:n=6")) == [(0,), (1, 2, 3, 4, 5)]


def test_cycle_single_orbit():
    assert vertex_orbits(G("C:n=7")) == [tuple(range(7))]


def _landmarks():
    # K1,8, K8, C9 and the Petersen graph
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return [
        parse_graph6("H????B~"),
        Graph.from_edges(8, list(itertools.combinations(range(8), 2))),
        Graph.from_edges(9, [(i, (i + 1) % 9) for i in range(9)]),
        Graph.from_edges(10, outer + spokes + inner),
    ]


def _search_graphs():
    return [g for n in range(1, 8) for g in connected_classes(n)] + _landmarks()


def test_search_traversal_is_pinned():
    # the key and the order of each graph: a change to refinement, branching
    # or pruning that moves a labeling moves this digest
    digest = hashlib.sha256()
    for g in _search_graphs():
        digest.update(repr(canonical_labeling(g)[:2]).encode())
    assert digest.hexdigest() == "26e10f78bcc91bd8a06d73e2eb36088858f72b1f5676813a24fa8b75d1a826dc"


def test_search_generators_are_pinned():
    # every recorded generator of each graph, in order: a change to the
    # traversal or to when a leaf records an automorphism moves this digest
    digest = hashlib.sha256()
    for g in _search_graphs():
        digest.update(repr(canonical_labeling(g)[2]).encode())
    assert digest.hexdigest() == "05f21dc98ebe6a060ab05ddb2d0064a3dab18c9dad0e6dfa3a14198f79c9d8ef"


def test_no_generator_is_recorded_twice():
    # no leaf records its automorphism twice; two leaf pairs can still give
    # one permutation ("HYZsScZ", a relabeled 9-vertex graph, has such
    # pairs), but none of these graphs does
    graphs = [g for n in range(1, 9) for g in connected_classes(n)] + _landmarks()
    for g in graphs:
        gens = canonical_labeling(g)[2]
        assert len(set(gens)) == len(gens), g


@settings(max_examples=100)
@given(any_graphs(max_n=10), st.randoms(use_true_random=False))
def test_refine_matches_the_full_count_oracle(g, rnd):
    # at each step of a random walk of individualisations, counting only in
    # the cells that split gives the partition, in order, that counting in
    # every cell gives
    unit = [tuple(range(g.n))]
    cells = _refine(g.adj, unit, [(1 << g.n) - 1])
    assert cells == refine_oracle(g.adj, unit)
    while len(cells) < g.n:
        i = rnd.choice([i for i, cell in enumerate(cells) if len(cell) > 1])
        v = rnd.choice(cells[i])
        child = cells[:i] + [(v,), tuple(u for u in cells[i] if u != v)] + cells[i + 1 :]
        cells = _refine(g.adj, child, [1 << v])
        assert cells == refine_oracle(g.adj, child)
