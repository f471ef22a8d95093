import itertools
import random

from hypothesis import given
from hypothesis import strategies as st

from connsub.canon import vertex_orbits
from connsub.families import build, parse_family_spec
from connsub.generate import canonize, connected_classes

from helpers import canonical_key
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


def test_star_orbits():
    assert vertex_orbits(G("S:n=6")) == [(0,), (1, 2, 3, 4, 5)]


def test_cycle_single_orbit():
    assert vertex_orbits(G("C:n=7")) == [tuple(range(7))]
