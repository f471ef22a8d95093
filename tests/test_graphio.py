import random

import pytest
from hypothesis import given

from connsub.families import build, parse_family_spec
from connsub.generate import connected_classes
from connsub.graph import Graph
from connsub.graphio import (
    FormatError,
    export_dot,
    parse_edge_list,
    parse_graph6,
    serialize_graph6,
)

from strategies import any_graphs


def G(text):
    return build(parse_family_spec(text))


class TestGraph6:
    @pytest.mark.parametrize(
        "text,n,edges",
        [
            ("@", 1, ()),
            ("A_", 2, ((0, 1),)),
            ("Bw", 3, ((0, 1), (0, 2), (1, 2))),
        ],
    )
    def test_known_strings(self, text, n, edges):
        g = parse_graph6(text)
        assert (g.n, g.edges) == (n, edges)
        assert serialize_graph6(g) == text

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<A_").edges == ((0, 1),)

    def test_exhaustive_roundtrip_small(self):
        for n in range(1, 8):
            for g in connected_classes(n):
                assert parse_graph6(serialize_graph6(g)).edges == g.edges

    @given(any_graphs(max_n=7))
    def test_roundtrip_random(self, g):
        back = parse_graph6(serialize_graph6(g))
        assert back.n == g.n and back.edges == g.edges

    def test_roundtrip_up_to_twenty_vertices(self):
        rnd = random.Random(5)
        for _ in range(1000):
            n = rnd.randint(1, 20)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            chosen = [p for p in pairs if rnd.random() < 0.3]
            g = Graph.from_edges(n, chosen)
            back = parse_graph6(serialize_graph6(g))
            assert back.edges == g.edges

    def test_long_form_parses(self):
        # n = 63 long form: '~' then 18 bits of n
        n = 63
        bits = n * (n - 1) // 2
        body = "?" * ((bits + 5) // 6)
        prefix = "~" + "".join(
            chr(63 + (n >> shift & 63)) for shift in (12, 6, 0)
        )
        g = parse_graph6(prefix + body)
        assert g.n == 63 and g.m == 0

    def test_long_form_round_trips(self):
        # past n = 62, '~' then n in three 6-bit characters
        for n, size in ((63, "~??~"), (64, "~?@?")):
            g = Graph.from_edges(n, [(i, (3 * i + 1) % n) for i in range(n) if (3 * i + 1) % n != i])
            text = serialize_graph6(g)
            assert text.startswith(size)
            assert parse_graph6(text) == g

    @pytest.mark.parametrize(
        "bad",
        ["", "A", "A_extra", "A" + chr(30), "Ac"],  # 'Ac' has a stray padding bit
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(FormatError):
            parse_graph6(bad)


class TestEdgeList:
    def test_known_documents(self):
        assert parse_edge_list("n=2\n0 1\n").edges == ((0, 1),)
        assert parse_edge_list("n=3\n0 1\n1 2\n").edges == ((0, 1), (1, 2))
        assert parse_edge_list("n=1\n").n == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "0 1\n",
            "n=x\n",
            "n=3\n0 0\n",
            "n=3\n0 1\n0 1\n",
            "n=3\n0 1 2\n",
            "n=3\n0 9\n",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(FormatError):
            parse_edge_list(bad)


class TestDot:
    def test_plain(self):
        out = export_dot(Graph.from_edges(2, [(0, 1)]))
        assert "0 -- 1;" in out and "graph G {" in out

    def test_highlights(self):
        out = export_dot(G("L:n=6,g=5"), {0})
        assert out.count("fillcolor=gold") == 1

    def test_all_highlighted(self):
        out = export_dot(G("C:n=3"), {0, 1, 2})
        assert out.count("fillcolor=gold") == 3

    def test_deterministic(self):
        g = G("T:l=2,m=2,d=2")
        assert export_dot(g, {1}) == export_dot(g, {1})

    def test_bad_highlight(self):
        with pytest.raises(ValueError):
            export_dot(G("C:n=3"), {5})
