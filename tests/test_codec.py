"""The triangle-bit codec: canonical keys and graph6 strings are one bit
order, written by ``graphio.triangle_bits`` and read by ``parse_graph6``."""

import random
from itertools import combinations

import pytest

from connsub.canon import canonical_labeling
from connsub.generate import block_classes, classes_with_cut_vertices
from connsub.graph import Graph
from connsub.graphio import FormatError, parse_graph6, serialize_graph6, triangle_bits

from helpers import packed, triangle_string


def test_keys_are_the_packed_triangle_bits_of_the_canonical_order():
    rnd = random.Random(21)
    for n in range(1, 9):
        for g in [*block_classes(n), *classes_with_cut_vertices(n)]:
            # relabeled, so that the canonical order is not the identity
            perm = list(range(n))
            rnd.shuffle(perm)
            g = g.relabel(perm)
            key, order, _ = canonical_labeling(g)
            want = triangle_string(g.adj, order)
            assert triangle_bits(g.adj, order) == int(want or "0", 2)
            assert key == bytes([n, *packed(want, 8)])


def test_graph6_matches_the_bitwise_reference():
    rnd = random.Random(6)
    for n in [*range(1, 12), 30, 62]:
        for _ in range(20):
            g = Graph.from_edges(n, [p for p in combinations(range(n), 2) if rnd.random() < 0.4])
            text = chr(63 + n) + "".join(chr(63 + v) for v in packed(triangle_string(g.adj, range(n)), 6))
            assert serialize_graph6(g) == text
            assert parse_graph6(text) == g


@pytest.mark.parametrize(
    "bad,message",
    [
        ("Ac", "non-zero padding bits in graph6 body"),
        ("DQ@", "non-zero padding bits in graph6 body"),
        ("A", "graph6 body has 0 chars, expected 1"),
        ("A_extra", "graph6 body has 6 chars, expected 1"),
        ("DQ", "graph6 body has 1 chars, expected 2"),
    ],
)
def test_parse_rejects_padding_and_body_length(bad, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse_graph6(bad)
