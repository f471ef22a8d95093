#!/usr/bin/env python3
"""Time the counting routes against each other on a few graph shapes.

Shows where each route earns its keep: enumeration on sparse graphs,
the subset table on dense blocks, decomposition once cut vertices appear,
and the batched kernel across many graphs at once.
"""

import sys
import time

from connsub import census, decompose
from connsub.extremal import evaluate_counts
from connsub.families import build, parse_family_spec
from connsub.generate import connected_classes
from connsub.graph import Graph


def clock(label, fn):
    t0 = time.perf_counter()
    value = fn()
    dt = time.perf_counter() - t0
    print(f"  {label:<28s} {dt * 1000:10.1f} ms   -> {value}")
    return value


def main() -> int:
    print("lollipop L(12,11):")
    g = build(parse_family_spec("L:n=12,g=11"))
    clock("enumeration", lambda: census.count_by_enumeration(g))
    clock("decomposition", lambda: decompose.count_via_decomposition(g))

    print("complete graph K8 plus a pendant edge:")
    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)] + [(0, 8)]
    k8p = Graph.from_edges(9, edges)
    clock("subset table via census", lambda: census.count_connected_subgraphs(k8p))
    clock("decomposition", lambda: decompose.count_via_decomposition(k8p))

    print("all 853 connected classes on 7 vertices:")
    graphs = list(connected_classes(7))
    clock(
        "scalar census, total only",
        lambda: sum(census.count_connected_subgraphs(x) for x in graphs),
    )
    clock(
        "batched kernel, F and all f",
        lambda: sum(t for t, _, _, _ in evaluate_counts(graphs)),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
