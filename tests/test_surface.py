"""The package's public surface: what the root holds, and the names the
benchmark's tracer and worker call."""

import importlib
import importlib.util
import sys
import time
from pathlib import Path

import connsub
from connsub import census, extremal
from connsub.graph import Graph

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_package_root_re_exports_nothing():
    names = [k for k in vars(connsub) if not k.startswith("_")]
    # only submodules, set on the package as they are imported
    assert all(sys.modules.get(f"connsub.{k}") is getattr(connsub, k) for k in names)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_is_a_callable_module_attribute():
    # the tracer looks each target up with getattr and no default, so a
    # renamed or deleted function breaks `perfbench/run.py --trace`
    tracer = _load_tracer()
    assert tracer.TARGETS
    for modname, attr, _span in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)


def test_benchmark_cut_catalog_call():
    # the benchmark worker calls extremal.catalog(n, "cut") and its runner
    # checks these sizes (perfbench/worker.py, perfbench/run.py): a renamed
    # stratum must fail here, not in the benchmark
    assert len(extremal.catalog(6, "cut")) == 56
    assert len(extremal.catalog(7, "cut")) == 385


def test_tracer_notes_a_traced_search(monkeypatch):
    # the tracer's notes read the wrapped calls' arguments by position (the
    # kernel's graphs are args[0]); a changed call shape breaks them only
    # when a traced round runs
    monkeypatch.setattr(extremal, "_catalog_cache", {})
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        extremal.search_min_F(extremal.ClassSpec(6, 1))
        wall_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(wall_s)
    assert metrics["extremal.kernel_graphs"] > 0
    assert metrics["extremal.minimisers_rechecked"] == 1


def test_each_census_query_builds_one_subset_table(monkeypatch):
    # the tracer books census.connected_set_table as its census.dp span; a
    # dense graph (m - n > 2, n <= 13) is counted from the table
    g = Graph.from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6) if j - i != 3])
    real, calls = census.connected_set_table, []
    monkeypatch.setattr(census, "connected_set_table", lambda h: calls.append(h) or real(h))
    for query in (
        lambda: census.count_connected_subgraphs(g),
        lambda: census.subgraph_number(g, 0),
        lambda: census.count_containing(g, (0, 3)),
    ):
        calls.clear()
        query()
        assert calls == [g]


def test_each_census_query_on_a_near_tree_walks_once(monkeypatch):
    # the tracer books census.count_by_enumeration as its census.enum span;
    # a near-tree (m - n <= 2) is counted by the enumerator alone
    g = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    real, calls = census.count_by_enumeration, []
    monkeypatch.setattr(census, "count_by_enumeration", lambda h, req=(): calls.append(h) or real(h, req))
    monkeypatch.setattr(census, "connected_set_table", lambda h: calls.append("table"))
    for query in (
        lambda: census.count_connected_subgraphs(g),
        lambda: census.subgraph_number(g, 0),
        lambda: census.count_containing(g, (0, 3)),
    ):
        calls.clear()
        query()
        assert calls == [g]
