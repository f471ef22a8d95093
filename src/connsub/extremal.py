"""Exhaustive minimizer searches over classes of small connected graphs.

A class is fixed by vertex count, exact cut-vertex count, an optional girth
floor, and a tree/non-tree restriction.  Search reads one representative
per isomorphism class, evaluates exact counts for all of them, and reports
the full minimizer set.  Classes come from the two disjoint strata of
``generate``: k = 0 reads the classes without a cut vertex and k >= 1 the
classes with one, so a search never generates the other stratum of its
level.  Each stratum is evaluated once per vertex count and kept as a
catalog of records.  Counts do not depend on labels, so a record's graph
need not be canonically labeled (at ``GENERATION_CAP`` the classes with a
cut vertex are not); a report canonises only its minimizers and names each
by its canonical graph6, with argmin vertices in canonical labels.

Counting in the search loop runs through a batched version of the census
subset table with machine integers.  Every count the kernel forms, table
entries and their partial sums F and f(v) alike, is at most
sum_S 2^{e(S)} <= 2^{n+m}, so int64 arithmetic is exact whenever
n + m <= 62; the kernel checks that bound on every batch, counting the
edges in the adjacency array it builds anyway, and refuses a batch that
breaks it.  Equality with the census and decomposition routes
is asserted exhaustively in the test suite, and each reported minimizer is
re-checked through the decomposition path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from . import decompose
from .canon import canonize
from .generate import GENERATION_CAP, block_classes, classes_with_cut_vertices
from .graph import Graph, bits, girth
from .graphio import serialize_graph6

_SUBSETS = ("all", "trees", "nontrees")


@dataclass(frozen=True)
class ClassSpec:
    """Connected graphs on ``n`` vertices with exactly ``k`` cut vertices,
    girth at least ``min_girth`` (``None`` for no bound), optionally
    restricted to trees or non-trees."""

    n: int
    k: int
    min_girth: int | None = None
    subset: str = "all"

    def __post_init__(self):
        if not 1 <= self.n <= GENERATION_CAP:
            raise ValueError(f"n must be in 1..{GENERATION_CAP}")
        if not 0 <= self.k <= self.n:
            raise ValueError("k must be in 0..n")
        if self.subset not in _SUBSETS:
            raise ValueError(f"subset must be one of {_SUBSETS}")
        if self.min_girth is not None and self.min_girth < 1:
            raise ValueError("min_girth must be positive")


@dataclass(frozen=True)
class SearchReport:
    spec: ClassSpec
    objective: str  # "F" or "minf"
    minimum: int | None
    minimizers: tuple[str, ...]  # canonical graph6 strings
    argmin_vertices: tuple[tuple[int, ...], ...]  # per minimizer, minf only
    class_size: int
    wall_time_ms: int


@dataclass
class _Record:
    graph: Graph
    k: int
    total: int
    f_min: int
    f_argmin: tuple[int, ...]

    # the canonical form, graph6 and girth are built on first read: only
    # minimisers, failure messages and girth-bounded classes need them
    @cached_property
    def _canonical(self) -> tuple:
        # ``graph`` is unlabeled when it has a cut vertex at the cap (see generate)
        return canonize(self.graph)

    @cached_property
    def g6(self) -> str:
        """The canonical graph6, the form a report names a class by."""
        return serialize_graph6(self._canonical[1])

    @property
    def argmin(self) -> tuple[int, ...]:
        """``f_argmin`` in canonical labels."""
        pos = self._canonical[2]
        return tuple(sorted(pos[v] for v in self.f_argmin))

    @cached_property
    def girth(self) -> int | None:
        return girth(self.graph)

    @property
    def is_tree(self) -> bool:
        return self.graph.m == self.graph.n - 1


# ---------------------------------------------------------------------------
# batched counting kernel

_CHUNK = 2048


@lru_cache(maxsize=None)
def _schedule(n: int):
    """Graph-independent (S, T-indices, rest-indices) recurrence schedule."""
    entries = []
    for S in range(1, 1 << n):
        low = S & -S
        rest = S ^ low
        if not rest:
            continue
        ts, rs = [], []
        sub = (rest - 1) & rest
        while True:
            ts.append(low | sub)
            rs.append(rest ^ sub)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        entries.append((S, np.asarray(ts), np.asarray(rs)))
    return entries


# int64 stays exact while every count is below 2^63 (see the module docstring)
_EXACT_MAX_N_PLUS_M = 62
# a table has 2^n rows and _schedule(n) about 3^n / 2 index entries
_TABLE_MAX_N = 12


def _tables(graphs: Sequence[Graph]) -> np.ndarray:
    """Census subset tables stored subset-major, as ``[subset, graph]``."""
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("batch must share a vertex count")
    if n > _TABLE_MAX_N:
        raise ValueError(f"batched tables support n <= {_TABLE_MAX_N} only")
    adj = np.asarray([g.adj for g in graphs], dtype=np.int64).T
    # every edge is counted from both of its ends
    worst = int(np.bitwise_count(adj).sum(axis=0).max()) // 2 + n
    if worst > _EXACT_MAX_N_PLUS_M:
        raise ValueError(
            f"int64 tables need n + m <= {_EXACT_MAX_N_PLUS_M}, batch has {worst}"
        )
    cnt = len(graphs)
    size = 1 << n
    ecnt = np.zeros((size, cnt), dtype=np.int64)
    for S in range(1, size):
        low = S & -S
        rest = S ^ low
        if rest:
            v = low.bit_length() - 1
            ecnt[S] = ecnt[rest] + np.bitwise_count(adj[v] & rest)
    npow = np.left_shift(np.int64(1), ecnt)
    table = np.zeros((size, cnt), dtype=np.int64)
    for v in range(n):
        table[1 << v] = 1
    for S, ts, rs in _schedule(n):
        table[S] = npow[S] - np.einsum("ij,ij->j", table[ts], npow[rs])
    return table


def subset_tables(graphs: Sequence[Graph]) -> np.ndarray:
    """Census subset tables for a batch of same-order graphs, int64-exact,
    one ``[graph, subset]`` row per graph."""
    return _tables(graphs).T


def evaluate_counts(
    graphs: Sequence[Graph],
) -> list[tuple[int, int, tuple[int, ...], int]]:
    """(F, min_v f, argmin vertices, cut-vertex count) for each connected
    graph, exact.

    ``table[S]`` counts the connected spanning subgraphs of G[S], so it is
    positive exactly when G[S] is connected; for n >= 2, v is a cut vertex
    of a connected G exactly when ``table[V - v]`` is zero.
    """
    out: list[tuple[int, int, tuple[int, ...], int]] = []
    if not graphs:
        return out
    n = graphs[0].n
    full = (1 << n) - 1
    weights = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))[:, None]
    for lo in range(0, len(graphs), _CHUNK):
        chunk = graphs[lo : lo + _CHUNK]
        table = _tables(chunk)
        if not table[full].all():
            raise ValueError("evaluate_counts needs connected graphs")
        cnt = len(chunk)
        totals = table.sum(axis=0)
        # rows S with bit v set, as one reshape: S = (hi, bit v, lo)
        fvals = np.stack(
            [
                table.reshape(1 << (n - 1 - v), 2, 1 << v, cnt)[:, 1].sum(axis=(0, 1))
                for v in range(n)
            ]
        )
        fmin = fvals.min(axis=0)
        argmasks = ((fvals == fmin) * weights).sum(axis=0)
        if n >= 2:
            cuts = (table[[full ^ (1 << v) for v in range(n)]] == 0).sum(axis=0)
        else:
            cuts = np.zeros(cnt, dtype=np.int64)
        for total, f_min, mask, k in zip(
            totals.tolist(), fmin.tolist(), argmasks.tolist(), cuts.tolist()
        ):
            out.append((total, f_min, tuple(bits(mask)), k))
    return out


# ---------------------------------------------------------------------------
# catalogs

_catalog_cache: dict[tuple[int, str], list[_Record]] = {}


def _build_records(graphs: Iterable[Graph]) -> list[_Record]:
    glist = list(graphs)
    return [
        _Record(graph=g, k=k, total=total, f_min=f_min, f_argmin=argmin)
        for g, (total, f_min, argmin, k) in zip(glist, evaluate_counts(glist))
    ]


def catalog(n: int, stratum: str) -> list[_Record]:
    """Evaluated class records for one vertex count and one stratum of
    ``generate``: ``"cut"``, the classes with >= 1 cut vertex, built by
    composition, or ``"block"``, the classes without one, built by
    canonical augmentation.  The strata are disjoint, so no class is
    evaluated twice."""
    if stratum not in ("cut", "block"):
        raise ValueError("stratum must be 'cut' or 'block'")
    if (n, stratum) not in _catalog_cache:
        graphs = classes_with_cut_vertices(n) if stratum == "cut" else block_classes(n)
        _catalog_cache[n, stratum] = _build_records(graphs)
    return _catalog_cache[n, stratum]


def _matches(rec: _Record, spec: ClassSpec) -> bool:
    if rec.k != spec.k:
        return False
    if spec.subset == "trees" and not rec.is_tree:
        return False
    if spec.subset == "nontrees" and rec.is_tree:
        return False
    if spec.min_girth is not None and spec.min_girth >= 4:
        # an acyclic graph has no cycle to break the floor
        if rec.girth is not None and rec.girth < spec.min_girth:
            return False
    return True


def _class_records(spec: ClassSpec) -> list[_Record]:
    if spec.n >= 2 and spec.k >= spec.n - 1:
        return []  # no graph has n or n-1 cut vertices
    stratum = "cut" if spec.k >= 1 else "block"
    return [r for r in catalog(spec.n, stratum) if _matches(r, spec)]


def _finalize(
    spec: ClassSpec,
    objective: str,
    records: list[_Record],
    value: Callable[[_Record], int],
    argmin: Callable[[_Record], tuple[int, ...]] | None,
    t0: float,
) -> SearchReport:
    minimum = None
    winners: list[_Record] = []
    for rec in records:
        v = value(rec)
        if minimum is None or v < minimum:
            minimum = v
            winners = [rec]
        elif v == minimum:
            winners.append(rec)
    winners.sort(key=lambda r: r.g6)
    for rec in winners:
        # integrity: the reported minimum must survive the decomposition route
        check = (
            decompose.count_via_decomposition(rec.graph)
            if objective == "F"
            else min(
                decompose.subgraph_number_via_decomposition(rec.graph, v)
                for v in range(rec.graph.n)
            )
        )
        if check != minimum:
            raise AssertionError(
                f"decomposition disagrees with search on {rec.g6}: {check} != {minimum}"
            )
    return SearchReport(
        spec=spec,
        objective=objective,
        minimum=minimum,
        minimizers=tuple(r.g6 for r in winners),
        argmin_vertices=tuple(argmin(r) for r in winners) if argmin else (),
        class_size=len(records),
        wall_time_ms=int((time.monotonic() - t0) * 1000),
    )


def search_min_F(spec: ClassSpec) -> SearchReport:
    """Minimum total connected-subgraph count over the class, with the
    complete minimizer set."""
    t0 = time.monotonic()
    records = _class_records(spec)
    return _finalize(spec, "F", records, lambda r: r.total, None, t0)


def search_min_vertex_subgraph_number(spec: ClassSpec) -> SearchReport:
    """Minimum over all (G, v) of the per-vertex count, with minimizing
    graphs and their argmin vertex sets."""
    t0 = time.monotonic()
    records = _class_records(spec)
    return _finalize(spec, "minf", records, lambda r: r.f_min, lambda r: r.argmin, t0)


def report_to_json_dict(report: SearchReport) -> dict:
    doc = {
        "class": {
            "n": report.spec.n,
            "k": report.spec.k,
            "min_girth": report.spec.min_girth,
            "subset": report.spec.subset,
        },
        "objective": report.objective,
        "minimum": None if report.minimum is None else str(report.minimum),
        "minimizers": list(report.minimizers),
        "class_size": report.class_size,
        "wall_time_ms": report.wall_time_ms,
    }
    if report.objective == "minf":
        doc["argmin_vertices"] = [list(t) for t in report.argmin_vertices]
    return doc


def report_summary_line(report: SearchReport) -> str:
    mins = "none" if report.minimum is None else str(report.minimum)
    return f"min={mins} minimizers={','.join(report.minimizers)} classes={report.class_size}"
