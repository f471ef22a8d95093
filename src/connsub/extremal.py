"""Exhaustive minimizer searches over classes of small connected graphs.

A class is fixed by vertex count, exact cut-vertex count, an optional girth
floor, and a tree/non-tree restriction.  Search reads one representative
per isomorphism class, evaluates exact counts for all of them, and reports
the full minimizer set.  Classes come from the two disjoint strata of
``generate``: k = 0 reads the classes without a cut vertex and k >= 1 the
classes with one, so a search never generates the other stratum of its
level.  Each stratum is evaluated once per vertex count and kept as a
catalog of columns: the class graphs, and beside them one array per value
(k, F, min_v f, the mask of the vertices attaining it, girth, and whether
it is a tree).  A search is a boolean mask over those columns and a minimum over
the rows it keeps.  Counts do not depend on labels, so a catalog's graphs
need not be canonically labeled: the classes with a cut vertex are not,
and are glued only when read, and a level of 2-connected classes that
``generate`` has not labeled yet holds the children augmentation accepted,
most of them unlabeled.  A report glues, canonises and serialises only its
minimizers and names each by its canonical graph6, with argmin vertices in
canonical labels.

For the classes without a cut vertex every value is read off the census
subset table, batched over classes with machine integers by
``evaluate_counts``.  Every count the kernel forms, table entries and
their partial sums F, f(v) and f(x, y) alike, is at most
sum_S 2^{e(S)} <= 2^{n+m}, so int64 arithmetic is exact whenever
n + m <= 62; the kernel checks that bound on every batch, reading m off
the e(S) table it builds anyway, and refuses a batch that breaks it.
The kernel bounds its working set by table entries, not by graphs: it
takes a batch in chunks whose 2^n-row arrays hold about 2^18 entries each
(2,048 graphs at n = 7, 1,024 at n = 8, 512 at n = 9), and writes each
chunk's rows of outputs allocated once for the whole batch.

The classes with a cut vertex never reach the kernel.  ``generate`` keeps
each as the rooted parts (G1, r1), (G2, r2) of one gluing, at every n, and
each is evaluated from them, a whole level at once on int64 arrays.  Each
part's values (F, every f(x) and pair count f(x, y), its cut vertices, edge
count and girth) come from ``evaluate_counts`` on the part classes, once per
order below n for each level evaluated.  Then,
with a = f1(r1) and b = f2(r2), ``decompose.merge_count`` gives
F = F1 + F2 - 1 + (a - 1)(b - 1) and ``decompose.vertex_count`` gives
f(x) = f1(x) + f1(x, r1)(b - 1) for x in G1 (at x = r1 this is ab), and
symmetrically for G2.  The glued graph has k = c1 + c2 + 1 cut vertices,
c_i counting those of G_i other than r_i; every cycle lies in one part, so
its girth is the lesser of theirs; and it is a tree iff m1 + m2 = n - 1.
Exactness: every value these rules form is a connected-subgraph count of
the glued graph or a term of one, since (a - 1)(b - 1) < F and
f1(x, r1)(b - 1) <= f(x), so each is at most 2^{n + m1 + m2}, and the
evaluation refuses a batch with n + m1 + m2 > 62 exactly as the kernel
does.  At n = 9 the largest is 9 + 29 = 38.  The rules run on the gluings
of one part order n1 at a time, in slices of a few thousand rows whose
temporaries hold about 2^15 entries each; every slice writes its rows of
the outputs and checks the bound on its own rows.

Equality with the census and decomposition routes is asserted exhaustively
in the test suite (on every class with a cut vertex, at every n, against
the kernel on its glued graph), and each reported minimizer's minimum, and
for a vertex-count search its argmin vertex set, is re-checked through the
decomposition path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import decompose
from .canon import canonize
from .census import _edge_counts
from .generate import GENERATION_CAP, _augmented, _Class, _composed, _Pair
from .graph import Graph, bits
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


# ---------------------------------------------------------------------------
# batched counting kernel

# entries per 2^n-row array of one kernel chunk: 512 graphs at n = 9
_CHUNK_ENTRIES = 1 << 18


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


def _check_exact(worst: int) -> None:
    """Refuse a batch whose largest n + m breaks the int64 bound."""
    if worst > _EXACT_MAX_N_PLUS_M:
        raise ValueError(
            f"int64 tables need n + m <= {_EXACT_MAX_N_PLUS_M}, batch has {worst}"
        )


def _tables(graphs: Sequence[Graph]) -> np.ndarray:
    """Census subset tables stored subset-major, as ``[subset, graph]``, by
    the recurrence of ``_schedule`` over 2^e(S), with e(S) from census."""
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("batch must share a vertex count")
    if n > _TABLE_MAX_N:
        raise ValueError(f"batched tables support n <= {_TABLE_MAX_N} only")
    ecnt = _edge_counts(np.asarray([g.adj for g in graphs], dtype=np.int64).T)
    # the row of the full vertex set holds each graph's m
    _check_exact(int(ecnt[-1].max()) + n)
    # 2^e(S), written over e(S): one 2^n-row array fewer held at once
    npow = np.left_shift(1, ecnt, out=ecnt)
    table = np.zeros_like(npow)
    for v in range(n):
        table[1 << v] = 1
    for S, ts, rs in _schedule(n):
        table[S] = npow[S] - np.einsum("ij,ij->j", table[ts], npow[rs])
    return table


# the girth of an acyclic graph: above every cycle length, so the lesser of
# two parts' girths is their gluing's
_NO_CYCLE = 1 << 8


def evaluate_counts(graphs: Sequence[Graph], pairs: bool = False) -> tuple[np.ndarray, ...]:
    """(F, f, cut, m, girth) for connected graphs of one order n, exact,
    from their subset tables: F per graph, f as ``[graph, x]``, the cut
    vertices as a mask, the edge count and the girth (``_NO_CYCLE`` if
    acyclic); with ``pairs`` also, last, the pair counts f(x, y) as
    ``[graph, x, y]``, with f(x) on the diagonal.

    ``table[S]`` counts the connected spanning subgraphs of G[S]: it is
    positive exactly when G[S] is connected, 1 exactly when G[S] is a tree
    and at least 2 exactly when G[S] is connected with a cycle.  So for
    n >= 2, v is a cut vertex exactly when ``table[V - v]`` is zero; the
    edges are the two-vertex S with ``table[S] = 1``; and, since a shortest
    cycle induces itself, the girth is the least |S| with ``table[S] >= 2``.
    """
    n = graphs[0].n
    full = (1 << n) - 1
    size = np.bitwise_count(np.arange(1 << n)).astype(np.int64)
    weights = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
    # each chunk writes its rows of the outputs
    total, cut, m, girth = (np.zeros(len(graphs), dtype=np.int64) for _ in range(4))
    f = np.zeros((len(graphs), n), dtype=np.int64)
    pair = np.zeros((len(graphs), n, n), dtype=np.int64) if pairs else None
    step = max(1, _CHUNK_ENTRIES >> n)
    for lo in range(0, len(graphs), step):
        chunk = graphs[lo : lo + step]
        table = _tables(chunk)
        if not table[full].all():
            raise ValueError("evaluate_counts needs connected graphs")
        rows = slice(lo, lo + len(chunk))
        # rows S with bit y set, as one reshape: S = (hi, bit y, lo)
        with_y = [table.reshape(1 << (n - 1 - y), 2, 1 << y, len(chunk))[:, 1] for y in range(n)]
        for y, table_y in enumerate(with_y):
            f[rows, y] = table_y.sum(axis=(0, 1))
        if n >= 2:
            cut[rows] = (table[[full ^ 1 << v for v in range(n)]] == 0).T @ weights
        total[rows] = table.sum(axis=0)
        m[rows] = table[size == 2].sum(axis=0)
        girth[rows] = np.where(table >= 2, size[:, None], _NO_CYCLE).min(axis=0)
        if pairs:
            _pair_counts(with_y, f[rows], pair[rows])
    return (total, f, cut, m, girth) + ((pair,) if pairs else ())


def _pair_counts(with_y: list[np.ndarray], f: np.ndarray, pair: np.ndarray) -> None:
    """Write into ``pair``, as ``[graph, x, y]``, the sum of ``table[S]``
    over the S holding both x and y, f(x, y) for x != y and f(x) for
    x == y, from each y's table rows with bit y set, ``with_y[y]``, and
    from f."""
    n = f.shape[1]
    pair[:, np.arange(n), np.arange(n)] = f
    for y in range(1, n):
        for x in range(y):
            # and bit x of lo: lo = (mid, bit x, low)
            both = with_y[y].reshape(1 << (n - 1 - y), 1 << (y - 1 - x), 2, 1 << x, len(f))[:, :, 1]
            pair[:, x, y] = pair[:, y, x] = both.sum(axis=(0, 1, 2))


def _minima(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per graph, a row of ``f`` (``[graph, vertex]``): the least value and
    the mask of the vertices that attain it."""
    fmin = f.min(axis=1)
    weights = np.left_shift(np.int64(1), np.arange(f.shape[1], dtype=np.int64))
    return fmin, (f == fmin[:, None]) @ weights


# ---------------------------------------------------------------------------
# the classes with a cut vertex, from their parts

# entries per temporary of one slice of gluings: 3,640 rows of 9 at n = 9
_SLICE_ENTRIES = 1 << 15


def _evaluate_gluings(pairs: Sequence[_Pair]) -> tuple[np.ndarray, ...]:
    """(F, f, k, tree, girth) of each gluing (record 1, r1, record 2, r2) of
    connected classes into one order n, from the parts' values by the rules
    in the module docstring: F, the f-vector as ``[gluing, x]`` in
    ``glue``'s labels, the cut-vertex count, whether it is a tree and the
    girth (``_NO_CYCLE`` if acyclic).  The values of each order are
    computed once, for the classes the gluings use."""
    c1s, r1s, c2s, r2s = zip(*pairs)
    n = c1s[0].graph.n + c2s[0].graph.n - 1
    # each part class's row among the classes of its order
    row: dict[_Class, int] = {}
    classes: dict[int, list[Graph]] = {}
    for cls in dict.fromkeys(c1s + c2s):
        order = classes.setdefault(cls.graph.n, [])
        row[cls] = len(order)
        order.append(cls.graph)
    values = {order: evaluate_counts(graphs, True) for order, graphs in classes.items()}
    j1s, j2s = (np.fromiter(map(row.__getitem__, cs), np.int64, len(cs)) for cs in (c1s, c2s))
    r1s, r2s = np.asarray(r1s), np.asarray(r2s)
    n1s = np.fromiter((cls.graph.n for cls in c1s), np.int64, len(c1s))
    total, k, girths = (np.empty(len(pairs), dtype=np.int64) for _ in range(3))
    tree = np.empty(len(pairs), dtype=bool)
    fvec = np.empty((len(pairs), n), dtype=np.int64)
    step = max(1, _SLICE_ENTRIES // n)
    for n1 in np.unique(n1s).tolist():
        n2 = n + 1 - n1
        F1, f1, cut1, m1, girth1, pair1 = values[n1]
        F2, f2, cut2, m2, girth2, pair2 = values[n2]
        group = np.flatnonzero(n1s == n1)
        for lo in range(0, len(group), step):
            i = group[lo : lo + step]
            j1, r1, j2, r2 = j1s[i], r1s[i], j2s[i], r2s[i]
            m = m1[j1] + m2[j2]
            _check_exact(n + int(m.max()))
            # f_i(x, r_i) for every x of part i, and a = f1(r1), b = f2(r2)
            at1, at2 = pair1[j1, r1], pair2[j2, r2]
            a, b = f1[j1, r1], f2[j2, r2]
            total[i] = decompose.merge_count(F1[j1], F2[j2], a, b)
            fvec[i, :n1] = decompose.vertex_count(f1[j1], at1, b[:, None])
            side2 = decompose.vertex_count(f2[j2], at2, a[:, None])
            # glue drops g2's root and keeps its other vertices in order
            fvec[i, n1:] = side2[np.arange(n2) != r2[:, None]].reshape(len(i), n2 - 1)
            others1 = np.bitwise_count(cut1[j1] & ~(1 << r1))
            others2 = np.bitwise_count(cut2[j2] & ~(1 << r2))
            k[i] = others1 + others2 + 1
            tree[i] = m == n - 1
            girths[i] = np.minimum(girth1[j1], girth2[j2])
    return total, fvec, k, tree, girths


# ---------------------------------------------------------------------------
# catalogs


@dataclass(frozen=True, eq=False)
class _Catalog:
    """The evaluated classes of one stratum at one vertex count, as columns:
    the class graphs and, row for row, int64 arrays of the cut-vertex count,
    F, min_v f, the mask of the vertices attaining it and the girth
    (``_NO_CYCLE`` if acyclic), and a bool array of the trees; ``names``
    holds the canonical forms of the rows a report has named."""

    graphs: Sequence[Graph]
    k: np.ndarray
    total: np.ndarray
    f_min: np.ndarray
    argmin: np.ndarray
    girth: np.ndarray
    tree: np.ndarray
    names: dict[int, tuple[str, tuple[int, ...]]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.graphs)

    def name(self, i: int) -> tuple[str, tuple[int, ...]]:
        """Row i's canonical graph6 and its argmin vertices in canonical
        labels, canonised on first read: only minimizers are read."""
        if i not in self.names:
            # the graph may be unlabeled (see the module docstring)
            _, canonical, pos, _, _ = canonize(self.graphs[i])
            argmin = tuple(sorted(pos[v] for v in bits(int(self.argmin[i]))))
            self.names[i] = serialize_graph6(canonical), argmin
        return self.names[i]


# a stratum or a class that holds no graph
_EMPTY = _Catalog((), *np.zeros((6, 0), dtype=np.int64))

_catalog_cache: dict[tuple[int, str], _Catalog] = {}


def catalog(n: int, stratum: str) -> _Catalog:
    """The evaluated classes of one vertex count and one stratum of
    ``generate``: ``"cut"``, the classes with >= 1 cut vertex, built by
    composition, or ``"block"``, the classes without one, built by
    canonical augmentation.  The strata are disjoint, so no class is
    evaluated twice."""
    if stratum not in ("cut", "block"):
        raise ValueError("stratum must be 'cut' or 'block'")
    if (n, stratum) not in _catalog_cache:
        graphs = _augmented(n) if stratum == "block" else _composed(n)
        if not graphs:
            # no graph on one or two vertices has a cut vertex
            _catalog_cache[n, stratum] = _EMPTY
            return _EMPTY
        if stratum == "cut":
            total, f, k, tree, girth = _evaluate_gluings(graphs.pairs)
        else:
            total, f, cut, m, girth = evaluate_counts(graphs)
            k, tree = np.bitwise_count(cut).astype(np.int64), m == n - 1
        _catalog_cache[n, stratum] = _Catalog(graphs, k, total, *_minima(f), girth, tree)
    return _catalog_cache[n, stratum]


def _class_rows(spec: ClassSpec) -> tuple[_Catalog, np.ndarray]:
    """The catalog that holds the class, and the indices of its rows there."""
    # no graph has n or n-1 cut vertices
    impossible = spec.n >= 2 and spec.k >= spec.n - 1
    cat = _EMPTY if impossible else catalog(spec.n, "cut" if spec.k >= 1 else "block")
    keep = cat.k == spec.k
    if spec.subset != "all":
        keep &= cat.tree == (spec.subset == "trees")
    if spec.min_girth is not None:
        # an acyclic graph has no cycle to break the floor
        keep &= (cat.girth >= spec.min_girth) | (cat.girth == _NO_CYCLE)
    return cat, np.flatnonzero(keep)


def _finalize(spec: ClassSpec, objective: str, t0: float) -> SearchReport:
    cat, rows = _class_rows(spec)
    values = (cat.total if objective == "F" else cat.f_min)[rows]
    minimum = int(values.min()) if len(rows) else None
    winners = sorted(rows[values == minimum].tolist(), key=lambda i: cat.name(i)[0])
    for i in winners:
        # integrity: the reported minimum, and for minf the mask of the
        # vertices attaining it in the graph's own labels (glue's labels
        # when it has a cut vertex), must survive the decomposition route
        graph = cat.graphs[i]
        if objective == "F":
            check, want = decompose.count_via_decomposition(graph), minimum
        else:
            fs = [decompose.subgraph_number_via_decomposition(graph, v) for v in range(graph.n)]
            low = min(fs)
            check = low, sum(1 << v for v, f in enumerate(fs) if f == low)
            want = minimum, int(cat.argmin[i])
        if check != want:
            raise AssertionError(
                f"decomposition disagrees with search on {cat.name(i)[0]}: {check} != {want}"
            )
    return SearchReport(
        spec=spec,
        objective=objective,
        minimum=minimum,
        minimizers=tuple(cat.name(i)[0] for i in winners),
        argmin_vertices=tuple(cat.name(i)[1] for i in winners) if objective == "minf" else (),
        class_size=len(rows),
        wall_time_ms=int((time.monotonic() - t0) * 1000),
    )


def search_min_F(spec: ClassSpec) -> SearchReport:
    """Minimum total connected-subgraph count over the class, with the
    complete minimizer set."""
    return _finalize(spec, "F", time.monotonic())


def search_min_vertex_subgraph_number(spec: ClassSpec) -> SearchReport:
    """Minimum over all (G, v) of the per-vertex count, with minimizing
    graphs and their argmin vertex sets."""
    return _finalize(spec, "minf", time.monotonic())


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
