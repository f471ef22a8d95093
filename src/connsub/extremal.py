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

Below ``GENERATION_CAP``, and for the classes without a cut vertex at it,
counting runs through a batched version of the census subset table with
machine integers.  Every count the kernel forms, table entries and their
partial sums F and f(v) alike, is at most sum_S 2^{e(S)} <= 2^{n+m}, so
int64 arithmetic is exact whenever n + m <= 62; the kernel checks that
bound on every batch, counting the edges in the adjacency array it builds
anyway, and refuses a batch that breaks it.

The classes with a cut vertex at the cap never reach the kernel.  Each is
kept by ``generate`` as the rooted parts (G1, r1), (G2, r2) of one gluing,
and is evaluated from them, all classes at once on int64 arrays.  Each
part's class values (F, every f(x) and pair count f(x, y), its cut
vertices, edge count and girth) are read off its own subset table, once
per order below the cap and only when the cap is evaluated.  Then,
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
does.  At n = 9 the largest is 9 + 29 = 38.

Equality with the census and decomposition routes is asserted exhaustively
in the test suite (at the cap, on every class against the kernel on its
glued graph), and each reported minimizer is re-checked through the
decomposition path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from . import decompose
from .canon import canonize
from .generate import GENERATION_CAP, block_classes, classes_with_cut_vertices, glue
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

    # the canonical form, graph6, girth and tree flag are built on first
    # read: only minimisers, failure messages and filtered classes need them
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

    @cached_property
    def is_tree(self) -> bool:
        return self.graph.m == self.graph.n - 1


class _GluedRecord(_Record):
    """A class with a cut vertex at ``GENERATION_CAP``, evaluated from the
    rooted parts (g1, r1, g2, r2) of its first gluing: its girth and tree
    flag come with its counts, and its graph is glued on first read."""

    def __init__(self, parts, k, total, f_min, f_argmin, girth, is_tree):
        self.parts = parts
        self.k, self.total, self.f_min, self.f_argmin = k, total, f_min, f_argmin
        # instance values shadow the base's cached properties
        self.girth, self.is_tree = girth, is_tree

    @cached_property
    def graph(self) -> Graph:
        return glue(*self.parts)


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


def _check_exact(worst: int) -> None:
    """Refuse a batch whose largest n + m breaks the int64 bound."""
    if worst > _EXACT_MAX_N_PLUS_M:
        raise ValueError(
            f"int64 tables need n + m <= {_EXACT_MAX_N_PLUS_M}, batch has {worst}"
        )


def _tables(graphs: Sequence[Graph]) -> np.ndarray:
    """Census subset tables stored subset-major, as ``[subset, graph]``."""
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("batch must share a vertex count")
    if n > _TABLE_MAX_N:
        raise ValueError(f"batched tables support n <= {_TABLE_MAX_N} only")
    adj = np.asarray([g.adj for g in graphs], dtype=np.int64).T
    # every edge is counted from both of its ends
    _check_exact(int(np.bitwise_count(adj).sum(axis=0).max()) // 2 + n)
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
        fmin, argmasks = _minima(fvals)
        if n >= 2:
            cuts = (table[[full ^ (1 << v) for v in range(n)]] == 0).sum(axis=0)
        else:
            cuts = np.zeros(cnt, dtype=np.int64)
        for total, f_min, mask, k in zip(
            totals.tolist(), fmin.tolist(), argmasks.tolist(), cuts.tolist()
        ):
            out.append((total, f_min, tuple(bits(mask)), k))
    return out


def _minima(fvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per graph, a column of ``fvals`` (``[vertex, graph]``): the least
    value and the mask of the vertices that attain it."""
    fmin = fvals.min(axis=0)
    weights = np.left_shift(np.int64(1), np.arange(len(fvals), dtype=np.int64))[:, None]
    return fmin, ((fvals == fmin) * weights).sum(axis=0)


# ---------------------------------------------------------------------------
# the cap level, from its parts

# the girth of an acyclic part: above every cycle length, so the lesser of
# two parts' girths is their gluing's
_NO_CYCLE = 1 << 8


def _pair_counts(table: np.ndarray, n: int) -> np.ndarray:
    """``[graph, x, y]``: the sum of ``table[S]`` over the S holding both x
    and y, f(x, y) for x != y and f(x) for x == y."""
    cnt = table.shape[1]
    pair = np.empty((cnt, n, n), dtype=np.int64)
    for y in range(n):
        # rows S with bit y set, as one reshape: S = (hi, bit y, lo)
        with_y = table.reshape(1 << (n - 1 - y), 2, 1 << y, cnt)[:, 1]
        pair[:, y, y] = with_y.sum(axis=(0, 1))
        for x in range(y):
            # and bit x of lo: lo = (mid, bit x, low)
            both = with_y.reshape(1 << (n - 1 - y), 1 << (y - 1 - x), 2, 1 << x, cnt)[:, :, 1]
            pair[:, x, y] = pair[:, y, x] = both.sum(axis=(0, 1, 2))
    return pair


def _class_values(graphs: Sequence[Graph]) -> tuple[np.ndarray, ...]:
    """(F, f, pair, cut, m, girth) for connected classes of one order n,
    from their subset tables: F per class, f as ``[class, x]``, the pair
    counts f(x, y) as ``[class, x, y]``, the cut vertices as a mask, the
    edge count and the girth (``_NO_CYCLE`` if acyclic).

    ``table[S]`` is 1 when G[S] is a tree and at least 2 exactly when G[S]
    is connected with a cycle; a shortest cycle induces itself, so the girth
    is the least |S| with ``table[S] >= 2``."""
    n = graphs[0].n
    full = (1 << n) - 1
    size = np.bitwise_count(np.arange(1 << n)).astype(np.int64)[:, None]
    weights = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
    parts = []
    for lo in range(0, len(graphs), _CHUNK):
        chunk = graphs[lo : lo + _CHUNK]
        table = _tables(chunk)
        cut = (table[[full ^ 1 << v for v in range(n)]] == 0).T @ weights
        girths = np.where(table >= 2, size, _NO_CYCLE).min(axis=0)
        m = np.asarray([g.m for g in chunk], dtype=np.int64)
        parts.append((table.sum(axis=0), _pair_counts(table, n), cut, m, girths))
    F, pair, cut, m, girths = (np.concatenate(column) for column in zip(*parts))
    f = pair[:, np.arange(n), np.arange(n)]
    return F, f, pair, cut, m, girths


def _evaluate_gluings(pairs: Sequence[tuple[Graph, int, Graph, int]]) -> tuple[np.ndarray, ...]:
    """(F, f, k, girth, tree) of each gluing (g1, r1, g2, r2) of connected
    classes into one order n, from the parts' class values by the rules in
    the module docstring: F, the f-vector as ``[gluing, x]`` in ``glue``'s
    labels, the cut-vertex count, the girth (``_NO_CYCLE`` if acyclic) and
    whether it is a tree.  The values of each order are computed once, for
    the classes the gluings use."""
    g1s, r1s, g2s, r2s = zip(*pairs)
    n = g1s[0].n + g2s[0].n - 1
    # each class's row among the classes of its order, by identity: every
    # part of a class is the one graph the class store holds for it
    row: dict[int, int] = {}
    classes: dict[int, list[Graph]] = {}
    for key, g in dict(zip(map(id, g1s + g2s), g1s + g2s)).items():
        order = classes.setdefault(g.n, [])
        row[key] = len(order)
        order.append(g)
    values = {order: _class_values(graphs) for order, graphs in classes.items()}
    j1s, j2s = (
        np.fromiter(map(row.__getitem__, map(id, gs)), np.int64, len(gs)) for gs in (g1s, g2s)
    )
    r1s, r2s = np.asarray(r1s), np.asarray(r2s)
    n1s = np.fromiter((g.n for g in g1s), np.int64, len(g1s))
    total = np.empty(len(pairs), dtype=np.int64)
    fvec = np.empty((len(pairs), n), dtype=np.int64)
    k = np.empty(len(pairs), dtype=np.int64)
    girths = np.empty(len(pairs), dtype=np.int64)
    tree = np.empty(len(pairs), dtype=bool)
    for n1 in np.unique(n1s).tolist():
        n2 = n + 1 - n1
        i = np.flatnonzero(n1s == n1)
        j1, r1, j2, r2 = j1s[i], r1s[i], j2s[i], r2s[i]
        F1, f1, pair1, cut1, m1, girth1 = values[n1]
        F2, f2, pair2, cut2, m2, girth2 = values[n2]
        m = m1[j1] + m2[j2]
        _check_exact(n + int(m.max()))
        # f_i(x, r_i) for every x of part i, and a = f1(r1), b = f2(r2)
        at1, at2 = pair1[j1, r1], pair2[j2, r2]
        a, b = f1[j1, r1], f2[j2, r2]
        total[i] = decompose.merge_count(F1[j1], F2[j2], a, b)
        side1 = decompose.vertex_count(f1[j1], at1, b[:, None])
        side2 = decompose.vertex_count(f2[j2], at2, a[:, None])
        # glue drops g2's root and keeps its other vertices in order
        kept = side2[np.arange(n2) != r2[:, None]].reshape(len(i), n2 - 1)
        fvec[i] = np.concatenate([side1, kept], axis=1)
        others1 = np.bitwise_count(cut1[j1] & ~(1 << r1))
        others2 = np.bitwise_count(cut2[j2] & ~(1 << r2))
        k[i] = others1 + others2 + 1
        girths[i] = np.minimum(girth1[j1], girth2[j2])
        tree[i] = m == n - 1
    return total, fvec, k, girths, tree


def _glued_records(pairs: Sequence[tuple[Graph, int, Graph, int]]) -> list[_Record]:
    """Records for the classes with a cut vertex at the cap, each given as
    the rooted parts of one gluing, evaluated from the parts."""
    total, fvec, k, girths, tree = _evaluate_gluings(pairs)
    fmin, argmasks = _minima(fvec.T)
    return [
        _GluedRecord(pair, kk, t, f, tuple(bits(mask)), None if g == _NO_CYCLE else g, tr)
        for pair, kk, t, f, mask, g, tr in zip(
            pairs,
            k.tolist(),
            total.tolist(),
            fmin.tolist(),
            argmasks.tolist(),
            girths.tolist(),
            tree.tolist(),
        )
    ]


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
        if stratum == "block":
            records = _build_records(block_classes(n))
        elif n < GENERATION_CAP:
            records = _build_records(classes_with_cut_vertices(n))
        else:
            # the cap's classes are kept as part pairs (see the module docstring)
            records = _glued_records(classes_with_cut_vertices(n).pairs)
        _catalog_cache[n, stratum] = records
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
