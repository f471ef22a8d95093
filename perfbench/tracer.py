"""Layer tracer: wraps connsub's functions at their module attributes.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces each function
in ``TARGETS`` by a wrapper that records a span (name, start, end, parent)
and, for some spans, a note such as the graph order or the result size.
The replacement is made on every ``connsub`` module attribute that holds the
function, so callers that imported it by name (``from .canon import
canonical_labeling``) reach the wrapper too.  Modules are looked up with
``importlib.import_module``: the attribute ``connsub.generate`` is the search
function ``extremal.generate``, which shadows the submodule.

A span's self time is its duration minus the time of its direct child spans,
so a recursive call (``connected_classes`` calling itself) is counted once.
Spans stay in memory in flat arrays and are reduced to per-layer metrics by
``Tracer.metrics`` when the round ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# (module, function, span name); several functions may share a span name
TARGETS = (
    ("connsub.canon", "canonical_labeling", "canon.label"),
    ("connsub.canon", "vertex_orbits", "canon.orbits"),
    ("connsub.generate", "connected_classes", "generate.augment"),
    ("connsub.generate", "classes_with_cut_vertices", "generate.compose"),
    ("connsub.generate", "rooted_classes", "generate.rooted"),
    ("connsub.extremal", "evaluate_counts", "extremal.kernel"),
    ("connsub.extremal", "catalog", "extremal.records"),
    ("connsub.extremal", "search_min_F", "extremal.search"),
    ("connsub.extremal", "search_min_vertex_subgraph_number", "extremal.search"),
    ("connsub.graph", "cut_vertices", "graph.cut_vertices"),
    ("connsub.graph", "girth", "graph.girth"),
    ("connsub.graphio", "serialize_graph6", "graphio.serialize"),
    ("connsub.graphio", "parse_graph6", "graphio.parse"),
    ("connsub.census", "connected_set_table", "census.dp"),
    ("connsub.census", "count_by_enumeration", "census.enum"),
    ("connsub.census", "count_connected_subgraphs", "census.query"),
    ("connsub.census", "subgraph_number", "census.query"),
    ("connsub.census", "count_containing", "census.query"),
    ("connsub.decompose", "count_via_decomposition", "decompose.query"),
    ("connsub.decompose", "subgraph_number_via_decomposition", "decompose.query"),
    ("connsub.decompose", "split_at", "decompose.split"),
    ("connsub.verify", "verify_table1", "verify"),
)

# what a span notes about its call: (args, result) -> value
_NOTES = {
    "canon.label": lambda args, result: args[0].n,
    "extremal.kernel": lambda args, result: (args[0][0].n if args[0] else 0, len(args[0])),
    "generate.augment": lambda args, result: len(result),
    "generate.compose": lambda args, result: len(result),
    "extremal.search": lambda args, result: len(result.minimizers),
}


def kernel_work(n: int) -> tuple[int, int]:
    """Multiply-adds and bytes one graph of order n costs the batched kernel,
    computed from its array sizes (not measured).

    Every vertex set S with |S| >= 2 sums 2^{|S|-1} products table[T] *
    npow[S - T], which totals (3^n - 1 - 2n) / 2; each reads two int64
    operands.  The f(v) columns re-read n * 2^{n-1} entries, and three int64
    arrays of 2^n entries (edge counts, powers, table) are written.
    """
    madds = (3**n - 1 - 2 * n) // 2
    return madds, 8 * (2 * madds + n * 2 ** (n - 1) + 3 * 2**n)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_idx = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.child = array("q")
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        note = _NOTES.get(name)
        name_idx, start, end, parent, child = (
            self.name_idx, self.start, self.end, self.parent, self.child
        )
        notes, stack, clock = self.notes, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            up = stack[-1] if stack else -1
            name_idx.append(code)
            parent.append(up)
            child.append(0)
            end.append(0)
            start.append(clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                notes[idx] = type(exc).__name__
                raise
            finally:
                t = clock()
                stack.pop()
                end[idx] = t
                if up >= 0:
                    child[up] += t - start[idx]
            if note is not None:
                notes[idx] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k == "connsub" or k.startswith("connsub.")]
        for modname, attr, name in TARGETS:
            fn = getattr(importlib.import_module(modname), attr)
            wrapped = self._wrap(name, fn)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced round, ``wall_s`` being its time.

        ``trace.run_s`` and ``trace.overhead_s`` are left to the caller,
        which corrects the round's time for host contention as it does the
        untraced rounds'."""
        names = self.names
        total = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(total)]
        span = [names[c] for c in self.name_idx]
        notes = self.notes
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        incl_ns: dict[str, int] = {}
        for i in range(total):
            s = span[i]
            calls[s] = calls.get(s, 0) + 1
            self_ns[s] = self_ns.get(s, 0) + dur[i] - self.child[i]
            incl_ns[s] = incl_ns.get(s, 0) + dur[i]

        def parent_is(i, prefix):
            p = self.parent[i]
            return p >= 0 and span[p].startswith(prefix)

        # canonisations per generating span, and per-order call times
        cands: dict[int, int] = {}
        canon_n: dict[int, list[int]] = {}
        kernel_n: dict[int, list[int]] = {}
        recheck_ns = limit_errors = queries = 0
        for i in range(total):
            s = span[i]
            if s == "canon.label":
                p = self.parent[i]
                if p >= 0 and span[p] in ("generate.augment", "generate.compose"):
                    cands[p] = cands.get(p, 0) + 1
                acc = canon_n.setdefault(notes[i], [0, 0])
                acc[0] += 1
                acc[1] += dur[i]
            elif s == "extremal.kernel":
                n, cnt = notes[i]
                acc = kernel_n.setdefault(n, [0, 0])
                acc[0] += cnt
                acc[1] += dur[i]
            elif s == "decompose.query":
                if parent_is(i, "extremal.search"):
                    recheck_ns += dur[i]
                if not parent_is(i, "decompose."):
                    queries += 1
            elif s == "census.query":
                if notes.get(i) == "CensusLimitError" and not parent_is(i, "census."):
                    limit_errors += 1

        def gen(kind):
            name = "generate." + kind
            found = sum(notes[p] for p in cands if span[p] == name)
            tried = sum(c for p, c in cands.items() if span[p] == name)
            return found, tried

        def sec(ns):
            return ns / 1e9

        def per_call_us(table, n):
            cnt, ns = table.get(n, (0, 0))
            return ns / cnt / 1e3 if cnt else 0.0

        aug_classes, aug_tried = gen("augment")
        comp_classes, comp_tried = gen("compose")
        graphs = sum(v[0] for v in kernel_n.values())
        madds = sum(kernel_work(n)[0] * v[0] for n, v in kernel_n.items())
        kbytes = sum(kernel_work(n)[1] * v[0] for n, v in kernel_n.items())
        covered = sum(ns for s, ns in self_ns.items() if s != "verify")
        g = calls.get

        def own(name):
            return sec(self_ns.get(name, 0))

        return {
            "canon.calls": g("canon.label", 0),
            "canon.self_s": own("canon.label") + own("canon.orbits"),
            "canon.us_per_call.n8": per_call_us(canon_n, 8),
            "canon.us_per_call.n9": per_call_us(canon_n, 9),
            "canon.orbits_calls": g("canon.orbits", 0),
            "canon.orbits_s": sec(incl_ns.get("canon.orbits", 0)),
            "generate.augment_s": own("generate.augment"),
            "generate.augment_candidates": aug_tried,
            "generate.augment_classes": aug_classes,
            "generate.augment_yield": aug_classes / aug_tried if aug_tried else 0.0,
            "generate.compose_s": own("generate.compose"),
            "generate.compose_candidates": comp_tried,
            "generate.compose_classes": comp_classes,
            "generate.compose_yield": comp_classes / comp_tried if comp_tried else 0.0,
            "generate.rooted_s": own("generate.rooted"),
            "extremal.kernel_s": own("extremal.kernel"),
            "extremal.kernel_graphs": graphs,
            "extremal.kernel_us_per_graph.n8": per_call_us(kernel_n, 8),
            "extremal.kernel_us_per_graph.n9": per_call_us(kernel_n, 9),
            "extremal.kernel_madds": madds,
            "extremal.kernel_bytes": kbytes,
            "extremal.filter_s": own("extremal.search"),
            "extremal.records_s": own("extremal.records"),
            "extremal.recheck_s": sec(recheck_ns),
            "extremal.minimisers_rechecked": sum(
                notes[i] for i in range(total) if span[i] == "extremal.search"
            ),
            "graph.cut_vertices_calls": g("graph.cut_vertices", 0),
            "graph.cut_vertices_s": own("graph.cut_vertices"),
            "graph.girth_calls": g("graph.girth", 0),
            "graph.girth_s": own("graph.girth"),
            "graphio.serialize_calls": g("graphio.serialize", 0),
            "graphio.serialize_s": own("graphio.serialize"),
            "census.dp_calls": g("census.dp", 0),
            "census.dp_s": own("census.dp"),
            "census.enum_calls": g("census.enum", 0),
            "census.enum_s": own("census.enum"),
            "census.self_s": own("census.dp") + own("census.enum") + own("census.query"),
            "census.limit_errors": limit_errors,
            "decompose.queries": queries,
            "decompose.self_s": own("decompose.query"),
            "decompose.split_calls": g("decompose.split", 0),
            "decompose.split_s": own("decompose.split"),
            "verify.self_s": own("verify"),
            "trace.layer_share": sec(covered) / wall_s,
            "trace.spans": total,
        }
