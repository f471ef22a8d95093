"""One fresh process running one round of a workload.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``:

    python3 perfbench/worker.py --workload W --mode setup|run|trace --t0 T [--inputs FILE]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports and building the
inputs.  ``--mode setup`` stops there.  ``run`` times the workload with the
host probe sampling; ``trace`` does the same with the layer tracer installed.
The last stdout line is a JSON object with the timings, the probe samples,
the outputs the parent checks, and in trace mode the per-layer metrics.
Catalog caches are per process, so every round pays them, as every CLI
invocation does.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import resource
import signal
import sys
import time


def _prepare(workload: str, inputs: str | None):
    """Import the program and build its inputs; returns the round body."""
    # Calls go through module attributes, where the tracer's wrappers sit.
    census = importlib.import_module("connsub.census")
    decompose = importlib.import_module("connsub.decompose")
    extremal = importlib.import_module("connsub.extremal")
    graph = importlib.import_module("connsub.graph")
    verify = importlib.import_module("connsub.verify")

    if workload == "table1-n9":

        def body():
            return verify.verify_table1(search_n_max=9)

        def outputs(rep):
            return {
                "tier_a": [
                    [c.n, c.k, c.spec_text, c.printed, c.computed, c.matches_printed]
                    for c in rep.tier_a
                ],
                "tier_b": [
                    [b.n, b.k, b.minimum, list(b.minimizers), b.class_size,
                     b.printed_in_minimizers, b.value_matches_printed]
                    for b in rep.tier_b
                ],
                # cached by the round above, so this costs no search
                "cut_catalog": {n: len(extremal.catalog(n, "cut")) for n in range(6, 10)},
            }

        return body, outputs

    if workload == "search-all-n8":
        specs = [extremal.ClassSpec(8, k) for k in range(7)]

        def body():
            return [
                (extremal.search_min_F(spec), extremal.search_min_vertex_subgraph_number(spec))
                for spec in specs
            ]

        def outputs(reports):
            return {
                "searches": [
                    {
                        "k": rf.spec.k,
                        "class_size": rf.class_size,
                        "minf_class_size": rv.class_size,
                        "F_min": rf.minimum,
                        "F_minimizers": list(rf.minimizers),
                        "minf_min": rv.minimum,
                        "minf_minimizers": list(rv.minimizers),
                        "minf_argmin": [list(a) for a in rv.argmin_vertices],
                    }
                    for rf, rv in reports
                ]
            }

        return body, outputs

    if workload == "count-queries":
        with open(inputs, encoding="ascii") as fh:
            raw = json.load(fh)
        graphs = [
            (kind, graph.Graph.from_edges(n, [tuple(e) for e in edges]), tuple(verts))
            for kind, n, edges, verts in raw
        ]

        def answer(kind, g, verts):
            if kind == "F":
                return decompose.count_via_decomposition(g)
            if kind == "f":
                return decompose.subgraph_number_via_decomposition(g, verts[0])
            return census.count_containing(g, verts)

        def body():
            out = []
            for kind, g, verts in graphs:
                try:
                    out.append(str(answer(kind, g, verts)))
                except Exception as exc:  # recorded per query; run.py checks which
                    out.append("!" + type(exc).__name__)
            return out

        def outputs(answers):
            return {"answers": answers}

        return body, outputs

    raise SystemExit(f"unknown workload {workload!r}")


class HostProbe:
    """Samples the host's speed while the timed phase runs.

    Other tenants on the machine slow it by a fifth or more, in phases that
    last from a second to half a minute.  Every ``PERIOD`` seconds of wall
    time a SIGALRM handler times ``SPIN`` rounds of a fixed loop of list,
    dict and big-integer operations, the kind of work connsub does.  Over a
    round of count queries, wall time and the probe's mean time rise in
    proportion (log-log slope 1.0, correlation 0.98), so ``run.py`` divides
    each round's wall time by the probe's mean time in that round.  The
    probe's own time is taken out of the wall time.
    """

    PERIOD = 0.05
    SPIN = 2000

    def __init__(self):
        self.samples: list[float] = []

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        table, index = [0] * 512, {}
        for i in range(self.SPIN):
            table[i & 511] += 1 << (i & 127)
            index[i & 1023] = table[(i * 7) & 511]
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._probe(None, None)  # so that even a short round has samples
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--inputs")
    args = ap.parse_args()

    body, outputs = _prepare(args.workload, args.inputs)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        with HostProbe() as host:
            t0 = time.perf_counter()
            out = body()
            wall_s = time.perf_counter() - t0
            inside = len(host.samples)
        if tracer is not None:
            tracer.uninstall()
            # probe interruptions stay inside the spans and in this wall time
            result["layers"] = tracer.metrics(wall_s)
        probe = host.samples
        wall_s -= sum(probe[1:inside])  # the first sample ran before t0
        import numpy

        result.update(
            wall_s=wall_s,
            probe_s=probe,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            outputs=outputs(out),
            python=platform.python_version(),
            numpy=numpy.__version__,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
