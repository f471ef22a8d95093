"""connsub benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload table1-n9|search-all-n8|count-queries \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each round is a fresh ``worker.py`` process, because the catalog caches are
per process and a CLI user pays them on every run.  Rounds repeat until
``--seconds`` have passed (at least one).  Five more processes only start
up, so that ``setup_s`` is a median of several start-ups.  ``run_s`` is the
median round's wall time, corrected for host contention with the samples of
``worker.HostProbe``.  Every round's outputs are checked against
``reference.py``, which does not use connsub.

With ``--trace 1`` one more round runs with the layer tracer and the
per-layer metrics are printed instead; ``trace.overhead_s`` is its run time
minus the median untraced round.  The last stdout line is the JSON result;
a copy with the environment and every round goes to ``perfbench/runs/``.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import queries
import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("table1-n9", "search-all-n8", "count-queries")
SETUP_SAMPLES = 5
DEADLINE_S = 170  # the whole run, set-up processes and checks included
# the host probe's time when no other tenant slows the machine (2.1 GHz Xeon)
PROBE_REF_S = 0.0005

# table1-n9: reference-table cells whose printed value conflicts with the
# named graph's own closed form; the program must report exactly these.
TIER_A_CONFLICTS = {(7, 3): 37, (11, 1): 158, (11, 3): 182}
TIER_B_CONFLICTS = {(7, 3): 37}
PATH_LABELED_CELLS = {(6, 4), (7, 5), (8, 6)}


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _family_F(spec: str) -> int:
    name, params = spec.split(":")
    p = {k: int(v) for k, v in (item.split("=") for item in params.split(","))}
    if name == "P":
        return ref.path_F(p["n"])
    if name == "S":
        return ref.star_F(p["n"])
    if name == "L":
        return ref.lollipop_F(p["n"], p["g"])
    if name == "T":
        return ref.double_broom_F(p["l"], p["m"], p["d"])
    raise CheckFailed(f"no reference closed form for {spec}")


def _recount(g6: str):
    n, edges = ref.parse_graph6(g6)
    return n, edges, ref.SubsetCounter(n, edges)


# ---------------------------------------------------------------------------
# checks: each returns (attempted, failed) for one round's outputs


def check_table1(out: dict) -> tuple[int, int]:
    for n, k, spec, printed, computed, matches in out["tier_a"]:
        cell = f"tier-a ({n},{k})"
        if spec is None:
            _require(matches, f"{cell}: printed as empty, but the class is not")
            continue
        _require(computed == _family_F(spec), f"{cell}: {spec} computed {computed}")
        want_fail = (n, k) in TIER_A_CONFLICTS
        _require(matches != want_fail, f"{cell}: pass/fail is {matches}")
        if want_fail:
            _require(computed == TIER_A_CONFLICTS[(n, k)], f"{cell}: computed {computed}")
    _require({(c[0], c[1]) for c in out["tier_a"]} >= set(TIER_A_CONFLICTS), "tier-a cells")
    _require({(c[0], c[1]) for c in out["tier_b"]} >= set(TIER_B_CONFLICTS), "tier-b cells")
    for n, k, minimum, minimizers, size, named_in, value_ok in out["tier_b"]:
        cell = f"tier-b ({n},{k})"
        _require(bool(minimizers) and size > 0, f"{cell}: empty search")
        if (n, k) in TIER_B_CONFLICTS:
            _require(not value_ok and minimum == TIER_B_CONFLICTS[(n, k)], f"{cell}: {minimum}")
            _require(named_in, f"{cell}: printed graph not among the minimizers")
        elif (n, k) not in PATH_LABELED_CELLS:
            _require(named_in and value_ok, f"{cell}: does not match the printed entry")
        for g6 in minimizers:
            gn, edges, cnt = _recount(g6)
            _require(gn == n and cnt.total() == minimum, f"{cell}: {g6} recounts differently")
            _require(ref.cut_vertex_count(gn, edges) == k, f"{cell}: {g6} cut vertices")
            _require(ref.girth(gn, edges) >= k, f"{cell}: {g6} girth below {k}")
    cut = {int(n): size for n, size in out["cut_catalog"].items()}
    for n, size in cut.items():
        _require(size == ref.cut_classes(n), f"{size} classes with a cut vertex at n={n}")
    return len(out["tier_a"]) + len(out["tier_b"]), 0


def _minf_floor(n: int, k: int) -> int:
    """Minimum vertex count over connected n-vertex graphs with k cut
    vertices: the cycle for k = 0, then the lollipop at its pendant while
    k <= n - 5, then the broom at its path end."""
    if k == 0:
        return ref.cycle_f(n)
    if k <= n - 5:
        return ref.lollipop_f_pendant(n, n - k)
    return ref.broom_f_path_end(k + 1, n - k - 1)


def check_search(out: dict) -> tuple[int, int]:
    rows = out["searches"]
    _require([r["k"] for r in rows] == list(range(7)), "searches for k = 0..6")
    _require(sum(r["class_size"] for r in rows) == ref.CONNECTED_CLASSES[8], "class total")
    _require(rows[0]["class_size"] == ref.TWO_CONNECTED_CLASSES[8], "classes at k = 0")
    for r in rows:
        k = r["k"]
        _require(r["minf_class_size"] == r["class_size"], f"k={k}: class sizes differ")
        _require(r["minf_min"] == _minf_floor(8, k), f"k={k}: minf minimum {r['minf_min']}")
        for g6 in r["F_minimizers"]:
            n, edges, cnt = _recount(g6)
            _require(cnt.total() == r["F_min"], f"k={k}: F minimizer {g6} recounts differently")
            _require(ref.cut_vertex_count(n, edges) == k, f"k={k}: {g6} cut vertices")
        for g6, argmin in zip(r["minf_minimizers"], r["minf_argmin"], strict=True):
            n, edges, cnt = _recount(g6)
            _require(cnt.min_vertex_count() == (r["minf_min"], tuple(argmin)), f"k={k}: {g6}")
            _require(ref.cut_vertex_count(n, edges) == k, f"k={k}: {g6} cut vertices")
    # only C8 attains the 2-connected floor: one minimizer, a 2-regular graph
    only = rows[0]["minf_minimizers"]
    _require(len(only) == 1, "k=0: more than one minf minimizer")
    n, edges = ref.parse_graph6(only[0])
    degrees = [sum(v in e for e in edges) for v in range(n)]
    _require(len(edges) == 8 and set(degrees) == {2}, f"k=0: minimizer {only[0]} is not C8")
    return 2 * len(rows), 0


def check_queries(out: dict, expect: list) -> tuple[int, int]:
    answers = out["answers"]
    _require(len(answers) == len(expect), "answer count")
    failed = 0
    for i, (got, want) in enumerate(zip(answers, expect)):
        if isinstance(want, int):
            _require(got == str(want), f"query {i}: {got} != {want}")
        else:
            _require(got == "!" + want, f"query {i}: expected {want}, got {got}")
            failed += 1
    return len(answers), failed


# ---------------------------------------------------------------------------


def _env() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    begin = time.monotonic()

    src = ROOT / "src"
    if not (src / "connsub" / "__init__.py").is_file():
        print(f"error: no connsub package under {src}", file=sys.stderr)
        return 2

    ref.self_test()
    nproc = os.cpu_count() or 1
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    runs_dir = BENCH_DIR / "runs"
    runs_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}_{os.getpid()}"

    worker_args = []
    expect: list = []
    inputs_path = None
    if args.workload == "count-queries":
        qs, expect = queries.build(args.seed)
        inputs_path = runs_dir / f"inputs_{tag}.json"
        inputs_path.write_text(json.dumps([[k, n, e, v] for _, k, n, e, v in qs]))
        worker_args = ["--inputs", str(inputs_path)]

    def spawn(mode: str) -> dict:
        left = DEADLINE_S - (time.monotonic() - begin)
        if left <= 0:
            raise CheckFailed("out of time")
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
             "--mode", mode, "--t0", repr(t0), *worker_args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=left,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise CheckFailed(f"{mode} process exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(res: dict) -> tuple[int, int]:
        out = res["outputs"]
        if args.workload == "table1-n9":
            return check_table1(out)
        if args.workload == "search-all-n8":
            return check_search(out)
        return check_queries(out, expect)

    rounds, setups, traced = [], [], None
    attempted = failed = 0
    correct = True
    problem = ""
    try:
        try:
            setups = [spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
            while True:
                res = spawn("run")
                rounds.append(res)
                a, f = check(res)
                attempted += a
                failed += f
                if time.monotonic() - begin >= args.seconds:
                    break
            if args.trace:
                traced = spawn("trace")
                a, f = check(traced)
                attempted += a
                failed += f
        except (subprocess.TimeoutExpired, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except CheckFailed as exc:
            if not rounds:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            correct, problem = False, str(exc)
            print(f"check failed: {exc}", file=sys.stderr)
    finally:
        if inputs_path is not None:
            inputs_path.unlink(missing_ok=True)

    # host-speed correction (see worker.HostProbe): each round's wall time
    # as it would read with the probe at PROBE_REF_S
    for r in rounds + ([traced] if traced else []):
        r["run_s"] = r["wall_s"] * PROBE_REF_S / statistics.fmean(r["probe_s"])
    run_s = statistics.median(r["run_s"] for r in rounds)
    items = {"table1-n9": sum(ref.cut_classes(n) for n in range(6, 10)),
             "search-all-n8": ref.CONNECTED_CLASSES[8]}.get(args.workload)
    if items is None:
        items = len(expect)
    if args.trace:
        if traced is None:
            return 1
        layers = traced["layers"]
        layers["trace.run_s"] = traced["run_s"]
        layers["trace.overhead_s"] = traced["run_s"] - run_s
        metrics = {name: {"value": value, "unit": unit} for name, unit, value in (
            (name, _layer_unit(name), layers[name]) for name in layers)}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [r["setup_s"] for r in rounds]),
                        "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "items_per_s": {"value": items / run_s, "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "args": vars(args),
        "env": dict(_env(), numpy=rounds[0]["numpy"]),
        "result": result,
        "problem": problem,
        "setup_samples": setups,
        "rounds": [
            {k: r[k] for k in ("setup_s", "wall_s", "run_s", "rss_mb")}
            | {"probes": len(r["probe_s"]), "probe_mean_s": statistics.fmean(r["probe_s"])}
            for r in rounds
        ],
    }
    (runs_dir / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "us_per_" in name:
        return "us"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_yield", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
