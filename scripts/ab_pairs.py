"""Alternated benchmark pairs between two checkouts.

    python3 scripts/ab_pairs.py BASE CHANGE --workload table1-n9 \\
        --pairs 10 --seconds 20 --seed 1

Runs ``perfbench/run.py`` once in each checkout per pair, BASE first in even
pairs and CHANGE first in odd ones, with the same seed on both sides of a
pair (the first pair uses ``--seed``, the next ``--seed + 1``, ...).  For
each end-to-end metric that ``BENCHMARK.json`` lists, it then prints each
side's median with its quartiles, the change of the medians, and in how
many pairs CHANGE was better than BASE.  Progress goes to stderr; the exit
code is 1 if any run failed or reported ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py`` run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"perfbench/run.py exited with {proc.returncode} in {checkout}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(value: float) -> str:
    """Four significant digits, or whole units with separators from 1,000 up."""
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="checkout of the parent")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    sides = {"base": args.base, "change": args.change}
    results: dict[str, list[dict]] = {"base": [], "change": []}
    ok = True
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            res = run_once(sides[side], args.workload, seed, args.seconds)
            results[side].append(res)
            ok &= res["correct"]
            run_s = res["metrics"]["run_s"]["value"]
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: run_s {run_s:.4f}"
                  f" correct {res['correct']} failed {res['failed']}/{res['attempted']}",
                  file=sys.stderr)

    seeds = f"{args.seed}-{args.seed + args.pairs - 1}"
    print(f"{args.workload}: {args.pairs} alternated pairs, seeds {seeds}, "
          f"--seconds {args.seconds:g}; median [quartiles]")
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        base = [r["metrics"][name]["value"] for r in results["base"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        won = sum((c < b) if better == "lower" else (c > b) for b, c in zip(base, change))
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        delta = (cm - bm) / bm * 100 if bm else float("nan")
        print(f"  {name} ({metric['unit']}, {better} is better): "
              f"{fmt(bm)} [{fmt(b1)}-{fmt(b3)}] -> {fmt(cm)} [{fmt(c1)}-{fmt(c3)}] "
              f"({delta:+.1f} %), change better in {won} of {args.pairs}")
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        correct = all(r["correct"] for r in results[side])
        print(f"  {side}: {failed} of {attempted} operations failed, correct {correct}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
