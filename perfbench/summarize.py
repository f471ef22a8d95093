"""Fold the run records in ``perfbench/runs/`` into one trajectory file.

    python3 perfbench/summarize.py LABEL

Reads every ``runs/BENCH_*.json`` that ``run.py`` wrote, groups them by
workload and trace flag, and writes ``perfbench/BENCH_<LABEL>.json``.  For
each metric the file gives the run count, the median, the quartiles and the
spread (the quartile distance as a share of the median), with the
environment of the runs.  Keep one file per measured commit; compare two
files only when their environments match.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

RUNS = Path(__file__).resolve().parent / "runs"


def summarize(records: list[dict]) -> dict:
    groups: dict[str, list[dict]] = {}
    for rec in records:
        key = f"{rec['args']['workload']} trace={rec['args']['trace']}"
        groups.setdefault(key, []).append(rec)
    out = {}
    for key, recs in sorted(groups.items()):
        metrics = {}
        for name in recs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            med = statistics.median(values)
            unit = recs[0]["result"]["metrics"][name]["unit"]
            entry = {"runs": len(values), "median": med, "unit": unit}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
            metrics[name] = entry
        out[key] = {
            "seeds": sorted(r["args"]["seed"] for r in recs),
            "correct": all(r["result"]["correct"] for r in recs),
            "failed_share": sorted(
                {r["result"]["failed"] / r["result"]["attempted"] for r in recs}
            ),
            "metrics": metrics,
        }
    return out


def main() -> int:
    if len(sys.argv) != 2 or not re.fullmatch(r"[A-Za-z0-9_.-]+", sys.argv[1]):
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(p.read_text()) for p in sorted(RUNS.glob("BENCH_*.json"))]
    if not records:
        print(f"no run records in {RUNS}", file=sys.stderr)
        return 1
    envs = sorted({json.dumps(r["env"], sort_keys=True) for r in records})
    doc = {"env": [json.loads(e) for e in envs], "workloads": summarize(records)}
    target = RUNS.parent / f"BENCH_{sys.argv[1]}.json"
    target.write_text(json.dumps(doc, indent=1) + "\n")
    print(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
