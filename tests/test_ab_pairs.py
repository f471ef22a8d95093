"""scripts/ab_pairs.py, run on canned results: the order of its runs, the
figures it prints and its exit code."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"

METRICS = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _load_script():
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def result(run_s, items_per_s, correct=True, failed=0):
    """One run's result line as ``perfbench/run.py`` prints it."""
    values = {"run_s": run_s, "items_per_s": items_per_s}
    metrics = {name: {"value": value} for name, value in values.items()}
    return {"correct": correct, "failed": failed, "attempted": 10, "metrics": metrics}


@pytest.fixture
def ab(tmp_path, monkeypatch, capsys):
    """Runs the script over canned results: ``canned(side, seed)`` gives each
    run's result.  Returns the exit code, the runs in the order made as
    (side, seed) and the lines printed to stdout."""
    base, change = tmp_path / "base", tmp_path / "change"
    for checkout in (base, change):
        checkout.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    script = _load_script()

    def run(canned, pairs, seed=1):
        runs = []

        def run_once(checkout, workload, seed, seconds):
            side = {base: "base", change: "change"}[checkout]
            runs.append((side, seed))
            assert (workload, seconds) == ("w", 2.0)
            return canned(side, seed)

        monkeypatch.setattr(script, "run_once", run_once)
        argv = ["ab_pairs.py", str(base), str(change), "--workload", "w",
                "--pairs", str(pairs), "--seconds", "2", "--seed", str(seed)]
        monkeypatch.setattr(sys, "argv", argv)
        code = script.main()
        return code, runs, capsys.readouterr().out.splitlines()

    return run


def test_sides_alternate_with_one_seed_per_pair(ab):
    code, runs, _ = ab(lambda side, seed: result(1.0, 1.0), pairs=4, seed=7)
    assert code == 0
    assert runs == [
        ("base", 7), ("change", 7),
        ("change", 8), ("base", 8),
        ("base", 9), ("change", 9),
        ("change", 10), ("base", 10),
    ]


def test_medians_quartiles_and_wins(ab):
    # base run_s 1..5 has quartiles 2 and 4 about its median 3; change is 2
    # throughout, so it ties the pair where base read 2 and wins 3 of 5
    def canned(side, seed):
        return result(float(seed) if side == "base" else 2.0, 100.0 * seed)

    code, _, out = ab(canned, pairs=5)
    assert code == 0
    assert out == [
        "w: 5 alternated pairs, seeds 1-5, --seconds 2; median [quartiles]",
        "  run_s (s, lower is better): 3 [2-4] -> 2 [2-2] (-33.3 %), change better in 3 of 5;"
        " unresolved",
        "  items_per_s (1/s, higher is better): 300 [200-400] -> 300 [200-400] (+0.0 %),"
        " change better in 0 of 5; unresolved",
        "  base: 0 of 50 operations failed, correct True",
        "  change: 0 of 50 operations failed, correct True",
    ]


def test_a_single_pair_is_its_own_median_and_quartiles(ab):
    def canned(side, seed):
        return result(1.5 if side == "base" else 1.25, 1234.0, failed=int(side == "change"))

    code, _, out = ab(canned, pairs=1, seed=3)
    assert code == 0
    assert out[1:] == [
        "  run_s (s, lower is better): 1.5 [1.5-1.5] -> 1.25 [1.25-1.25] (-16.7 %),"
        " change better in 1 of 1; within bound",
        "  items_per_s (1/s, higher is better): 1,234 [1,234-1,234] -> 1,234 [1,234-1,234]"
        " (+0.0 %), change better in 0 of 1; within bound",
        "  base: 0 of 10 operations failed, correct True",
        "  change: 1 of 10 operations failed, correct True",
    ]


@pytest.mark.parametrize(
    "base_s, change_s, want",
    [
        # run_s 30 % worse, beyond its 0.25 bound; items_per_s, read here as
        # 100 / run_s, is 23 % worse, inside it
        ([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], ("worse beyond bound", "within bound")),
        ([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], ("within bound", "within bound")),
        # base quartiles 0.75 and 1.25 about a median of 1: a spread of 0.5
        ([0.5, 1.0, 1.5], [1.0, 1.0, 1.0], ("unresolved", "unresolved")),
        # a spread of 0.35 for run_s, but every change run beats every base run
        ([0.9, 1.0, 1.6], [0.8, 0.8, 0.8], ("within bound", "within bound")),
    ],
    ids=["worse", "within", "unresolved", "beats-every-run"],
)
def test_each_metric_gets_a_verdict_against_its_bound(ab, base_s, change_s, want):
    def canned(side, seed):
        run_s = (base_s if side == "base" else change_s)[seed - 1]
        return result(run_s, 100 / run_s)

    code, _, out = ab(canned, pairs=3)
    assert code == 0
    assert tuple(line.rsplit("; ", 1)[1] for line in out[1:3]) == want


@pytest.mark.parametrize("wrong", ["base", "change"])
def test_a_run_that_is_not_correct_exits_one(ab, wrong):
    def canned(side, seed):
        return result(1.0, 1.0, correct=not (side == wrong and seed == 2))

    code, runs, out = ab(canned, pairs=3)
    assert code == 1 and len(runs) == 6
    assert out[-2:] == [
        f"  base: 0 of 30 operations failed, correct {wrong != 'base'}",
        f"  change: 0 of 30 operations failed, correct {wrong != 'change'}",
    ]
