"""Toy-size self-test of the benchmark harness (about a minute).

    python3 -m pytest -q -p no:cacheprovider benchmarks/test_harness.py

It runs shrunken copies of the three workloads (n = 32, 200 samples) through
the same code paths as the real runs and checks that every metric named in
BENCHMARK.json is emitted, that a forced failure is counted rather than
raised, that traced counts repeat exactly, and that the benchmark refuses
to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workloads import experiments_workload, solve_workload, verify_workload  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = HERE / "out" / "selftest"
TOYS = {
    "toy-solve": solve_workload("toy-solve", n=32, epsilon_min=1e-3),
    "toy-experiments": experiments_workload("toy-experiments", n=32, epsilon_min=1e-3),
    "toy-verify": verify_workload("toy-verify", samples=200),
}


@pytest.fixture(autouse=True)
def fewer_setup_processes(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPS", 1)


def _measure(workload, trace, seed=None):
    seed = workload.default_seed if seed is None else seed
    res = bench.run(workload, seed, 0.0, trace, OUT / f"{workload.name}-trace{int(trace)}")
    return res, bench.report(res)


@pytest.mark.parametrize("name", sorted(TOYS))
def test_every_metric_is_emitted(name):
    _, plain = _measure(TOYS[name], trace=False)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 2
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        value = plain["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0.0

    first, traced = _measure(TOYS[name], trace=True)
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert traced["metrics"][metric["name"]]["unit"] == metric["unit"]

    second, _ = _measure(TOYS[name], trace=True)
    for key in bench.DETERMINISTIC_COUNTS:
        assert first["traced"][0]["layers"][key] == second["traced"][0]["layers"][key], key


def test_forced_failure_is_counted_not_raised():
    # five iterations cannot converge: the solve command exits 3
    workload = solve_workload("toy-fail", n=32, epsilon_min=1e-3, max_iter=5)
    res, final = _measure(workload, trace=False)
    paper = [c for r in res["reps"] for c in r["commands"] if c["name"] == "paper"]
    assert paper and all(c["exit"] == 3 for c in paper)
    assert final["failed"] == len(paper) and not final["correct"]
    assert final["attempted"] == 2 * len(res["reps"])


def test_refuses_to_run_without_package_sources():
    bare = OUT / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "benchmarks")
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "solve-n400",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
