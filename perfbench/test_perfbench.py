"""The benchmark's own tests.  Run: python3 -m pytest perfbench -q

They run the benchmark command end to end, so they take about half a
minute.  They are not part of the library's test suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import COUNT_SUFFIXES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, doc


@pytest.fixture(scope="module")
def traced():
    return {seed: bench("--workload", "ratio-grid", "--seed", seed, "--seconds", 1, "--trace", 1) for seed in (1, 2)}


def test_negative_control_fails_the_run():
    code, doc = bench("--workload", "ratio-grid", "--seed", 3, "--seconds", 1, "--trace", 0, "--corrupt", 5)
    assert code != 0
    assert doc["correct"] is False
    assert doc["failed"] == 1 and doc["attempted"] == 152
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_run_prints_every_per_layer_metric(traced):
    for code, doc in traced.values():
        assert code == 0 and doc["correct"] and doc["failed"] == 0
        assert set(doc["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_counts_repeat_across_seeds(traced):
    # Each traced run already checks its two traced passes against each other.
    (_, a), (_, b) = traced.values()
    counts = [k for k in a["metrics"] if k.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {k: a["metrics"][k]["value"] for k in counts} == {k: b["metrics"][k]["value"] for k in counts}


def test_exact_division_is_the_largest_layer_on_ratio_grid(traced):
    _, doc = traced[1]
    self_s = {k: v["value"] for k, v in doc["metrics"].items() if k.endswith(".self_s")}
    assert max(self_s, key=self_s.get) == "polyring.exact_div.self_s"
    assert doc["metrics"]["latticepaths.lgv.calls"]["value"] == 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, doc = bench("--workload", "verify", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert code != 0 and doc is None
