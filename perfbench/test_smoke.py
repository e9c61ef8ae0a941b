"""Smoke test for the benchmark at K=16: every workload once, untraced
and traced, and the result line must be valid.  Not part of the tier-1
suite; run it from the checkout root with

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_benchmark(cwd: Path, workload: str, trace: int, smoke: bool = True):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "0", "--seconds", "0.1", "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_is_valid(workload, trace):
    done = run_benchmark(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float)) and math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files, the run
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, WORKLOADS[0], 0, smoke=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
