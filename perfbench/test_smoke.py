"""Self-test of the benchmark at tiny sizes.

Checks the result schema and the metric names against BENCHMARK.json, and
that a directory without the library's sources fails without a result.
Timings are never checked.  Run with:

    python3 -m pytest perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(script, workload, trace, cwd):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema_and_metric_names(workload, trace):
    proc = run(HERE / "run.py", workload, trace, HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    assert "ops_attempted=" in proc.stdout


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path / HERE.name / "run.py", "ring-scaling", 0, tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
