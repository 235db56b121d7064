"""Smoke tests of the repo benchmark (``python -m pytest benchmarks/suite``).

The smoke mode runs all three workloads, their output checks and the
traced pass at tiny sizes; the result must be correct and carry every
metric that ``BENCHMARK.json`` declares.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_run_checks_outputs_and_reports_every_metric():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--smoke", "--seed", "7"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    workloads = {name.split(".")[0] for name in result["metrics"]} - {"trace"}
    assert {workload["name"] for workload in declared["workloads"]} <= workloads
    expected = {f"{workload}.{metric['name']}" for workload in workloads
                for metric in declared["end_to_end"]}
    expected |= {f"trace.{metric['name']}" for metric in declared["per_layer"]}
    assert set(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        if name.startswith("trace."):
            continue
        assert metric["value"] > 0, name


def test_refuses_to_run_without_the_package(tmp_path):
    copy = tmp_path / "benchmarks" / "suite"
    shutil.copytree(HERE, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(copy / "run.py"),
                           "--workload", "sim_long", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120,
                          cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
