"""Smoke test of the benchmark at a tiny size.

Every metric BENCHMARK.json declares comes out for every workload, with its
unit and a finite value, and the run reports no failed op.  Outside a
checkout (no ``src``) the benchmark exits nonzero and prints no result.

Run with: python -m pytest perfbench
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_present_and_finite(trace, kind):
    proc = bench(["--workload", "all", "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in SPEC["workloads"]:
        for metric in SPEC[kind]:
            entry = result["metrics"][f"{workload['name']}:{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"])
            if kind == "end_to_end":
                assert entry["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "sweep_csv", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
