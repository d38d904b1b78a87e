"""Every workload runs to its end at tiny scale, with its answer checks."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from perfbench.common import END_TO_END, PER_LAYER, WORKLOADS
from perfbench.run import ROOT


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr[-3000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, value in result["metrics"].items():
        assert value["unit"] == expected[name]
        assert math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0, name


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
