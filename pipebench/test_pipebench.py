"""Self-test of the pipeline benchmark: short runs of every workload.

    python3 -m pytest -q pipebench

Each workload runs once untraced for a second and twice traced on its
first few instances. The untraced run must print every end-to-end metric
of BENCHMARK.json with its unit and fail nothing; the traced runs must
print every per-layer metric with its unit, and every count must repeat
exactly for one seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: a seed whose first large_n instance is small, so the test stays quick
SEED = 5

#: instances in a traced pass: enough that every layer of the workload runs
INSTANCES = {"accept": 25, "large_n": 1, "lemma": 10}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--instances", str(INSTANCES[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    return result


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(INSTANCES))
def test_end_to_end_metrics(workload):
    result = _run(workload, 0)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(INSTANCES))
def test_traced_counts_repeat(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    assert _units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name, unit in _units(first).items() if unit == "count"]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["trace.coverage"]["value"] >= 0.95
