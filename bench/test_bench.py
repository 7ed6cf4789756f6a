"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest bench/test_bench.py -q

Each run uses a tiny run length, so one cycle of each workload is measured.
"""
import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTER_UNITS = ("count", "bytes", "bytes_computed")
SEED = 3


def _run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


@functools.lru_cache(maxsize=None)
def _output(workload: str, trace: int, attempt: int = 0) -> tuple[dict, dict]:
    """(result line, notes line) of one run; ``attempt`` tells repeated runs apart."""
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    notes = next(line for line in lines if line.startswith("# notes "))
    return json.loads(lines[-1]), json.loads(notes[len("# notes "):])


def _units(result: dict) -> dict:
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_appears_with_its_unit(workload):
    result, _ = _output(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_at_one_seed(workload):
    first, _ = _output(workload, 1, 0)
    second, _ = _output(workload, 1, 1)
    assert _units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counters = [name for name, unit in _units(first).items() if unit in COUNTER_UNITS]
    assert {n: first["metrics"][n]["value"] for n in counters} == {
        n: second["metrics"][n]["value"] for n in counters
    }


def test_antiderivative_mesh_shows_the_batch_cap_at_401():
    result, notes = _output("antiderivative-mesh", 1, 0)
    ops = {op["kind"]: op for op in notes["per_op_first_cycle"]}
    assert ops["mesh-401"]["quadrature.capped_calls"] > 0
    assert ops["mesh-401"]["accuracy_digits"] < ops["mesh-201"]["accuracy_digits"]
    assert result["failed"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(str(tmp_path), "suite", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
