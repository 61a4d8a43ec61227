"""Smoke test of the benchmark itself, at tiny size.

Run from the root of a checkout: ``python3 -m pytest perfbench``. Each
case runs ``perfbench/run.py`` on one workload with minimal inputs and
checks the result line against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_reported(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(tmp_path, "fleet", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_seed_same_traffic():
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads.serve_mixed import Traffic, repeat_share

    def keys(seed):
        return [key for key, _ in Traffic(seed, [None] * 6).requests(0, 400, None)]

    assert keys(5) == keys(5)
    assert keys(5) != keys(6)
    assert 0.2 < repeat_share(keys(5)) < 0.8
