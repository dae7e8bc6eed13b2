"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that a traced run's self times never exceed their spans, and that the
benchmark refuses to run without the trielect sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
from tracing import self_times  # noqa: E402


def bench(run_py: Path, workload: str, trace: int, out_dir: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--tiny", "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload, tmp_path):
    metrics = result_of(bench(HERE / "run.py", workload, 0, tmp_path))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_self_times(workload, tmp_path):
    metrics = result_of(bench(HERE / "run.py", workload, 1, tmp_path))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in BENCH["per_layer"]}

    lines = (tmp_path / f"trace-{workload}.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    spans = [json.loads(line) for line in lines[1:]]
    assert spans and header["spans"] == len(spans)
    for stat in header["stats"].values():
        assert -1e-9 <= stat["self_s"] <= stat["s"] + 1e-9
    by_id = {span[0]: span for span in spans}
    for sid, own in self_times(spans).items():
        _, parent, _, start, end = by_id[sid]
        assert -1e-9 <= own <= end - start + 1e-9
        if parent in by_id:
            assert by_id[parent][3] <= start <= end <= by_id[parent][4]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path / "perfbench" / "run.py", "grow", 0, tmp_path / "out")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
