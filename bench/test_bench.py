"""Self-tests of the benchmark, run from the repository root with

    python3 -m pytest bench/test_bench.py -q

Each test starts bench/run.py in its smallest form (--smoke: tiny inputs,
one pass) and checks the result contract against BENCHMARK.json.
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


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def smoke(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--smoke", *extra)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smallest_form_reports_every_metric(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    env = json.loads(lines[0])["environment"]
    assert {"nproc", "cpu_model", "l2", "l3", "python", "numpy", "git_commit",
            "cellkit_path"} <= set(env)
    if trace:
        info = json.loads(lines[-2])
        assert info["absent"] == []
        # self times of all spans, glue included, partition the traced passes
        assert info["self_time_sum_s"] == pytest.approx(info["traced_wall_sum_s"], rel=0.01)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_count_fails_the_run(workload):
    proc = smoke(workload, 0, "--inject-fault")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0
    assert "FAILED" in proc.stderr


def test_checkout_without_sources_exits_nonzero_without_a_result():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "bench").iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    try:
        proc = run_bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
