"""Schema smoke test for the benchmark.

A smallest-size run of every workload, untraced and traced, must report
every metric BENCHMARK.json names, with its unit, and no failures.
Timings are never asserted.

    python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smallest_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, "\n".join(l for l in lines if l.startswith("FAILED"))
    assert result["correct"] is True
    fail_ratio = [l.split() for l in lines if l.split()[:1] == ["fail_ratio"]]
    assert fail_ratio and float(fail_ratio[0][1]) == 0.0

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool), name
        printed = [l.split() for l in lines if l.split()[:1] == [name]]
        assert printed and printed[0][2] == m["unit"], f"{name} not printed with its unit"


def test_fails_without_the_program(tmp_path):
    """Beside only BENCHMARK.json and the benchmark's own files, the run
    must fail without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
