"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/smoke.py

Every workload runs untraced and traced and reports every declared metric
with its unit; a corrupted restored output counts as a failed operation;
without the package next to it the benchmark exits non-zero and prints no
result.
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch(request):
    """A fresh directory inside the checkout's ignored work area."""
    path = ROOT / ".perfbench" / "smoke" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        row = next(line.split() for line in lines if line.startswith(metric["name"] + " "))
        assert row[2] == metric["unit"] and row[3].startswith("n=")
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] != 0 for m in declared)


def test_corrupted_output_counts_as_failed(scratch, monkeypatch):
    stmp = run.import_stmp()
    real_main = stmp.cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        if argv[0] == "run":
            out = Path(argv[argv.index("--out") + 1])
            data = bytearray(out.read_bytes())
            data[-1] ^= 0x40
            out.write_bytes(bytes(data))
        return code

    monkeypatch.setattr(stmp.cli, "main", corrupting_main)
    result, _ = run.run_workload(stmp, "denoise-tree", 3, 0.0, False, workloads.TINY,
                                 scratch / "work")
    assert result.failed == run.MIN_REPS
    assert result.attempted > result.failed


def test_exits_nonzero_without_the_package(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(ROOT / "perfbench", scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "denoise-tree", "--seed", "1", "--seconds", "1", cwd=scratch)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
