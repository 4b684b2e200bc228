"""Self-tests of the benchmark. Run from the checkout root:

    python3 -m pytest perfbench

They take about a minute: each workload runs once untraced and once traced
at the smallest size.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, kind):
    result = result_of(run_bench("--workload", workload, "--seed", "42",
                                 "--seconds", "1", "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if kind == "end_to_end":
            assert metric["value"] > 0, name


def scratch_checkout(root: Path, with_program: bool) -> Path:
    """A copy of the benchmark, and of the program when asked, under root."""
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_program:
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return root


def test_corrupted_pinned_digest_counts_as_failed_units(tmp_path):
    checkout = scratch_checkout(tmp_path, with_program=True)
    pins_path = checkout / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["rule-league"] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    result = result_of(run_bench("--workload", "rule-league", "--seed", "42",
                                 "--seconds", "1", cwd=checkout))
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    checkout = scratch_checkout(tmp_path, with_program=False)
    completed = run_bench("--workload", "rule-league", "--seed", "1",
                          "--seconds", "1", cwd=checkout)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
