"""Smoke test of the benchmark itself, at toy sizes.

Runs every workload through ``run.py --scale tiny``, untraced and
traced, and checks the result line: correct, and every metric that
``BENCHMARK.json`` names printed with its unit.  Run from the
repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DEFINITION = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = [workload["name"] for workload in DEFINITION["workloads"]]


def test_the_harness_runs_exactly_the_listed_workloads() -> None:
    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--scale", "tiny",
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload: str, trace: int) -> None:
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3
    expected = DEFINITION["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_missing_package_source_fails_without_a_result(tmp_path: Path) -> None:
    bare = tmp_path / "checkout"
    (bare / "perfbench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text(
        json.dumps(DEFINITION), encoding="utf-8"
    )
    for source in HERE.glob("*.py"):
        (bare / "perfbench" / source.name).write_text(
            source.read_text(encoding="utf-8"), encoding="utf-8"
        )
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", WORKLOAD_NAMES[0],
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
