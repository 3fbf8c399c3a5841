"""Self-tests of the scenario benchmark.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.split()[:1] == ["runs_failed"] for line in lines)


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "yaw_damp", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["dynamics.step.calls"] == 8000
    assert value["control.tick.calls"] == 0
    assert value["estimation.sample.calls"] == math.ceil(value["scenarios.loop.rows"] / 4)


@pytest.fixture(scope="module")
def hover_run(tmp_path_factory):
    sys.path.insert(0, str(run.SRC))
    import flapsim

    config = flapsim.load_config(flapsim.bundled_config_path("hover.cfg"))
    record = flapsim.run_scenario(config, seed=5, duration=1.0)
    path = tmp_path_factory.mktemp("hover") / "run.csv"
    record.write_csv(path)
    return record, path


def test_matching_record_passes(hover_run):
    checker = run.Checker()
    checker.check("hover_seeds", 5, *hover_run)
    checker.check("hover_seeds", 5, *hover_run)
    assert (checker.runs, checker.failed) == (2, 0)
    assert set(checker.drift) == {"hover_seeds/5"}


def test_mismatched_record_counts_as_failed(hover_run):
    record, path = hover_run
    metrics = dict(record.metrics)
    metrics["rms_position_error_m"] += 1e-12
    altered = dataclasses.replace(record, metrics=metrics)
    checker = run.Checker()
    checker.check("hover_seeds", 5, altered, path)
    assert (checker.runs, checker.failed) == (1, 1)
    assert "differ" in checker.failures[0]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = _bench("--workload", "yaw_damp", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_unreadable_csv_counts_as_failed(hover_run, tmp_path):
    record, path = hover_run
    bad = tmp_path / "bad.csv"
    bad.write_text("# not a flapsim CSV\n" + path.read_text().split("\n", 1)[1])
    checker = run.Checker()
    checker.check("hover_seeds", 5, record, bad)
    assert (checker.runs, checker.failed) == (1, 1)
    assert "does not read back" in checker.failures[0]
