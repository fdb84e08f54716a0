"""Tests for benchmarks/check_regression.py, run as CI runs it."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"


def gate(tmp_path, baseline, current):
    """Run the script on two JSON reports; returns (exit code, output)."""
    base_path = tmp_path / "baseline.json"
    cur_path = tmp_path / "current.json"
    base_path.write_text(json.dumps(baseline))
    cur_path.write_text(json.dumps(current))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(base_path), str(cur_path)],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


@pytest.mark.parametrize("key", ["allocate_p95_ms", "interval_s", "wall_seconds"])
def test_vanished_time_measurement_fails(tmp_path, key):
    # An empty histogram's quantile reads 0.0: a phase that stopped being
    # timed must not pass as an infinitely fast one.
    code, out = gate(tmp_path, {key: 1.45, "steps": 10}, {key: 0, "steps": 10})
    assert code == 1
    assert f"{key} (measurement vanished)" in out


def test_metric_within_band_passes(tmp_path):
    code, out = gate(
        tmp_path,
        {"wall_seconds": 10.0, "place_p95_ms": 1.0, "steps": 100},
        {"wall_seconds": 11.0, "place_p95_ms": 0.8, "steps": 120},
    )
    assert code == 0, out
    assert "ok: every shared metric" in out


def test_zero_baseline_time_stays_ungated(tmp_path):
    code, out = gate(tmp_path, {"idle_s": 0.0}, {"idle_s": 0.0})
    assert code == 0, out


def test_regression_beyond_band_fails(tmp_path):
    code, out = gate(tmp_path, {"wall_seconds": 10.0}, {"wall_seconds": 14.0})
    assert code == 1
    assert "REGRESSED" in out


def test_missing_baseline_key_fails(tmp_path):
    code, out = gate(
        tmp_path, {"wall_seconds": 10.0, "place_p95_ms": 1.0}, {"wall_seconds": 10.0}
    )
    assert code == 1
    assert "missing from the current report: place_p95_ms" in out


def test_higher_is_better_key_is_inverted(tmp_path):
    # Throughput regresses by shrinking...
    code, out = gate(
        tmp_path, {"jobs_per_second": 100.0}, {"jobs_per_second": 50.0}
    )
    assert code == 1
    assert "higher-is-better" in out
    # ...and growing it is an improvement, however large.
    code, out = gate(
        tmp_path, {"jobs_per_second": 100.0}, {"jobs_per_second": 500.0}
    )
    assert code == 0, out


@pytest.mark.parametrize("key", ["jobs_completed", "online_jobs_completed"])
def test_completed_job_counts_are_higher_is_better(tmp_path, key):
    code, out = gate(tmp_path, {key: 2000}, {key: 1000})
    assert code == 1
    assert "higher-is-better" in out
    code, out = gate(tmp_path, {key: 1000}, {key: 2000})
    assert code == 0, out
