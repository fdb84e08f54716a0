"""Tests for benchmarks/check_regression.py, run as CI runs it."""

import importlib.util
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


@pytest.mark.parametrize(
    "key", ["events_per_second", "jobs_per_second", "optimus_jobs_finished", "drf_jain_fairness"]
)
def test_higher_is_better_metric_falling_to_zero_fails(tmp_path, key):
    # Zero throughput means nothing ran; it must not pass as "ungated".
    code, out = gate(tmp_path, {key: 2952.24, "steps": 10}, {key: 0, "steps": 10})
    assert code == 1
    assert f"{key} (measurement vanished)" in out


#: The seeded runs' behaviour keys (BENCH_scale.json, BENCH_failover.json).
BEHAVIOUR_KEYS = [
    "average_jct_seconds",
    "jobs_completed",
    "events_processed",
    "schedule_events",
    "placement_cache_hits",
    "speed_mape",
    "remaining_mape",
    "remaining_bias",
    "online_average_jct_seconds",
    "online_jobs_completed",
    "online_speed_mape",
    "online_remaining_mape",
    "online_remaining_bias",
    "checker_violations",
    "fenced_writes_mid_step_deposed",
    "fenced_writes_total",
    "takeovers_total",
]


@pytest.mark.parametrize("key", BEHAVIOUR_KEYS)
def test_behaviour_key_change_fails(tmp_path, key):
    # Exact: a change either way fails, even one the ratio band would
    # call an improvement.
    for changed in (1999, 2001):
        code, out = gate(tmp_path, {key: 2000}, {key: changed})
        assert code == 1, out
        assert f"{key} (changed; must match exactly)" in out
    code, out = gate(tmp_path, {key: 2000}, {key: 2000})
    assert code == 0, out


@pytest.mark.parametrize(
    "key, before, after",
    [
        # A move the 30% ratio band would wave through in either direction.
        ("online_speed_mape", 0.0685, 0.0699),
        ("online_remaining_mape", 0.3254, 0.3197),
        # A signed bias: crossing zero has no meaningful ratio.
        ("online_remaining_bias", 0.1537, -0.0021),
        # The oracle's error keys gate the same way.
        ("speed_mape", 0.1201, 0.1222),
        ("remaining_bias", -0.0513, 0.0009),
    ],
)
def test_estimator_quality_key_is_exact(tmp_path, key, before, after):
    code, out = gate(tmp_path, {key: before}, {key: after})
    assert code == 1, out
    assert f"{key} (changed; must match exactly)" in out
    code, out = gate(tmp_path, {key: before}, {key: before})
    assert code == 0, out
    assert f"{key}: {before!r} -> {before!r} [exact]" in out


def test_behaviour_keys_match_the_script():
    spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.BEHAVIOUR_KEYS == frozenset(BEHAVIOUR_KEYS)


def test_unchanged_digest_passes(tmp_path):
    report = {"decision_digest": "ab12", "wall_seconds": 1.0}
    code, out = gate(tmp_path, report, dict(report))
    assert code == 0, out
    assert "decision_digest: 'ab12' -> 'ab12' [exact]" in out


@pytest.mark.parametrize("key", ["decision_digest", "online_decision_digest"])
def test_changed_digest_fails(tmp_path, key):
    code, out = gate(tmp_path, {key: "ab12"}, {key: "ab13"})
    assert code == 1
    assert f"{key} (changed; must match exactly)" in out


def test_missing_digest_fails(tmp_path):
    code, out = gate(
        tmp_path, {"decision_digest": "ab12", "wall_seconds": 1.0}, {"wall_seconds": 1.0}
    )
    assert code == 1
    assert "missing from the current report: decision_digest" in out


def test_new_digest_is_informational(tmp_path):
    code, out = gate(
        tmp_path, {"wall_seconds": 1.0}, {"wall_seconds": 1.0, "decision_digest": "ab"}
    )
    assert code == 0, out
    assert "ungated until it is regenerated): decision_digest" in out
