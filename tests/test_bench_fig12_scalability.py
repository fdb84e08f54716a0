"""Tests for the scale scenario's ``--online`` report in
benchmarks/bench_fig12_scalability.py."""

import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import bench_fig12_scalability

    return bench_fig12_scalability


def fake_runs(monkeypatch, bench, oracle_mb, online_mb):
    def run(num_gpus, num_jobs, seed=0, estimator_mode="oracle"):
        report = {key: 0 for key in bench.ONLINE_KEYS}
        report["peak_rss_mb"] = online_mb if estimator_mode == "online" else oracle_mb
        return report

    monkeypatch.setattr(bench, "run_scale_scenario", run)


@pytest.mark.parametrize("online_mb", [46.5, 40.0])
def test_online_peak_not_above_oracle_fails(monkeypatch, capsys, bench, online_mb):
    # ru_maxrss is a process high-water mark: an online run that peaks no
    # higher than the oracle run before it would report the oracle's peak.
    fake_runs(monkeypatch, bench, oracle_mb=46.5, online_mb=online_mb)
    assert bench.main(["--online"]) == 1
    captured = capsys.readouterr()
    assert "not above the oracle run's 46.5 MB" in captured.err
    assert captured.out == ""


def test_online_peak_above_oracle_is_reported(monkeypatch, capsys, bench):
    fake_runs(monkeypatch, bench, oracle_mb=46.5, online_mb=63.3)
    assert bench.main(["--online"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["peak_rss_mb"] == 46.5
    assert report["online_peak_rss_mb"] == 63.3
