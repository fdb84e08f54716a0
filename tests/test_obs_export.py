"""Tests for repro.obs.export: Prometheus exposition and ``repro top``."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.obs import (
    EVENT_ESTIMATOR_DRIFT,
    EVENT_ESTIMATOR_SAMPLE,
    Histogram,
    MetricsRegistry,
    RecordingTracer,
    fold_trace,
    quantile_from_snapshot,
    render_prometheus,
    render_top,
)

GOLDEN = Path(__file__).parent / "golden" / "metrics_export.prom"


def golden_registry() -> MetricsRegistry:
    """The fixed registry the golden file was rendered from."""
    registry = MetricsRegistry()
    registry.counter("engine.intervals").inc(3)
    registry.counter("jobs.completed").inc(2)
    # Decision-ledger counters (PR 10): grants, denials by reason,
    # placement provenance.
    registry.counter("decision.grants").inc(7)
    registry.counter("decision.deny.capacity_exhausted").inc(2)
    registry.counter("decision.placement.fresh").inc(3)
    registry.counter("decision.placement.spill").inc(1)
    # Control-plane HA counters (PR 9): elections, fencing, lease churn.
    registry.counter("election.terms").inc(2)
    registry.counter("election.depositions").inc(1)
    registry.counter("election.writes_fenced").inc(1)
    registry.counter("lease.regrants").inc(1)
    registry.gauge("engine.active_jobs").set(4)
    registry.gauge("est.speed_mape").set(0.125)
    hist = registry.histogram("sched.allocate_seconds", bounds=(0.1, 1.0))
    for value in (0.05, 0.5, 2.0):
        hist.observe(value)
    return registry


class TestPrometheusRendering:
    def test_matches_golden_file(self):
        assert render_prometheus(golden_registry()) == GOLDEN.read_text()

    def test_snapshot_dict_and_registry_render_identically(self):
        registry = golden_registry()
        assert render_prometheus(registry) == render_prometheus(
            registry.snapshot()
        )

    def test_json_round_trip_renders_identically(self):
        # The `repro metrics-export` path: snapshot -> JSON file -> render.
        registry = golden_registry()
        thawed = json.loads(json.dumps(registry.snapshot()))
        assert render_prometheus(thawed) == GOLDEN.read_text()

    def test_metric_name_sanitisation_and_namespace(self):
        registry = MetricsRegistry()
        registry.counter("est.refit-suggested").inc()
        text = render_prometheus(registry, namespace="optimus")
        assert "optimus_est_refit_suggested_total 1" in text
        assert render_prometheus(registry, namespace="").startswith(
            "# HELP est_refit_suggested_total"
        )

    def test_histogram_buckets_are_cumulative(self):
        text = render_prometheus(golden_registry())
        assert 'repro_sched_allocate_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_sched_allocate_seconds_bucket{le="1"} 2' in text
        assert 'repro_sched_allocate_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_sched_allocate_seconds_count 3" in text

    def test_empty_registry_renders_empty_exposition(self):
        assert render_prometheus(MetricsRegistry()) == "\n"

    def test_decision_and_election_counters_exported(self):
        text = render_prometheus(golden_registry())
        assert "repro_decision_grants_total 7" in text
        assert "repro_decision_deny_capacity_exhausted_total 2" in text
        assert "repro_decision_placement_fresh_total 3" in text
        assert "repro_decision_placement_spill_total 1" in text
        assert "repro_election_terms_total 2" in text
        assert "repro_election_writes_fenced_total 1" in text
        assert "repro_lease_regrants_total 1" in text


class TestQuantiles:
    def make_hist(self):
        hist = Histogram(bounds=(10.0, 20.0))
        for value in (5.0, 10.0, 15.0, 25.0):
            hist.observe(value)
        return hist

    def test_linear_interpolation_within_buckets(self):
        hist = self.make_hist()
        assert hist.quantile(0.25) == 5.0  # clamped to observed min
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(0.75) == 20.0
        assert hist.quantile(1.0) == 25.0  # overflow interpolates to max

    def test_snapshot_quantile_matches_live(self):
        hist = self.make_hist()
        snap = hist.snapshot()
        for q in (0.25, 0.5, 0.75, 0.95, 1.0):
            assert quantile_from_snapshot(snap, q) == hist.quantile(q)

    def test_quantile_validation_and_empty(self):
        hist = Histogram(bounds=(1.0,))
        assert hist.quantile(0.5) == 0.0
        with pytest.raises(ConfigurationError):
            hist.quantile(1.5)

    def test_exported_quantiles_present(self):
        text = render_prometheus(golden_registry())
        assert 'repro_sched_allocate_seconds_quantile{quantile="0.5"}' in text
        assert 'repro_sched_allocate_seconds_quantile{quantile="0.99"}' in text


def synthetic_trace():
    tracer = RecordingTracer()
    tracer.emit("job_arrived", 0.0, job_id="j1", model="resnet-50", mode="sync")
    tracer.emit("allocation_decided", 0.0, job_id="j1", workers=4, ps=2)
    tracer.emit("placement_decided", 0.0, job_id="j1", servers=3)
    tracer.emit(
        EVENT_ESTIMATOR_SAMPLE, 600.0, job_id="j1", signal="speed",
        predicted=12.0, actual=10.0, error=0.2,
    )
    tracer.emit(
        EVENT_ESTIMATOR_DRIFT, 600.0, job_id="j1", signal="speed",
        window_mape=0.6, window=6, threshold=0.5,
    )
    tracer.emit(
        "interval_tick", 600.0, running_jobs=1, active_jobs=1, pending_jobs=0
    )
    tracer.emit("job_completed", 1200.0, job_id="j1", steps=100.0)
    tracer.emit("leader_elected", 0.0, leader="ctl-a", epoch=1)
    tracer.emit("leader_deposed", 900.0, leader="ctl-a", epoch=1, reason="ttl")
    tracer.emit(
        "write_fenced", 910.0, leader="ctl-a", epoch=1, op="put", key="/x"
    )
    tracer.emit("node_lease_regrant", 920.0, server="node-3")
    tracer.emit("checkpoint_recorded", 930.0, job_id="j1", steps=90.0)
    tracer.emit(
        "decision", 0.0, kind="grant", job_id="j1", task="worker",
        gain=0.5, workers=2, ps=1, index=0,
    )
    tracer.emit(
        "decision", 0.0, kind="deny", job_id="j1",
        reason="capacity_exhausted", stage="grow",
    )
    tracer.emit(
        "decision", 0.0, kind="placement", job_id="j1",
        provenance="fresh", servers=3,
    )
    return tracer.events


class TestTop:
    def test_state_folds_trace(self):
        fold = fold_trace(synthetic_trace())
        assert fold.ticks == 1
        assert len(fold.drift) == 1
        assert fold.last_time == 1200.0
        job = fold.jobs["j1"]
        assert job.model == "resnet-50"
        assert job.state == "done"
        assert (job.workers, job.ps, job.servers) == (4, 2, 3)
        speed = job.estimators["speed"]
        assert (speed.count, speed.mape, speed.bias) == (1, 0.2, 0.2)
        assert job.estimators["remaining"].count == 0
        assert job.drift_signals == {"speed"}
        assert fold.control == {
            "leader_elected": 1,
            "leader_deposed": 1,
            "write_fenced": 1,
            "node_lease_regrant": 1,
            "checkpoint_recorded": 1,
        }
        assert (fold.grants, fold.denials, fold.placements, fold.shrinks) == (
            {"worker": 1},
            {"capacity_exhausted": 1},
            {"fresh": 1},
            0,
        )

    def test_render_includes_header_estimators_and_table(self):
        text = render_top(synthetic_trace())
        assert "cluster: 1 interval(s)" in text
        assert "speed MAPE 20.0%" in text
        assert "drift events 1" in text
        assert "j1" in text and "resnet-50" in text
        assert "control plane: elections=1, depositions=1" in text
        assert "decision ledger: grants=1, denials=1, placements=1" in text

    def test_max_jobs_truncates_table(self):
        events = synthetic_trace()
        events.append(
            {"seq": 99, "time": 0.0, "event": "job_arrived", "job_id": "j2",
             "model": "dssm", "mode": "async"}
        )
        text = render_top(events, max_jobs=1)
        # Active jobs sort before done ones: only j2 survives the cut.
        assert "j2" in text
        assert "\nj1 " not in text


class TestCliCommands:
    def run_sim(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        metrics = str(tmp_path / "metrics.json")
        assert main([
            "simulate", "--jobs", "2", "--servers", "4", "--window", "600",
            "--estimator", "oracle", "--seed", "5", "--json",
            "--trace-out", trace, "--metrics-out", metrics,
        ]) == 0
        return trace, metrics

    def test_metrics_export_round_trip(self, tmp_path, capsys):
        _, metrics = self.run_sim(tmp_path)
        capsys.readouterr()
        assert main(["metrics-export", metrics]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_intervals_total counter" in out
        out_path = tmp_path / "metrics.prom"
        assert main(["metrics-export", metrics, "--out", str(out_path)]) == 0
        assert out_path.read_text().endswith("\n")

    def test_top_once(self, tmp_path, capsys):
        trace, metrics = self.run_sim(tmp_path)
        capsys.readouterr()
        assert main(["top", trace, "--metrics", metrics, "--once"]) == 0
        out = capsys.readouterr().out
        assert "cluster:" in out
        assert "metrics:" in out
