"""Tests for the experiment harness and metrics aggregation."""

import math

import pytest

from repro.cluster import Cluster, cpu_mem
from repro.common.errors import SimulationError
from repro.sim import SimConfig, compare_schedulers, normalized, run_repeats
from repro.sim.experiment import format_comparison
from repro.sim.metrics import JobRecord, SimulationResult, TimeSlot, aggregate_results
from repro.workloads import uniform_arrivals


def cluster_factory():
    return Cluster.homogeneous(6, cpu_mem(16, 64))


def workload(repeat):
    return uniform_arrivals(
        num_jobs=3,
        window=600,
        seed=100 + repeat,
        models=["cnn-rand", "dssm"],
    )


CONFIG = SimConfig(seed=1, estimator_mode="oracle")


class TestRunRepeats:
    def test_aggregates(self):
        stats = run_repeats(cluster_factory, "optimus", workload, CONFIG, repeats=2)
        assert stats.runs == 2
        assert len(stats.results) == 2
        assert stats.average_jct > 0
        assert stats.makespan > 0

    def test_repeats_use_different_workloads(self):
        stats = run_repeats(cluster_factory, "optimus", workload, CONFIG, repeats=2)
        a, b = stats.results
        assert {j for j in a.jobs} == {j for j in b.jobs}  # same ids by index
        assert a.average_jct != b.average_jct

    def test_invalid_repeats(self):
        with pytest.raises(SimulationError):
            run_repeats(cluster_factory, "optimus", workload, CONFIG, repeats=0)


class TestCompareAndNormalize:
    @pytest.fixture(scope="class")
    def stats(self):
        return compare_schedulers(
            cluster_factory,
            ["optimus", "drf"],
            workload,
            config=CONFIG,
            repeats=1,
        )

    def test_same_workload_for_all(self, stats):
        opt = stats["optimus"].results[0]
        drf = stats["drf"].results[0]
        assert set(opt.jobs) == set(drf.jobs)

    def test_normalized_baseline_is_one(self, stats):
        norm = normalized(stats, baseline="optimus")
        assert norm["optimus"]["jct"] == pytest.approx(1.0)
        assert norm["optimus"]["makespan"] == pytest.approx(1.0)

    def test_normalized_missing_baseline(self, stats):
        with pytest.raises(SimulationError):
            normalized(stats, baseline="tetris")

    def test_format_comparison(self, stats):
        table = format_comparison(stats, baseline="optimus")
        assert "optimus" in table and "drf" in table
        assert "JCT" in table


def record(job_id, arrival, completion):
    return JobRecord(
        job_id=job_id,
        model="cnn-rand",
        mode="sync",
        arrival_time=arrival,
        completion_time=completion,
        total_steps=100,
        scaling_time=10,
        num_scalings=1,
        chunks_moved=0,
    )


def result(records, name="test"):
    return SimulationResult(
        scheduler_name=name,
        jobs={r.job_id: r for r in records},
        timeline=[],
        interval=600,
        seed=0,
    )


class TestMetrics:
    def test_average_jct(self):
        res = result([record("a", 0, 100), record("b", 50, 250)])
        assert res.average_jct == pytest.approx(150.0)

    def test_jct_std(self):
        res = result([record("a", 0, 100), record("b", 0, 300)])
        assert res.jct_std == pytest.approx(100.0)

    def test_makespan(self):
        res = result([record("a", 10, 100), record("b", 50, 400)])
        assert res.makespan == pytest.approx(390.0)

    def test_unfinished_job_inf_makespan(self):
        res = result([record("a", 0, 100), record("b", 0, None)])
        assert res.makespan == math.inf
        assert not res.all_finished
        assert res.average_jct == pytest.approx(100.0)  # over finished only

    def test_nothing_finished(self):
        res = result([record("a", 0, None)])
        assert res.average_jct == math.inf

    def test_total_scaling_time(self):
        res = result([record("a", 0, 100), record("b", 0, 100)])
        assert res.total_scaling_time == 20

    def test_empty_jobs_rejected(self):
        with pytest.raises(SimulationError):
            result([])

    def test_summary_keys(self):
        res = result([record("a", 0, 100)])
        summary = res.summary()
        assert {"average_jct", "makespan", "finished", "worker_utilization"} <= set(
            summary
        )


class TestTimeSlot:
    def test_utilization_ratios(self):
        slot = TimeSlot(
            time=0,
            running_jobs=1,
            running_tasks=4,
            allocated_cpu=20,
            busy_worker_cpu=5,
            busy_ps_cpu=2,
            allocated_worker_cpu=10,
            allocated_ps_cpu=10,
        )
        assert slot.worker_utilization == pytest.approx(0.5)
        assert slot.ps_utilization == pytest.approx(0.2)

    def test_zero_allocation(self):
        slot = TimeSlot(0, 0, 0, 0, 0, 0, 0, 0)
        assert slot.worker_utilization == 0.0
        assert slot.ps_utilization == 0.0


class TestAggregateResults:
    def test_mean_and_std(self):
        a = result([record("x", 0, 100)])
        b = result([record("x", 0, 300)])
        agg = aggregate_results([a, b])
        assert agg["average_jct"] == pytest.approx(200.0)
        assert agg["jct_std"] == pytest.approx(100.0)
        assert agg["runs"] == 2

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            aggregate_results([])


class TestRichMetrics:
    def make_result(self):
        return result(
            [
                JobRecord("a", "cnn-rand", "sync", 0, 100, 1, 0, 0, 0),
                JobRecord("b", "cnn-rand", "async", 0, 200, 1, 0, 0, 0),
                JobRecord("c", "resnet-50", "sync", 0, 400, 1, 0, 0, 0),
                JobRecord("d", "resnet-50", "sync", 100, 900, 1, 0, 0, 0),
            ]
        )

    def test_percentiles(self):
        res = self.make_result()
        assert res.jct_percentile(0) == 100
        assert res.jct_percentile(100) == 800
        assert res.jct_percentile(50) == pytest.approx(300.0)

    def test_percentile_validation(self):
        with pytest.raises(SimulationError):
            self.make_result().jct_percentile(101)

    def test_percentile_no_finished_jobs(self):
        res = result([record("x", 0, None)])
        assert res.jct_percentile(50) == math.inf

    def test_jct_by_model(self):
        by_model = self.make_result().jct_by_model()
        assert by_model["cnn-rand"] == pytest.approx(150.0)
        assert by_model["resnet-50"] == pytest.approx(600.0)

    def test_jct_by_mode(self):
        by_mode = self.make_result().jct_by_mode()
        assert by_mode["async"] == pytest.approx(200.0)
        assert by_mode["sync"] == pytest.approx(433.333, rel=1e-3)
