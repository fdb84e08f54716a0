"""Integration tests for the discrete-time simulation engine."""

import gc
import math
import weakref

import pytest

from repro.cluster import Cluster, cpu_mem
from repro.common.errors import SimulationError
from repro.obs import SIGNAL_SPEED, MetricsRegistry
from repro.schedulers import make_scheduler
from repro.sim import SimConfig, Simulation, StragglerConfig, simulate
from repro.workloads import make_job, uniform_arrivals


def small_workload(seed=1, num_jobs=4):
    return uniform_arrivals(
        num_jobs=num_jobs,
        window=1200,
        seed=seed,
        models=["cnn-rand", "kaggle-ndsb", "dssm"],
    )


def cluster():
    return Cluster.homogeneous(6, cpu_mem(16, 64))


FAST = SimConfig(seed=3, estimator_mode="oracle")


class TestBasicRuns:
    def test_all_jobs_finish(self):
        result = simulate(cluster(), make_scheduler("optimus"), small_workload(), FAST)
        assert result.all_finished
        assert result.average_jct > 0
        assert math.isfinite(result.makespan)

    def test_deterministic_under_seed(self):
        a = simulate(cluster(), make_scheduler("optimus"), small_workload(), FAST)
        b = simulate(cluster(), make_scheduler("optimus"), small_workload(), FAST)
        assert a.average_jct == b.average_jct
        assert a.makespan == b.makespan

    def test_seed_changes_outcome(self):
        a = simulate(cluster(), make_scheduler("optimus"), small_workload(), FAST)
        b = simulate(
            cluster(),
            make_scheduler("optimus"),
            small_workload(),
            SimConfig(seed=99, estimator_mode="oracle"),
        )
        assert a.average_jct != b.average_jct

    @pytest.mark.parametrize("name", ["optimus", "drf", "tetris", "fifo"])
    def test_every_scheduler_completes(self, name):
        result = simulate(cluster(), make_scheduler(name), small_workload(), FAST)
        assert result.all_finished, name

    def test_online_estimators_run(self):
        result = simulate(
            cluster(),
            make_scheduler("optimus"),
            small_workload(num_jobs=3),
            SimConfig(seed=3, estimator_mode="online"),
        )
        assert result.all_finished

    def test_single_job(self):
        job = make_job("cnn-rand", job_id="solo")
        result = simulate(cluster(), make_scheduler("optimus"), [job], FAST)
        assert result.jobs["solo"].finished


class TestTimeAccounting:
    def test_completion_after_arrival(self):
        result = simulate(cluster(), make_scheduler("optimus"), small_workload(), FAST)
        for record in result.jobs.values():
            assert record.completion_time > record.arrival_time

    def test_jct_definition(self):
        result = simulate(cluster(), make_scheduler("optimus"), small_workload(), FAST)
        record = next(iter(result.jobs.values()))
        assert record.jct == record.completion_time - record.arrival_time

    def test_fast_forward_over_idle_gap(self):
        # One job arrives very late; the sim must jump, not crawl.
        jobs = [make_job("cnn-rand", job_id="late", arrival_time=50_000.0)]
        result = simulate(cluster(), make_scheduler("optimus"), jobs, FAST)
        assert result.jobs["late"].finished
        # Timeline has no slots before the arrival.
        assert all(slot.time >= 49_800 for slot in result.timeline)

    def test_max_time_leaves_jobs_unfinished(self):
        config = SimConfig(seed=3, estimator_mode="oracle", max_time=600)
        jobs = [make_job("seq2seq", job_id="long", dataset_scale=0.5)]
        result = simulate(cluster(), make_scheduler("optimus"), jobs, config)
        assert not result.all_finished
        assert result.average_jct == math.inf or result.finished_jobs == ()
        assert result.makespan == math.inf

    def test_scaling_overhead_accounted(self):
        result = simulate(cluster(), make_scheduler("optimus"), small_workload(), FAST)
        assert result.total_scaling_time > 0
        assert 0 <= result.scaling_overhead_fraction < 0.2


class TestTimeline:
    def test_slots_cover_run(self):
        result = simulate(cluster(), make_scheduler("optimus"), small_workload(), FAST)
        assert result.timeline
        times = [slot.time for slot in result.timeline]
        assert times == sorted(times)

    def test_utilizations_bounded(self):
        result = simulate(cluster(), make_scheduler("drf"), small_workload(), FAST)
        for slot in result.timeline:
            assert 0.0 <= slot.worker_utilization <= 1.0
            assert 0.0 <= slot.ps_utilization <= 1.0

    def test_tasks_and_cpu_consistent(self):
        result = simulate(cluster(), make_scheduler("optimus"), small_workload(), FAST)
        for slot in result.timeline:
            assert slot.allocated_cpu == pytest.approx(
                slot.allocated_worker_cpu + slot.allocated_ps_cpu
            )
            assert slot.running_tasks * 5 == pytest.approx(slot.allocated_cpu)


class TestOptions:
    def test_stragglers_slow_things_down(self):
        base = simulate(cluster(), make_scheduler("optimus"), small_workload(), FAST)
        noisy_cfg = SimConfig(
            seed=3,
            estimator_mode="oracle",
            stragglers=StragglerConfig(rate=0.5, handling_enabled=False),
        )
        slowed = simulate(
            cluster(), make_scheduler("optimus"), small_workload(), noisy_cfg
        )
        assert slowed.average_jct >= base.average_jct

    def test_straggler_handling_helps(self):
        def run(handling):
            cfg = SimConfig(
                seed=3,
                estimator_mode="oracle",
                stragglers=StragglerConfig(rate=0.6, handling_enabled=handling),
            )
            return simulate(
                cluster(), make_scheduler("optimus"), small_workload(seed=5), cfg
            )

        assert run(True).average_jct <= run(False).average_jct

    def test_mxnet_partitioner_slower_than_paa(self):
        def run(algorithm):
            cfg = SimConfig(seed=3, estimator_mode="oracle", partition_algorithm=algorithm)
            jobs = [make_job("resnet-50", job_id="r", dataset_scale=0.003, mode="sync")]
            return simulate(cluster(), make_scheduler("optimus"), jobs, cfg)

        assert run("mxnet").average_jct >= run("paa").average_jct

    def test_validation(self):
        with pytest.raises(SimulationError):
            SimConfig(interval=0)
        with pytest.raises(SimulationError):
            SimConfig(estimator_mode="psychic")
        with pytest.raises(SimulationError):
            SimConfig(partition_algorithm="even")
        with pytest.raises(SimulationError):
            Simulation(cluster(), make_scheduler("optimus"), [])
        job = make_job("cnn-rand", job_id="dup")
        with pytest.raises(SimulationError):
            Simulation(cluster(), make_scheduler("optimus"), [job, job])

    def test_errors_need_the_oracle(self):
        """Online estimates carry their own error; injected ones would be
        silently dropped."""
        with pytest.raises(SimulationError, match="estimator_mode='oracle'"):
            SimConfig(convergence_error=0.3)
        with pytest.raises(SimulationError, match="estimator_mode='oracle'"):
            SimConfig(estimator_mode="online", speed_error=0.1)
        SimConfig(estimator_mode="oracle", convergence_error=0.3, speed_error=0.1)


class TestFinishedJobsAreFreed:
    """A completed job is reduced to its record at once, so the run's
    memory follows the active jobs instead of every job admitted."""

    def test_only_active_jobs_stay_alive_at_finalize(self, monkeypatch):
        alive = {}
        checked = {}
        admit, finalize = Simulation._admit, Simulation._finalize

        def tracking_admit(self, spec):
            job = admit(self, spec)
            alive[spec.job_id] = weakref.ref(job)
            return job

        def checking_finalize(self, active, done, never_admitted, timeline):
            gc.collect()
            checked["finished"] = sorted(done)
            checked["unfinished"] = sorted(active)
            checked["leaked"] = sorted(j for j in done if alive[j]() is not None)
            checked["datasets"] = sorted(self._store.file_names)
            telemetry = self.estimators
            checked["windows"] = sorted({job for _, job in telemetry._windows})
            checked["speed_samples"] = {
                j: telemetry.job_stats(j, SIGNAL_SPEED).count for j in done
            }
            return finalize(self, active, done, never_admitted, timeline)

        monkeypatch.setattr(Simulation, "_admit", tracking_admit)
        monkeypatch.setattr(Simulation, "_finalize", checking_finalize)
        config = SimConfig(seed=3, estimator_mode="online", max_time=3_600.0)
        simulate(
            cluster(),
            make_scheduler("optimus"),
            small_workload(num_jobs=6),
            config,
            metrics=MetricsRegistry(),
        )

        finished, unfinished = checked["finished"], checked["unfinished"]
        assert finished and unfinished
        assert checked["leaked"] == []
        assert checked["datasets"] == [f"data/{j}" for j in unfinished]
        assert not set(checked["windows"]) & set(finished)
        assert all(count > 0 for count in checked["speed_samples"].values())
