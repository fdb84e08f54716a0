"""Failure-injection tests: the pipeline must degrade loudly or gracefully,
never silently corrupt state."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import Cluster, cpu_mem
from repro.common.rand import RandomSource
from repro.core.allocation import TaskAllocation
from repro.k8s import APIServer, JobController, JobTarget
from repro.schedulers import JobView, Scheduler, SchedulingDecision, make_scheduler
from repro.sim import SimConfig, simulate
from repro.sim.runtime import RuntimeJob
from repro.workloads import make_job, uniform_arrivals, with_lr_drops, zoo_names

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


class TestEstimatorFailures:
    def test_unfittable_losses_fall_back_to_prior(self):
        """A job whose convergence fit keeps failing still gets scheduled."""
        spec = make_job("cnn-rand", job_id="weird")
        job = RuntimeJob(spec, seed=RandomSource(1))
        # Identical losses at a single step make the Eqn-1 transform
        # degenerate; the estimate must fall back to the prior, not raise.
        for _ in range(30):
            job.convergence.add_observation(100, 5.0)
        remaining = job.estimated_remaining_steps()
        assert remaining > 0

    def test_broken_speed_fit_falls_back_to_truth(self):
        spec = make_job("cnn-rand", job_id="weird2")
        job = RuntimeJob(spec, seed=RandomSource(1))
        # No bootstrap at all: the speed function must still be callable.
        fn = job.speed_function()
        assert fn(2, 2) > 0


class PerEpochObserverJob(RuntimeJob):
    """Reference: the §2.1 rule evaluated epoch by epoch as boundaries are
    crossed, the way the simulator did before the stop was fixed at
    admission. A re-crossed epoch (after a rollback) reports the streak of
    the latest epoch already observed."""

    def __init__(self, spec, seed):
        super().__init__(spec, seed, estimator_mode="oracle")
        self.epochs_observed = 0
        self.last_epoch_loss = self.epoch_loss_max = 0.0
        self.streak = 0
        self.epoch_noise = self._seed.child("epoch-loss")
        self.epoch_noise_std = self.emitter.noise_std / math.sqrt(25.0)
        target = spec.profile.target_epochs
        self.max_steps = max(3.0 * target, target + 50) * self.steps_per_epoch

    def advance(self, run_time, speed, workers=1):
        if self.completed:
            return 0.0
        if run_time <= 0 or speed <= 0:
            return None
        penalty = self.staleness_penalty(workers)
        eff_speed = speed / penalty
        raw_start, eff_start = self.steps_done, self.effective_steps
        eff_target = eff_start + eff_speed * run_time
        epoch = int(eff_start // self.steps_per_epoch) + 1
        while epoch * self.steps_per_epoch <= eff_target:
            boundary = epoch * self.steps_per_epoch
            if self.epoch_converged(epoch) or boundary >= self.max_steps:
                self.effective_steps = boundary
                self.steps_done = raw_start + (boundary - eff_start) * penalty
                self.completed = True
                return (boundary - eff_start) / eff_speed
            epoch += 1
        self.effective_steps = eff_target
        self.steps_done = raw_start + speed * run_time
        return None

    def epoch_converged(self, epoch):
        while self.epochs_observed < epoch:
            self.epochs_observed += 1
            value = self.emitter.true_loss(self.epochs_observed * self.steps_per_epoch)
            value *= max(1e-3, 1.0 + self.epoch_noise.rng.normal(0.0, self.epoch_noise_std))
            previous, self.last_epoch_loss = self.last_epoch_loss, float(value)
            self.epoch_loss_max = max(self.epoch_loss_max, value)
            if self.epochs_observed >= 2 and self.epoch_loss_max > 0:
                decrease = (previous - self.last_epoch_loss) / self.epoch_loss_max
                self.streak = self.streak + 1 if decrease < self.spec.threshold else 0
        return self.streak >= self.spec.patience


def _drive_against_reference(spec, seed):
    """Advance a job and the reference through the same random chunks,
    checkpoints and rollbacks; every outcome must match exactly."""
    job = RuntimeJob(spec, RandomSource(seed), estimator_mode="oracle")
    ref = PerEpochObserverJob(spec, RandomSource(seed))
    rng = np.random.default_rng(seed)
    now = 0.0
    for _ in range(2_000):
        run_time = float(rng.uniform(10.0, 900.0))
        speed = float(rng.uniform(0.05, 2.5)) * job.steps_per_epoch / run_time
        workers = int(rng.integers(1, 17))
        offset = job.advance(run_time, speed, workers)
        assert offset == ref.advance(run_time, speed, workers)
        assert job.effective_steps == ref.effective_steps
        assert job.steps_done == ref.steps_done
        if offset is not None:
            return job, ref
        now += run_time
        op = rng.random()
        if op < 0.3:
            job.record_checkpoint(now)
            ref.record_checkpoint(now)
        elif op < 0.4:
            lost = bool(rng.random() < 0.5)
            job.rollback_to_checkpoint(now, lost=lost)
            ref.rollback_to_checkpoint(now, lost=lost)
    raise AssertionError(f"{spec.job_id} never completed")


class TestStopEpochMatchesPerEpochObserver:
    """The stop drawn at admission equals the per-epoch rule, through
    random chunks, worker counts, checkpoints and rollbacks."""

    SEEDS = [CHAOS_SEED * 3 + k for k in range(3)]

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_every_table1_profile(self, mode):
        rollbacks = 0
        for seed in self.SEEDS:
            for model in zoo_names():
                spec = make_job(model, mode=mode, job_id=f"{model}-{seed}")
                job, ref = _drive_against_reference(spec, seed)
                assert job.effective_steps == job.stop_epoch * job.steps_per_epoch
                rollbacks += ref.num_restarts
        assert rollbacks > 0

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_stepped_lr_drop_curve(self, mode):
        for seed in self.SEEDS:
            for model in zoo_names():
                profile = make_job(model).profile
                drops = [profile.target_epochs // 3, profile.target_epochs // 2]
                stepped = profile.with_overrides(loss=with_lr_drops(profile.loss, drops))
                spec = replace(make_job(model, mode=mode, job_id=f"{model}-{seed}"), profile=stepped)
                _drive_against_reference(spec, seed)

    def test_safety_valve_stops_a_job_that_never_converges(self):
        for seed in self.SEEDS:
            spec = make_job("cnn-rand", job_id=f"valve-{seed}", patience=10_000)
            job, ref = _drive_against_reference(spec, seed)
            assert job.effective_steps == ref.max_steps
            target = spec.profile.target_epochs
            assert job.stop_epoch == max(3 * target, target + 50)


class MisbehavingScheduler(Scheduler):
    """Returns allocations whose layouts don't add up."""

    name = "broken"

    def schedule(self, cluster, jobs):
        decision = SchedulingDecision(
            allocations={jobs[0].job_id: TaskAllocation(3, 3)},
            layouts={jobs[0].job_id: {"node-0": (1, 1)}},
        )
        return decision  # note: no validate()


class HalfSilentScheduler(Scheduler):
    """Schedules nothing at all -- every job is paused every interval."""

    name = "pause-everything"

    def schedule(self, cluster, jobs):
        return SchedulingDecision()


class TestSchedulerFailures:
    def test_inconsistent_decision_detected_by_validate(self):
        scheduler = MisbehavingScheduler()
        cluster = Cluster.homogeneous(2, cpu_mem(16, 64))
        jobs = uniform_arrivals(num_jobs=1, window=0, seed=1, models=["cnn-rand"])
        decision = scheduler.schedule(cluster, _views(jobs))
        with pytest.raises(ValueError):
            decision.validate()

    def test_pausing_scheduler_makes_no_progress(self):
        jobs = uniform_arrivals(num_jobs=1, window=0, seed=1, models=["cnn-rand"])
        config = SimConfig(seed=1, estimator_mode="oracle", max_time=3_000)
        result = simulate(
            Cluster.homogeneous(2, cpu_mem(16, 64)),
            HalfSilentScheduler(),
            jobs,
            config,
        )
        assert not result.all_finished
        record = next(iter(result.jobs.values()))
        assert record.total_steps == 0


def _views(specs):
    from repro.workloads import StepTimeModel

    views = []
    for spec in specs:
        truth = StepTimeModel(spec.profile, spec.mode)
        views.append(
            JobView(
                spec=spec,
                remaining_steps=1000,
                speed=lambda p, w, t=truth: t.speed(p, w),
                observation_count=100,
            )
        )
    return views


class TestOrchestratorFailures:
    @pytest.fixture
    def api(self):
        server = APIServer()
        server.register_node("n0", cpu_mem(16, 64))
        return server

    def test_overcommitting_target_is_rolled_back(self, api):
        controller = JobController(api)
        target = JobTarget(
            job_id="greedy",
            worker_demand=cpu_mem(5, 10),
            ps_demand=cpu_mem(5, 10),
            layout={"n0": (4, 4)},  # 40 CPU on a 16-CPU node
        )
        report = controller.reconcile([target])
        assert report.jobs_rolled_back == ("greedy",)
        assert report.jobs_scaled == () and report.jobs_failed == ()
        # A new job has no previous pods to restore: nothing stays bound.
        assert api.list_pods(job_id="greedy") == []
        assert api.node("n0").allocated == cpu_mem(0, 0)

    def test_unknown_node_in_target_is_rolled_back(self, api):
        controller = JobController(api)
        target = JobTarget(
            job_id="lost",
            worker_demand=cpu_mem(5, 10),
            ps_demand=cpu_mem(5, 10),
            layout={"ghost-node": (1, 1)},
        )
        report = controller.reconcile([target])
        assert report.jobs_rolled_back == ("lost",)
        assert api.list_pods(job_id="lost") == []
        assert api.node("n0").allocated == cpu_mem(0, 0)

    def test_failed_reconcile_leaves_partial_pods_visible(self, api):
        """A mid-flight failure is reported; the operator can inspect state."""
        controller = JobController(api)
        bad = JobTarget(
            job_id="partial",
            worker_demand=cpu_mem(5, 10),
            ps_demand=cpu_mem(5, 10),
            layout={"n0": (3, 3)},  # workers fit (15 CPU); the ps don't
        )
        report = controller.reconcile([bad])
        assert report.jobs_rolled_back == ("partial",)
        # Whatever was bound is still accounted for consistently.
        node = api.node("n0")
        assert node.allocated.fits_within(node.capacity)
        bound = [p for p in api.list_pods(job_id="partial") if p.bound]
        assert node.allocated == cpu_mem(5 * len(bound), 10 * len(bound))


class TestWorkloadEdgeCases:
    def test_zero_length_interval_rejected(self):
        with pytest.raises(Exception):
            SimConfig(interval=0)

    def test_simulation_survives_extreme_thresholds(self):
        # A near-zero threshold makes the job run to the safety cap; the sim
        # must terminate via max_time rather than hang.
        job = make_job("cnn-rand", job_id="forever", threshold=1e-9)
        config = SimConfig(seed=1, estimator_mode="oracle", max_time=1_800)
        result = simulate(
            Cluster.homogeneous(2, cpu_mem(16, 64)),
            make_scheduler("optimus"),
            [job],
            config,
        )
        assert "forever" in result.jobs
