"""Failure-injection tests: the pipeline must degrade loudly or gracefully,
never silently corrupt state."""

import pytest

from repro.cluster import Cluster, cpu_mem
from repro.common.rand import RandomSource
from repro.core.allocation import TaskAllocation
from repro.k8s import APIServer, JobController, JobTarget
from repro.schedulers import JobView, Scheduler, SchedulingDecision, make_scheduler
from repro.sim import SimConfig, simulate
from repro.sim.runtime import RuntimeJob
from repro.workloads import make_job, uniform_arrivals


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
