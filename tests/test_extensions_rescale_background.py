"""Tests for cost-aware rescaling and background load (§7 extensions)."""

import pytest

from repro.cluster import Cluster, cpu_mem
from repro.common.errors import ConfigurationError, SchedulingError
from repro.core.allocation import TaskAllocation
from repro.schedulers import JobView, make_scheduler
from repro.sim import SimConfig, simulate
from repro.sim.background import (
    MAX_BACKGROUND_FRACTION,
    clamp_fraction,
    constant_load,
    diurnal_load,
    step_load,
)
from repro.workloads import StepTimeModel, make_job, uniform_arrivals


def view(job_id, current=TaskAllocation(0, 0), rescale_cost=0.0,
         remaining=50_000, model="seq2seq"):
    spec = make_job(model, mode="sync", job_id=job_id)
    truth = StepTimeModel(spec.profile, "sync")
    return JobView(
        spec=spec,
        remaining_steps=remaining,
        speed=lambda p, w, t=truth: t.speed(p, w),
        observation_count=100,
        current_allocation=current,
        rescale_cost=rescale_cost,
    )


class TestRescaleHysteresis:
    @pytest.fixture
    def cluster(self):
        return Cluster.homogeneous(6, cpu_mem(16, 64))

    def test_threshold_zero_always_rescales(self, cluster):
        scheduler = make_scheduler("optimus", rescale_threshold=0.0)
        current = TaskAllocation(2, 2)
        decision = scheduler.schedule(
            cluster, [view("j", current=current, rescale_cost=1e9)]
        )
        # Even an absurd cost is ignored when hysteresis is off.
        assert decision.allocations["j"] != current

    def test_huge_cost_freezes_allocation(self, cluster):
        scheduler = make_scheduler("optimus", rescale_threshold=1.0)
        current = TaskAllocation(2, 2)
        decision = scheduler.schedule(
            cluster, [view("j", current=current, rescale_cost=1e9)]
        )
        assert decision.allocations["j"] == current

    def test_worthwhile_move_still_happens(self, cluster):
        scheduler = make_scheduler("optimus", rescale_threshold=1.0)
        current = TaskAllocation(1, 1)  # far below optimal for a big job
        decision = scheduler.schedule(
            cluster,
            [view("j", current=current, rescale_cost=30.0, remaining=500_000)],
        )
        # Saving hours for a 30-second checkpoint: rescale.
        assert decision.allocations["j"].total > 2

    def test_new_jobs_unaffected(self, cluster):
        scheduler = make_scheduler("optimus", rescale_threshold=5.0)
        decision = scheduler.schedule(
            cluster, [view("j", rescale_cost=1e9)]  # current = (0, 0)
        )
        assert decision.allocations["j"].total >= 2

    def test_negative_threshold_rejected(self):
        with pytest.raises(SchedulingError):
            make_scheduler("optimus", rescale_threshold=-1.0)

    def test_hysteresis_reduces_scalings_in_simulation(self):
        jobs = uniform_arrivals(num_jobs=5, window=3000, seed=3)

        def total_scalings(threshold):
            cluster = Cluster.homogeneous(13, cpu_mem(16, 80))
            scheduler = make_scheduler("optimus", rescale_threshold=threshold)
            result = simulate(
                cluster, scheduler, jobs, SimConfig(seed=7, estimator_mode="oracle")
            )
            assert result.all_finished
            return sum(r.num_scalings for r in result.jobs.values()), result

        eager, _ = total_scalings(0.0)
        lazy, lazy_result = total_scalings(3.0)
        assert lazy < eager
        assert lazy_result.total_scaling_time >= 0


class TestBackgroundLoadProfiles:
    def test_constant(self):
        profile = constant_load(0.4)
        assert profile(0) == 0.4
        assert profile(1e6) == 0.4

    def test_constant_validation(self):
        with pytest.raises(ConfigurationError):
            constant_load(1.5)

    def test_diurnal_cycle(self):
        profile = diurnal_load(trough=0.1, peak=0.7, period=86_400)
        assert profile(0) == pytest.approx(0.1)
        assert profile(43_200) == pytest.approx(0.7)
        assert profile(86_400) == pytest.approx(0.1)
        # Quarter-period is the midpoint.
        assert profile(21_600) == pytest.approx(0.4)

    def test_diurnal_validation(self):
        with pytest.raises(ConfigurationError):
            diurnal_load(trough=0.5, peak=0.2)
        with pytest.raises(ConfigurationError):
            diurnal_load(period=0)

    def test_step_schedule(self):
        profile = step_load([(100.0, 0.5), (200.0, 0.2)])
        assert profile(50) == 0.0
        assert profile(150) == 0.5
        assert profile(250) == 0.2

    def test_step_validation(self):
        with pytest.raises(ConfigurationError):
            step_load([(100.0, 0.5), (100.0, 0.2)])
        with pytest.raises(ConfigurationError):
            step_load([(100.0, 2.0)])

    def test_clamp(self):
        assert clamp_fraction(-1) == 0.0
        assert clamp_fraction(2.0) == MAX_BACKGROUND_FRACTION


class TestBackgroundLoadInSimulation:
    def make_jobs(self):
        return uniform_arrivals(
            num_jobs=3, window=600, seed=5, models=["cnn-rand", "dssm"]
        )

    def run(self, load):
        cluster = Cluster.homogeneous(6, cpu_mem(16, 64))
        config = SimConfig(
            seed=7, estimator_mode="oracle", background_load=load
        )
        return simulate(cluster, make_scheduler("optimus"), self.make_jobs(), config)

    def test_load_slows_jobs(self):
        free = self.run(None)
        busy = self.run(constant_load(0.6))
        assert busy.all_finished
        assert busy.average_jct > free.average_jct

    def test_scheduler_uses_less_under_load(self):
        free = self.run(None)
        busy = self.run(constant_load(0.6))
        assert busy.mean_running_tasks() < free.mean_running_tasks()

    def test_diurnal_varies_allocations(self):
        # High background during the jobs' life vs none: task counts react.
        result = self.run(step_load([(0.0, 0.7), (1800.0, 0.0)]))
        tasks = [slot.running_tasks for slot in result.timeline]
        assert result.all_finished
        # Early (loaded) slots run fewer tasks than the post-release peak.
        if len(tasks) > 4:
            assert max(tasks[3:]) >= max(tasks[:2])
