"""Tests for the Pollux-style goodput allocator."""

import dataclasses

import pytest

from repro.cluster import Cluster, cpu_mem
from repro.common.errors import FittingError
from repro.core.allocation import WeightedSpeed
from repro.obs import MetricsRegistry, use_registry
from repro.schedulers import JobView, make_scheduler
from repro.schedulers.base import MIN_STATISTICAL_EFFICIENCY
from repro.schedulers.goodput import goodput_allocation, goodput_speed
from repro.workloads import StepTimeModel, make_job


def view(job_id, model="seq2seq", mode="sync", remaining=50_000, arrival=0.0,
         requested=4, observations=100, loss_efficiency=1.0):
    spec = make_job(
        model,
        mode=mode,
        job_id=job_id,
        arrival_time=arrival,
        requested_workers=requested,
        requested_ps=requested,
    )
    truth = StepTimeModel(spec.profile, mode)
    return JobView(
        spec=spec,
        remaining_steps=remaining,
        speed=lambda p, w, t=truth: t.speed(p, w),
        observation_count=observations,
        loss_efficiency=loss_efficiency,
    )


CAPACITY = cpu_mem(200, 400)  # 40 tasks of the standard 5-CPU/10-GB shape


class TestStatisticalEfficiency:
    def test_sync_jobs_only_pay_loss_term(self):
        v = view("sync", mode="sync", loss_efficiency=0.6)
        assert v.statistical_efficiency(1) == 0.6
        assert v.statistical_efficiency(16) == 0.6

    def test_async_efficiency_decreases_with_workers(self):
        v = view("async", mode="async")
        effs = [v.statistical_efficiency(w) for w in (1, 2, 4, 8, 16)]
        assert effs[0] == 1.0
        assert all(a >= b for a, b in zip(effs, effs[1:]))

    def test_floor_applies(self):
        v = view("floored", mode="async", loss_efficiency=0.0)
        assert v.statistical_efficiency(100) == MIN_STATISTICAL_EFFICIENCY

    def test_goodput_never_exceeds_speed(self):
        v = view("j", mode="async")
        for n in (1, 2, 4, 8):
            assert v.goodput(n, n) <= v.speed(n, n) + 1e-12

    def test_goodput_zero_on_invalid_config(self):
        v = view("j")
        assert v.goodput(0, 4) == 0.0
        assert v.goodput(4, 0) == 0.0


class TestJobViewSpeedErrors:
    """``estimated_time`` and ``goodput`` treat only a degenerate fit as an
    unusable configuration; any other error is a bug and propagates."""

    def test_fitting_error_is_a_counted_fallback(self):
        def degenerate(p, w):
            raise FittingError("degenerate speed fit")

        v = dataclasses.replace(view("j"), speed=degenerate)
        metrics = MetricsRegistry()
        with use_registry(metrics):
            assert v.estimated_time(4, 2) == float("inf")
            assert v.goodput(2, 4) == 0.0
        assert metrics.counter("est.fallback.speed_eval").value == 2

    @pytest.mark.parametrize("method", ["estimated_time", "goodput"])
    def test_other_errors_propagate(self, method):
        def buggy(p, w):
            raise RuntimeError("not a fitting failure")

        v = dataclasses.replace(view("j"), speed=buggy)
        with pytest.raises(RuntimeError, match="not a fitting failure"):
            getattr(v, method)(2, 2)


class TestWeightedSpeed:
    def test_weight_is_the_staleness_discount(self):
        v = view("j", mode="async")

        def base(p, w):  # Eqn-3-shaped, standing in for a fitted model
            return w / (2.0 + 3.0 * w / p + 0.02 * w)

        weighted = WeightedSpeed(base, goodput_speed(v).weight)
        staleness = v.spec.profile.staleness_factor
        for p, w in [(1, 1), (2, 2), (3, 4), (4, 8)]:
            discount = max(1.0 / (1.0 + staleness * (w - 1)), MIN_STATISTICAL_EFFICIENCY)
            assert type(weighted(p, w)) is float
            assert weighted(p, w) == base(p, w) * discount

    def test_non_elementwise_base_raises_typeerror(self):
        # There is no batch path left to fall back from: a base that
        # rejects its arguments raises through WeightedSpeed and out of
        # the goodput allocator instead of being silently rescored.
        def array_only(p, w):
            raise TypeError("arrays only")

        v = dataclasses.replace(view("j", mode="async"), speed=array_only)
        assert isinstance(goodput_speed(v), WeightedSpeed)
        with pytest.raises(TypeError, match="arrays only"):
            goodput_speed(v)(1, 2)
        with pytest.raises(TypeError, match="arrays only"):
            goodput_allocation([v], CAPACITY)

    def test_weight_reduces_async_speed(self):
        v = view("j", mode="async")
        weighted = goodput_speed(v)
        assert weighted(4, 8) < v.speed(4, 8)

    def test_sync_full_efficiency_is_identity(self):
        v = view("j", mode="sync", loss_efficiency=1.0)
        weighted = goodput_speed(v)
        assert weighted(2, 4) == v.speed(2, 4)


class TestGoodputAllocation:
    def test_respects_capacity(self):
        views = [view(f"j{i}") for i in range(5)]
        allocations = goodput_allocation(views, CAPACITY)
        used = sum(a.total for a in allocations.values())
        assert used * 5 <= CAPACITY.get("cpu") + 1e-9
        assert used * 10 <= CAPACITY.get("memory") + 1e-9

    def test_every_active_job_gets_a_starter(self):
        views = [view(f"j{i}") for i in range(3)]
        allocations = goodput_allocation(views, CAPACITY)
        assert set(allocations) == {"j0", "j1", "j2"}
        assert all(a.workers >= 1 and a.ps >= 1 for a in allocations.values())

    def test_converged_jobs_yield_to_fresh_ones(self):
        fresh = view("fresh", loss_efficiency=1.0)
        converged = view("converged", loss_efficiency=0.06)
        allocations = goodput_allocation([converged, fresh], cpu_mem(60, 120))
        assert allocations["fresh"].total >= allocations["converged"].total

    def test_async_scaling_curbed_relative_to_sync(self):
        sync = view("sync", mode="sync")
        async_ = view("async", mode="async")
        allocations = goodput_allocation([sync, async_], cpu_mem(100, 200))
        assert allocations["sync"].total >= allocations["async"].total


class TestGoodputScheduler:
    def test_end_to_end_decision_validates(self):
        scheduler = make_scheduler("goodput")
        cluster = Cluster.homogeneous(4, cpu_mem(16, 64))
        decision = scheduler.schedule(cluster, [view("a"), view("b")])
        decision.validate()
        assert decision.scheduled_jobs
