"""Tests for the OASiS-style online primal-dual allocator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, cpu_mem
from repro.cluster.resources import ResourceVector
from repro.schedulers import JobView, make_scheduler
from repro.schedulers.oasis import _bundle_ladder, oasis_allocation
from repro.workloads import StepTimeModel, make_job

MODELS = ("cnn-rand", "dssm", "seq2seq")


def view(job_id, model="seq2seq", mode="sync", remaining=50_000, arrival=0.0,
         requested=4, loss_efficiency=1.0):
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
        observation_count=100,
        loss_efficiency=loss_efficiency,
    )


def used_resources(views, allocations):
    demands = {
        v.job_id: v.spec.worker_demand + v.spec.ps_demand for v in views
    }
    used = ResourceVector()
    for job_id, alloc in allocations.items():
        assert alloc.workers == alloc.ps  # 1:1 bundles
        used = used + demands[job_id] * alloc.workers
    return used


class TestBundleLadder:
    def test_doubling_plus_request_and_cap(self):
        assert _bundle_ladder(10, 6) == [1, 2, 4, 6, 8, 10]

    def test_out_of_range_request_ignored(self):
        assert _bundle_ladder(8, 0) == [1, 2, 4, 8]
        assert _bundle_ladder(8, 99) == [1, 2, 4, 8]


class TestOasisAllocation:
    def test_empty_jobs(self):
        assert oasis_allocation([], cpu_mem(100, 200)) == {}

    def test_deterministic(self):
        views = [view(f"j{i}", arrival=float(i)) for i in range(4)]
        capacity = cpu_mem(120, 240)
        assert oasis_allocation(views, capacity) == oasis_allocation(views, capacity)

    def test_earlier_arrivals_win_under_pressure(self):
        early = view("early", arrival=0.0)
        late = view("late", arrival=100.0)
        # Room for only one small bundle set.
        allocations = oasis_allocation([late, early], cpu_mem(12, 24))
        assert "early" in allocations

    def test_zero_capacity_allocates_nothing(self):
        assert oasis_allocation([view("a")], ResourceVector()) == {}

    @settings(max_examples=50, deadline=None)
    @given(
        num_jobs=st.integers(min_value=1, max_value=6),
        cpu=st.integers(min_value=5, max_value=400),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_never_exceeds_capacity(self, num_jobs, cpu, seed):
        """The admission invariant: grants always fit inside capacity."""
        views = [
            view(
                f"j{i}",
                model=MODELS[(seed + i) % len(MODELS)],
                mode="async" if (seed + i) % 2 else "sync",
                remaining=1_000.0 * (1 + (seed * 7 + i) % 90),
                arrival=float((seed * 13 + i * 5) % 1_000),
                requested=1 + (seed + 3 * i) % 12,
            )
            for i in range(num_jobs)
        ]
        capacity = cpu_mem(cpu, 2 * cpu)
        allocations = oasis_allocation(views, capacity)
        used = used_resources(views, allocations)
        assert used.fits_within(capacity)
        assert all(a.workers >= 1 for a in allocations.values())

    def test_rising_prices_defer_late_jobs(self):
        # Plenty of jobs against a modest cluster: not everyone is admitted
        # in one round, and whoever is admitted arrived no later than the
        # best deferred job.
        views = [view(f"j{i}", arrival=float(i), requested=8) for i in range(8)]
        allocations = oasis_allocation(views, cpu_mem(100, 200))
        assert 0 < len(allocations) < len(views)


class TestOasisScheduler:
    def test_end_to_end_decision_validates(self):
        scheduler = make_scheduler("oasis")
        cluster = Cluster.homogeneous(4, cpu_mem(16, 64))
        decision = scheduler.schedule(cluster, [view("a"), view("b")])
        decision.validate()
        assert decision.scheduled_jobs
