"""Tests for the allocation and placement policies."""

import pytest

from repro.cluster import Cluster, cpu_mem
from repro.core.allocation import MAX_TASKS_PER_JOB, TaskAllocation
from repro.core.placement import PlacementRequest
from repro.schedulers import JobView
from repro.schedulers.policies import (
    drf_allocation,
    fifo_allocation,
    optimus_allocation,
    pack_placement,
    spread_placement,
    srtf_allocation,
    tetris_allocation,
)
from repro.workloads import StepTimeModel, make_job


def view(job_id, model="seq2seq", mode="sync", remaining=50_000, arrival=0.0,
         requested=4, observations=100):
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
    )


CAPACITY = cpu_mem(200, 400)  # 40 tasks of the standard shape


class TestOptimusAllocation:
    def test_fills_capacity_or_gains(self):
        allocations = optimus_allocation([view("a"), view("b")], CAPACITY)
        total = sum(a.total for a in allocations.values())
        assert total > 4  # grew beyond the starters

    def test_priority_factor_applies_to_young_jobs(self):
        young = view("young", remaining=100_000, observations=0)
        old = view("old", remaining=100_000, observations=500)
        allocations = optimus_allocation(
            [young, old], cpu_mem(60, 120), priority_factor=0.5
        )
        assert allocations["old"].total >= allocations["young"].total


class TestDRFAllocation:
    def test_equalises_across_identical_jobs(self):
        views = [view(f"j{i}") for i in range(4)]
        allocations = drf_allocation(views, CAPACITY)
        totals = sorted(a.total for a in allocations.values())
        assert totals[-1] - totals[0] <= 2  # within one bundle

    def test_work_conserving(self):
        allocations = drf_allocation([view("only")], CAPACITY)
        # One job alone keeps receiving bundles until capacity runs out.
        assert allocations["only"].total == 40

    def test_one_to_one_ratio(self):
        allocations = drf_allocation([view("a"), view("b")], CAPACITY)
        for alloc in allocations.values():
            assert alloc.workers == alloc.ps

    def test_respects_cap(self):
        # Room for ten bundles beyond the cap: the cap, not capacity, stops it.
        roomy = cpu_mem(10 * (MAX_TASKS_PER_JOB + 10), 20 * (MAX_TASKS_PER_JOB + 10))
        allocations = drf_allocation([view("a")], roomy)
        assert allocations["a"] == TaskAllocation(MAX_TASKS_PER_JOB, MAX_TASKS_PER_JOB)


class TestTetrisAllocation:
    def test_grants_static_requests(self):
        allocations = tetris_allocation([view("a", requested=6)], CAPACITY)
        assert allocations["a"] == TaskAllocation(6, 6)

    def test_jobs_that_do_not_fit_wait(self):
        views = [view(f"j{i}", requested=8) for i in range(4)]  # 16 tasks each
        allocations = tetris_allocation(views, CAPACITY)
        assert 0 < len(allocations) < 4

    def test_short_jobs_preferred(self):
        short = view("short", remaining=1_000, requested=8)
        long = view("long", remaining=10_000_000, requested=8)
        # Capacity for only one 16-task job.
        allocations = tetris_allocation([long, short], cpu_mem(80, 160))
        assert "short" in allocations and "long" not in allocations


class TestFIFOAllocation:
    def test_arrival_order(self):
        first = view("first", arrival=0.0, requested=8)
        second = view("second", arrival=10.0, requested=8)
        third = view("third", arrival=20.0, requested=8)
        # Capacity for two 16-task jobs only.
        allocations = fifo_allocation([third, first, second], cpu_mem(160, 320))
        assert set(allocations) == {"first", "second"}

    def test_exact_requests(self):
        allocations = fifo_allocation([view("a", requested=5)], CAPACITY)
        assert allocations["a"] == TaskAllocation(5, 5)


class TestPlacementPolicies:
    @pytest.fixture
    def cluster(self):
        return Cluster.homogeneous(4, cpu_mem(16, 64))

    def request(self, job_id, workers, ps):
        return PlacementRequest(
            job_id=job_id,
            workers=workers,
            ps=ps,
            worker_demand=cpu_mem(5, 10),
            ps_demand=cpu_mem(5, 10),
        )

    def test_spread_uses_many_servers(self, cluster):
        result = spread_placement(cluster, [self.request("j", 2, 2)])
        assert len(result.layouts["j"]) == 4  # one task per server

    def test_pack_uses_few_servers(self, cluster):
        result = pack_placement(cluster, [self.request("j", 2, 2)])
        assert len(result.layouts["j"]) <= 2

    def test_both_respect_capacity(self, cluster):
        for policy in (spread_placement, pack_placement):
            fresh = cluster.snapshot()
            result = policy(fresh, [self.request("j", 6, 6)])
            assert result.layouts  # 12 tasks fit on 4 x 3-slot servers
            for server in fresh:
                assert server.used.fits_within(server.capacity)

    def test_unplaceable_rolls_back(self, cluster):
        # Every attempt places workers, then finds no server for a 20-CPU
        # PS and takes the workers back.
        request = PlacementRequest("big", 8, 8, cpu_mem(5, 10), cpu_mem(20, 10))
        result = spread_placement(cluster, [request])
        assert result.unplaced == ("big",)
        assert cluster.placed_task_count() == 0

    def test_oversized_job_is_shrunk(self, cluster):
        for policy in (spread_placement, pack_placement):
            fresh = cluster.snapshot()
            result = policy(fresh, [self.request("big", 8, 8)])
            assert result.retried == ("big",)
            assert fresh.placed_task_count("big") == 8  # halved to (4, 4)

    def test_layout_totals_match(self, cluster):
        result = pack_placement(cluster, [self.request("j", 5, 3)])
        layout = result.layouts["j"]
        assert sum(nw for nw, _ in layout.values()) == 5
        assert sum(np_ for _, np_ in layout.values()) == 3

    def test_sequential_jobs_share_cluster(self, cluster):
        requests = [self.request("a", 3, 3), self.request("b", 3, 3)]
        result = pack_placement(cluster, requests)
        assert set(result.layouts) == {"a", "b"}
        assert cluster.placed_task_count() == 12


class TestSRTFAllocation:
    def test_shortest_job_served_first_and_fully(self):
        short = view("short", remaining=1_000)
        long = view("long", remaining=10_000_000)
        allocations = srtf_allocation([long, short], cpu_mem(60, 120))
        # The short job is allocated before the long one sees the cluster;
        # the long job only gets leftovers (possibly nothing at all).
        assert "short" in allocations
        long_total = allocations["long"].total if "long" in allocations else 0
        assert allocations["short"].total >= long_total

    def test_jobs_that_do_not_fit_wait(self):
        views = [view(f"j{i}") for i in range(8)]
        allocations = srtf_allocation(views, cpu_mem(20, 40))
        # Two starter pairs fit at most.
        assert 1 <= len(allocations) <= 2

    def test_consumes_leftover_capacity_in_order(self):
        views = [view(f"j{i}", remaining=1000 * (i + 1)) for i in range(3)]
        allocations = srtf_allocation(views, CAPACITY)
        used = sum(a.total for a in allocations.values())
        assert used * 5 <= CAPACITY.get("cpu") + 1e-9

    def test_registered_in_policy_table(self):
        from repro.schedulers import ALLOCATION_POLICIES

        assert "srtf" in ALLOCATION_POLICIES
