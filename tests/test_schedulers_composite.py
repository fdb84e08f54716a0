"""Tests for the composite scheduler and the named presets."""

import re

import pytest

from repro.cluster import Cluster, cpu_mem
from repro.common.errors import FittingError, SchedulingError
from repro.obs import DecisionLedger, MetricsRegistry, use_ledger, use_registry
from repro.schedulers import (
    ALLOCATION_POLICIES,
    PLACEMENT_POLICIES,
    CompositeScheduler,
    JobView,
    make_scheduler,
)
from repro.workloads import StepTimeModel, make_job


def view(job_id, model="seq2seq", mode="sync", remaining=50_000):
    spec = make_job(model, mode=mode, job_id=job_id)
    truth = StepTimeModel(spec.profile, mode)
    return JobView(
        spec=spec,
        remaining_steps=remaining,
        speed=lambda p, w, t=truth: t.speed(p, w),
        observation_count=100,
    )


@pytest.fixture
def cluster():
    return Cluster.homogeneous(6, cpu_mem(16, 64))


class TestConstruction:
    def test_presets(self):
        for name in ("optimus", "drf", "tetris", "fifo"):
            assert make_scheduler(name).name == name

    def test_make_scheduler_presets(self):
        drf = make_scheduler("drf")
        assert isinstance(drf, CompositeScheduler)
        assert drf.allocation_policy is ALLOCATION_POLICIES["drf"]
        assert drf.placement_policy is PLACEMENT_POLICIES["spread"]

    @pytest.mark.parametrize("allocation", sorted(ALLOCATION_POLICIES))
    def test_allocation_kwargs_bound_at_construction(self, allocation):
        # A keyword the allocation half lacks fails here, naming the policy,
        # the keyword and what the policy does accept, not as a bare
        # TypeError in the middle of a run. Only optimus takes a keyword.
        accepted = ["priority_factor"] if allocation == "optimus" else []
        for keyword in ("priority_factor", "max_tasks_per_job", "duration_weight", "price_range"):
            if keyword in accepted:
                continue
            message = (
                f"allocation policy '{allocation}' takes no keyword {keyword}; "
                f"it accepts: {', '.join(accepted) or '(none)'}"
            )
            with pytest.raises(SchedulingError, match=re.escape(message)):
                make_scheduler(allocation, **{keyword: 0.9})
        kwargs = {keyword: 0.9 for keyword in accepted}
        assert make_scheduler(allocation, **kwargs).allocation_kwargs == kwargs
        # Every allocation takes the scheduler-level keywords.
        assert make_scheduler(allocation, rescale_threshold=1.0).rescale_threshold == 1.0

    def test_make_scheduler_hybrids(self):
        hybrid = make_scheduler("drf+optimus")
        assert isinstance(hybrid, CompositeScheduler)
        assert hybrid.name == "drf+optimus"

    def test_unknown_scheduler(self):
        with pytest.raises(SchedulingError):
            make_scheduler("borg")

    def test_unknown_policies(self):
        with pytest.raises(SchedulingError):
            CompositeScheduler("magic", "optimus")
        with pytest.raises(SchedulingError):
            CompositeScheduler("drf", "magic")


class TestScheduleContract:
    def test_empty_jobs(self, cluster):
        decision = make_scheduler("optimus").schedule(cluster, [])
        assert decision.allocations == {}
        assert decision.layouts == {}

    @pytest.mark.parametrize("name", ["optimus", "drf", "tetris", "fifo"])
    def test_decision_consistency(self, cluster, name):
        views = [view(f"j{i}") for i in range(3)]
        decision = make_scheduler(name).schedule(cluster, views)
        decision.validate()  # layout totals must match allocations
        assert set(decision.layouts) <= set(decision.allocations)

    @pytest.mark.parametrize("name", ["optimus", "drf", "tetris", "fifo"])
    def test_capacity_respected(self, cluster, name):
        views = [view(f"j{i}") for i in range(5)]
        decision = make_scheduler(name).schedule(cluster, views)
        for server in cluster:
            assert server.used.fits_within(server.capacity)

    def test_scheduled_jobs_property(self, cluster):
        views = [view("a"), view("b")]
        decision = make_scheduler("optimus").schedule(cluster, views)
        assert set(decision.scheduled_jobs) == set(decision.layouts)
        assert decision.total_tasks == sum(
            decision.allocations[j].total for j in decision.scheduled_jobs
        )


class TestShrinkRetry:
    def test_fragmented_allocation_shrinks_instead_of_pausing(self):
        """Aggregate-feasible but fragmentation-rejected jobs are shrunk."""
        # 3 servers x 3 slots = 9 placeable tasks, but aggregate capacity
        # suggests 9.6: optimus allocation may hand out 9+ tasks.
        cluster = Cluster.homogeneous(3, cpu_mem(16, 64))
        views = [view(f"j{i}", remaining=10**6) for i in range(2)]
        decision = make_scheduler("optimus").schedule(cluster, views)
        # Both jobs must still run (no starvation).
        assert set(decision.scheduled_jobs) == {"j0", "j1"}

    def test_one_placement_round_per_schedule(self):
        # 3 x 12 CPUs suggest 7 tasks of 5 CPUs, but only 6 fit: a job is
        # shrunk, and the shrink pass runs inside the one place_jobs call.
        cluster = Cluster.homogeneous(3, cpu_mem(12, 64))
        views = [view(f"j{i}", remaining=10**6) for i in range(2)]
        registry = MetricsRegistry()
        with use_registry(registry), use_ledger(DecisionLedger(metrics=registry)):
            make_scheduler("optimus").schedule(cluster, views)
        assert registry.counter("decision.shrinks").value >= 1
        assert registry.counter("placement.rounds").value == 1

    def test_truly_unplaceable_job_paused(self):
        cluster = Cluster.homogeneous(1, cpu_mem(8, 16))  # one task max... (5,10)
        views = [view("a"), view("b")]
        decision = make_scheduler("optimus").schedule(cluster, views)
        # Only one job can hold even a 1+1 starter? The 8-CPU server fits a
        # single 5-CPU task, so not even (1, 1) fits: nothing runs.
        assert decision.scheduled_jobs == ()


class TestValidateDecision:
    def test_mismatched_layout_rejected(self, cluster):
        from repro.core.allocation import TaskAllocation
        from repro.schedulers.base import SchedulingDecision

        decision = SchedulingDecision(
            allocations={"j": TaskAllocation(2, 1)},
            layouts={"j": {"node-0": (1, 1)}},
        )
        with pytest.raises(ValueError):
            decision.validate()

    def test_layout_without_allocation_rejected(self):
        from repro.schedulers.base import SchedulingDecision

        decision = SchedulingDecision(layouts={"j": {"node-0": (1, 1)}})
        with pytest.raises(ValueError):
            decision.validate()


class TestJobViewHelpers:
    def test_estimated_time(self):
        v = view("j", remaining=1000)
        t = v.estimated_time(4, 4)
        assert t == pytest.approx(1000 / v.speed(4, 4))

    def test_estimated_time_guards(self):
        v = view("j")
        assert v.estimated_time(0, 1) == float("inf")

        def broken(p, w):
            raise FittingError("degenerate speed fit")

        v_broken = JobView(spec=v.spec, remaining_steps=10, speed=broken)
        assert v_broken.estimated_time(1, 1) == float("inf")


class TestPolicyMatrix:
    """Every allocation x placement combination must produce a consistent,
    capacity-respecting decision -- the ablation hybrids of §6.4 all pass
    through this matrix."""

    ALLOCATIONS = ("optimus", "drf", "tetris", "fifo", "srtf")
    PLACEMENTS = ("optimus", "spread", "pack")

    @pytest.mark.parametrize("allocation", ALLOCATIONS)
    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_combination(self, cluster, allocation, placement):
        scheduler = CompositeScheduler(allocation, placement)
        views = [view(f"j{i}", model=m) for i, m in enumerate(
            ("seq2seq", "cnn-rand", "resnet-50"))]
        decision = scheduler.schedule(cluster, views)
        decision.validate()
        # Placement never exceeds per-server capacity.
        for server in cluster:
            assert server.used.fits_within(server.capacity)
        # Whatever ran must include at least one job on this roomy cluster.
        assert decision.scheduled_jobs


class TestPresetDigests:
    """Every preset and two §6.4 hybrids, pinned by their decision digest.

    A small seeded oracle run per name: any change to how a name maps to
    its allocation half, placement half or keyword defaults moves a digest.
    """

    DIGESTS = {
        "optimus": "88bba8f77638779ddc8d4bfa1c749f37b3521e5eefb82616b734390dcb03ddaa",
        "drf": "1096b4b58a5f493af7c52fc57423c025113336698aa4027d73f3ed3b3b204361",
        "tetris": "4f97569cb4cc83f9e42ee94ff82062f8e9813fb61e10d547aee0f189b0ef4fd5",
        "fifo": "eaa5b945b11f0435acc2f8a7e3c0bd3ec57c91a605935edf7e82fac0650f5900",
        "srtf": "ea0320b4d0151de0f1e61fcbaabd79cb4d2e734cb61912dea94e13c521def3b1",
        "goodput": "9ba728729de017e0eed89a9c46e6c78d0a82ed8335b4aed404648c86f2f915f7",
        "oasis": "d2a23c88f0b77df14874280aa2f3309084676402ebb419b47da29b82c81071b4",
        "drf+optimus": "65fb68528b33833c96c47f52e23877c4615a07b85f7bdd40277dc03f266b7f25",
        "optimus+spread": "355ba98c23cc37a5df8a27fbab601bfe013f787513b71015d213e8cfec4acbf5",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_decision_digest_pinned(self, name):
        from repro.sim import SimConfig, simulate
        from repro.workloads import uniform_arrivals

        result = simulate(
            Cluster.homogeneous(4, cpu_mem(16, 64)),
            make_scheduler(name),
            uniform_arrivals(
                num_jobs=4,
                window=1200,
                seed=5,
                mode="async",
                models=["cnn-rand", "dssm", "kaggle-ndsb"],
            ),
            SimConfig(seed=5, estimator_mode="oracle"),
        )
        assert result.decision_digest == self.DIGESTS[name]
