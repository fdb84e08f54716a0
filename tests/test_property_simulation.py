"""Property-based invariants of the full simulation pipeline.

These use small, fast workloads so hypothesis can explore many random
configurations within a reasonable budget.
"""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cluster import Cluster, cpu_mem
from repro.core.allocation import TaskAllocation
from repro.obs import EVENT_ALLOCATION_DECIDED, EVENT_INTERVAL_TICK, RecordingTracer
from repro.schedulers import make_scheduler
from repro.sim import SimConfig, simulate
from repro.workloads import uniform_arrivals

FAST_MODELS = ["cnn-rand", "dssm", "kaggle-ndsb"]

SIM_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run(seed, scheduler, num_jobs=3, servers=4, tracer=None, **cfg):
    jobs = uniform_arrivals(
        num_jobs=num_jobs, window=900, seed=seed, models=FAST_MODELS
    )
    cluster = Cluster.homogeneous(servers, cpu_mem(16, 64))
    config = SimConfig(seed=seed, estimator_mode="oracle", **cfg)
    return simulate(cluster, make_scheduler(scheduler), jobs, config, tracer=tracer)


def run_with_rounds(seed, scheduler, **kwargs):
    """Run traced; returns the result and its per-interval allocations.

    Each round is ``{job_id: TaskAllocation}``, read back from that
    interval's ``allocation_decided`` events; ``interval_tick`` closes it.
    """
    tracer = RecordingTracer()
    result = run(seed, scheduler, tracer=tracer, **kwargs)
    rounds, current = [], {}
    for event in tracer.events:
        if event["event"] == EVENT_ALLOCATION_DECIDED:
            current[event["job_id"]] = TaskAllocation(event["workers"], event["ps"])
        elif event["event"] == EVENT_INTERVAL_TICK:
            rounds.append(current)
            current = {}
    return result, rounds


class TestSimulationInvariants:
    @SIM_SETTINGS
    @given(seed=st.integers(0, 10_000), scheduler=st.sampled_from(
        ["optimus", "drf", "tetris", "fifo"]))
    def test_lifecycle_invariants(self, seed, scheduler):
        result = run(seed, scheduler)
        for record in result.jobs.values():
            if record.finished:
                assert record.completion_time > record.arrival_time
                assert record.jct > 0
            assert record.scaling_time >= 0
            assert record.num_scalings >= 0
        if result.all_finished:
            assert math.isfinite(result.makespan)
            last = max(r.completion_time for r in result.jobs.values())
            first = min(r.arrival_time for r in result.jobs.values())
            assert result.makespan == pytest.approx(last - first)

    @SIM_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_decisions_respect_capacity_every_interval(self, seed):
        _, rounds = run_with_rounds(seed, "optimus", servers=3)
        capacity_cpu = 3 * 16
        for decision in rounds:
            used = sum(alloc.total * 5 for alloc in decision.values())
            assert used <= capacity_cpu + 1e-9
            for alloc in decision.values():
                assert alloc.workers >= 1 and alloc.ps >= 1

    @SIM_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_determinism(self, seed):
        a = run(seed, "optimus")
        b = run(seed, "optimus")
        assert a.average_jct == b.average_jct
        assert a.makespan == b.makespan
        assert a.decision_digest == b.decision_digest

    @SIM_SETTINGS
    @given(seed=st.integers(0, 5_000))
    def test_timeline_utilisations_bounded(self, seed):
        result = run(seed, "drf")
        for slot in result.timeline:
            assert 0.0 <= slot.worker_utilization <= 1.0
            assert 0.0 <= slot.ps_utilization <= 1.0
            assert slot.running_tasks >= 2 * slot.running_jobs or slot.running_jobs == 0

    @SIM_SETTINGS
    @given(seed=st.integers(0, 5_000), fraction=st.floats(0.0, 0.7))
    @example(seed=782, fraction=0.25)
    def test_background_load_never_speeds_things_up(self, seed, fraction):
        """Stated where its premise holds: §4.1 plans on ``(p, w)`` alone,
        so the ground truth must not depend on placement either. With
        placement-aware truth, a smaller cluster can steer the allocator
        away from a grant that placement then slows down (pinned in
        :meth:`test_placement_aware_load_inversion`)."""
        from repro.sim import constant_load

        free = run(seed, "optimus", placement_aware=False)
        loaded = run(
            seed,
            "optimus",
            placement_aware=False,
            background_load=constant_load(fraction),
        )
        if free.all_finished and loaded.all_finished:
            # The greedy marginal-gain allocator is not guaranteed to be
            # capacity-monotone, so keep a slack; only dramatic speedups
            # would indicate a bug. (Seed 1509 at fraction 0.375, a 5%
            # speedup with placement-aware truth, is 6% slower here.)
            assert loaded.average_jct >= free.average_jct * 0.85

    def test_placement_aware_load_inversion(self):
        """Seed 782 at fraction 0.25 with placement-aware truth: background
        load cuts the average JCT by more than the property's slack.

        On the free cluster §4.1 grants job-0000 ``(p, w) = (4, 4)`` for a
        planned 6.6 steps/s. The layout spans all four servers, where
        cross-server NIC sharing holds it to 2.6 steps/s, so the job misses
        its interval and is rescaled to ``(2, 2)``. The loaded cluster only
        has room for ``(1, 1)`` on one server, which finishes sooner."""
        from repro.sim import constant_load

        free, free_rounds = run_with_rounds(782, "optimus")
        loaded, loaded_rounds = run_with_rounds(
            782, "optimus", background_load=constant_load(0.25)
        )
        assert free.average_jct == pytest.approx(927.26, abs=0.01)
        assert loaded.average_jct == pytest.approx(728.42, abs=0.01)
        assert loaded.average_jct < free.average_jct * 0.85
        first = "job-0000-cnn-rand"
        assert [(d[first].ps, d[first].workers) for d in free_rounds if first in d] == [
            (4, 4),
            (2, 2),
        ]
        assert [(d[first].ps, d[first].workers) for d in loaded_rounds if first in d] == [
            (1, 1),
        ]
        # Without placement effects the (4, 4) grant finishes in its
        # interval and the load no longer helps.
        assert run(782, "optimus", placement_aware=False).jobs[first].num_scalings == 0

    @SIM_SETTINGS
    @given(seed=st.integers(0, 5_000))
    def test_scaling_counts_match_decision_changes(self, seed):
        result, rounds = run_with_rounds(seed, "optimus")
        # Every recorded rescaling corresponds to an observable allocation
        # change in the decision trail (the converse does not hold exactly:
        # jobs pay a start cost on first launch too).
        changes = 0
        previous = {}
        for decision in rounds:
            for job_id, alloc in decision.items():
                if job_id in previous and previous[job_id] != alloc:
                    changes += 1
            previous = dict(decision)
        total_scalings = sum(r.num_scalings for r in result.jobs.values())
        assert total_scalings >= changes
