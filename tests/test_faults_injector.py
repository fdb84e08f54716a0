"""Tests for FaultConfig, FaultPlan and the seeded FaultInjector."""

import os

import pytest

from repro.common.errors import FaultInjectionError
from repro.common.rand import RandomSource
from repro.faults import (
    CheckpointLoss,
    FaultConfig,
    FaultInjector,
    FaultPlan,
    NodeCrash,
    TaskCrash,
)

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

SERVERS = [f"server-{i}" for i in range(8)]


def drive(injector, steps=200, interval=60.0, servers=SERVERS):
    """Run the outage state machine *steps* intervals; return the event log."""
    log = []
    for i in range(steps):
        faults = injector.begin_interval(i * interval, interval, servers)
        for outage in faults.failed:
            log.append(("fail", outage.server, outage.failed_at, outage.up_at))
        for name in faults.recovered:
            log.append(("recover", name, i * interval))
    return log


class TestFaultConfig:
    def test_default_injects_nothing(self):
        config = FaultConfig()
        assert not config.engine_enabled
        assert config.failure_probability(60.0) == 0.0

    def test_validation(self):
        with pytest.raises(FaultInjectionError):
            FaultConfig(node_mtbf=-1.0)
        with pytest.raises(FaultInjectionError):
            FaultConfig(node_downtime=(100.0, 50.0))
        with pytest.raises(FaultInjectionError):
            FaultConfig(task_crash_rate=1.5)
        with pytest.raises(FaultInjectionError):
            FaultConfig(checkpoint_loss_rate=-0.1)
        with pytest.raises(FaultInjectionError):
            FaultConfig(max_node_failures=-1)

    def test_failure_probability_model(self):
        config = FaultConfig(node_mtbf=1000.0)
        p_short = config.failure_probability(10.0)
        p_long = config.failure_probability(1000.0)
        assert 0 < p_short < p_long < 1
        assert p_long == pytest.approx(1 - 2.718281828 ** -1, rel=1e-6)


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(node_crashes=(NodeCrash(10.0, "s0", 60.0),))

    def test_events_sorted_and_window_queries(self):
        plan = FaultPlan(
            node_crashes=(
                NodeCrash(300.0, "s1", 60.0),
                NodeCrash(100.0, "s0", 60.0),
            ),
            task_crashes=(TaskCrash(50.0, "job-b"), TaskCrash(50.0, "job-a")),
            checkpoint_losses=(CheckpointLoss(200.0, "job-a"),),
        )
        assert [c.time for c in plan.node_crashes] == [100.0, 300.0]
        assert [c.job_id for c in plan.task_crashes] == ["job-a", "job-b"]
        # Window is half-open: [start, end).
        assert len(plan.node_crashes_in(0.0, 100.0)) == 0
        assert len(plan.node_crashes_in(100.0, 101.0)) == 1
        assert len(plan.task_crashes_in(0.0, 60.0)) == 2
        assert len(plan.checkpoint_losses_in(200.0, 260.0)) == 1

    def test_event_validation(self):
        with pytest.raises(FaultInjectionError):
            NodeCrash(-1.0, "s0", 60.0)
        with pytest.raises(FaultInjectionError):
            NodeCrash(0.0, "s0", 0.0)
        with pytest.raises(FaultInjectionError):
            NodeCrash(0.0, "", 60.0)
        with pytest.raises(FaultInjectionError):
            TaskCrash(5.0, "")
        with pytest.raises(FaultInjectionError):
            CheckpointLoss(-5.0, "job-a")


class TestFaultInjector:
    def test_falsy_when_nothing_configured(self):
        assert not FaultInjector()
        assert FaultInjector(FaultConfig(node_mtbf=1000.0))
        assert FaultInjector(plan=FaultPlan(task_crashes=(TaskCrash(1.0, "j"),)))

    def test_same_seed_same_faults(self):
        config = FaultConfig(node_mtbf=5_000.0, node_downtime=(300.0, 900.0))
        log_a = drive(FaultInjector(config, RandomSource(CHAOS_SEED)))
        log_b = drive(FaultInjector(config, RandomSource(CHAOS_SEED)))
        assert log_a == log_b
        assert any(kind == "fail" for kind, *_ in log_a)

    def test_different_seeds_diverge(self):
        config = FaultConfig(node_mtbf=5_000.0)
        log_a = drive(FaultInjector(config, RandomSource(CHAOS_SEED)))
        log_b = drive(FaultInjector(config, RandomSource(CHAOS_SEED + 1)))
        assert log_a != log_b

    def test_down_servers_recover_after_downtime(self):
        plan = FaultPlan(node_crashes=(NodeCrash(0.0, "server-0", 120.0),))
        injector = FaultInjector(plan=plan)
        first = injector.begin_interval(0.0, 60.0, SERVERS)
        assert [o.server for o in first.failed] == ["server-0"]
        assert injector.down_servers == ("server-0",)
        mid = injector.begin_interval(60.0, 60.0, SERVERS)
        assert mid.failed == () and mid.recovered == ()
        assert injector.down_servers == ("server-0",)
        back = injector.begin_interval(120.0, 60.0, SERVERS)
        assert back.recovered == ("server-0",)
        assert injector.down_servers == ()

    def test_down_server_cannot_fail_again(self):
        plan = FaultPlan(
            node_crashes=(
                NodeCrash(0.0, "server-0", 600.0),
                NodeCrash(60.0, "server-0", 600.0),
            )
        )
        injector = FaultInjector(plan=plan)
        injector.begin_interval(0.0, 60.0, SERVERS)
        again = injector.begin_interval(60.0, 60.0, SERVERS)
        assert again.failed == ()

    def test_unknown_server_in_plan_ignored(self):
        plan = FaultPlan(node_crashes=(NodeCrash(0.0, "no-such-server", 600.0),))
        injector = FaultInjector(plan=plan)
        faults = injector.begin_interval(0.0, 60.0, SERVERS)
        assert faults.failed == ()

    def test_max_node_failures_cap(self):
        config = FaultConfig(
            node_mtbf=10.0,  # essentially every server fails every interval
            node_downtime=(60.0, 60.0),
            max_node_failures=3,
        )
        injector = FaultInjector(config, RandomSource(CHAOS_SEED))
        log = drive(injector, steps=50)
        failures = [entry for entry in log if entry[0] == "fail"]
        assert len(failures) == 3

    def test_sample_task_crashes_planned_plus_drawn(self):
        plan = FaultPlan(
            task_crashes=(
                TaskCrash(10.0, "job-a"),
                TaskCrash(20.0, "job-a"),
                TaskCrash(10.0, "job-b"),
                TaskCrash(90.0, "job-a"),  # outside the window
            )
        )
        injector = FaultInjector(plan=plan)
        assert injector.sample_task_crashes("job-a", 4, 0.0, 60.0) == 2
        assert injector.sample_task_crashes("job-b", 4, 0.0, 60.0) == 1
        assert injector.sample_task_crashes("job-c", 4, 0.0, 60.0) == 0

    def test_task_crash_rate_statistics(self):
        injector = FaultInjector(
            FaultConfig(task_crash_rate=0.5), RandomSource(CHAOS_SEED)
        )
        total = sum(
            injector.sample_task_crashes("job", 10, i * 60.0, 60.0)
            for i in range(100)
        )
        assert 300 < total < 700  # binomial(1000, 0.5) comfortably within

    def test_checkpoint_loss_scripted_consume_once(self):
        plan = FaultPlan(checkpoint_losses=(CheckpointLoss(0.0, "job-a"),))
        injector = FaultInjector(plan=plan)
        injector.begin_interval(0.0, 60.0, SERVERS)
        assert injector.checkpoint_lost("job-a") is True
        assert injector.checkpoint_lost("job-a") is False  # consumed
        assert injector.checkpoint_lost("job-b") is False

    def test_fresh_checkpoint_clears_scripted_corruption(self):
        plan = FaultPlan(checkpoint_losses=(CheckpointLoss(0.0, "job-a"),))
        injector = FaultInjector(plan=plan)
        injector.begin_interval(0.0, 60.0, SERVERS)
        injector.note_checkpoint("job-a")
        assert injector.checkpoint_lost("job-a") is False
