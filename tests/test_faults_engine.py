"""End-to-end fault injection through the simulation engine.

Covers the subsystem's acceptance bar: disabled faults leave results
bit-identical, seeded chaos runs are reproducible, crashed jobs restart
from a checkpoint no older than ``checkpoint_interval``, and scripted
plans kill exactly who they say they kill.
"""

import os

from repro.cluster import Cluster, cpu_mem
from repro.faults import (
    CheckpointLoss,
    FaultConfig,
    FaultPlan,
    NodeCrash,
    TaskCrash,
)
from repro.obs import (
    EVENT_JOB_RESTARTED,
    EVENT_NODE_FAILED,
    EVENT_NODE_RECOVERED,
    EVENT_TASK_CRASHED,
    MetricsRegistry,
    RecordingTracer,
)
from repro.schedulers import make_scheduler
from repro.sim import SimConfig, simulate
from repro.workloads import uniform_arrivals

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

CHAOS = FaultConfig(
    node_mtbf=15_000.0,
    node_downtime=(900.0, 2_400.0),
    task_crash_rate=0.002,
)


def workload(num_jobs=4):
    return uniform_arrivals(
        num_jobs=num_jobs,
        window=1200,
        seed=CHAOS_SEED + 1,
        models=["cnn-rand", "kaggle-ndsb", "dssm"],
    )


def cluster():
    return Cluster.homogeneous(6, cpu_mem(16, 64))


def run(config, tracer=None, metrics=None, fault_plan=None, num_jobs=4):
    return simulate(
        cluster(),
        make_scheduler("optimus"),
        workload(num_jobs),
        config,
        tracer=tracer,
        metrics=metrics,
        fault_plan=fault_plan,
    )


def fingerprint(result):
    """Everything deterministic about a run's outcome."""
    return sorted(
        (
            job_id,
            r.completion_time,
            r.total_steps,
            r.num_scalings,
            r.num_restarts,
            r.steps_lost,
        )
        for job_id, r in result.jobs.items()
    )


def trace_fingerprint(tracer):
    """Events minus wall-clock data (span durations)."""
    return [
        {k: v for k, v in event.items() if k != "duration"}
        for event in tracer.events
    ]


class TestDisabledFaultsAreInvisible:
    def test_default_config_matches_faultless_run(self):
        base = SimConfig(seed=CHAOS_SEED, estimator_mode="oracle")
        with_faults_field = SimConfig(
            seed=CHAOS_SEED,
            estimator_mode="oracle",
            faults=FaultConfig(),
            checkpoint_interval=None,
        )
        assert fingerprint(run(base)) == fingerprint(run(with_faults_field))

    def test_no_restart_fields_when_disabled(self):
        result = run(SimConfig(seed=CHAOS_SEED, estimator_mode="oracle"))
        for record in result.jobs.values():
            assert record.num_restarts == 0
            assert record.steps_lost == 0.0


class TestChaosDeterminism:
    def test_two_chaos_runs_identical(self):
        config = SimConfig(
            seed=CHAOS_SEED,
            estimator_mode="oracle",
            faults=CHAOS,
            checkpoint_interval=1_800.0,
        )
        tracer_a, tracer_b = RecordingTracer(), RecordingTracer()
        result_a = run(config, tracer=tracer_a)
        result_b = run(config, tracer=tracer_b)
        assert fingerprint(result_a) == fingerprint(result_b)
        assert trace_fingerprint(tracer_a) == trace_fingerprint(tracer_b)

    def test_chaos_run_emits_fault_events_and_finishes(self):
        config = SimConfig(
            seed=CHAOS_SEED,
            estimator_mode="oracle",
            faults=CHAOS,
            checkpoint_interval=1_800.0,
        )
        tracer = RecordingTracer()
        metrics = MetricsRegistry()
        result = run(config, tracer=tracer, metrics=metrics)
        assert result.all_finished
        assert tracer.of_type(EVENT_NODE_FAILED)
        assert tracer.of_type(EVENT_JOB_RESTARTED)
        counters = metrics.snapshot()["counters"]
        assert counters["faults.node_failures"] == len(
            tracer.of_type(EVENT_NODE_FAILED)
        )
        assert counters["faults.job_restarts"] == len(
            tracer.of_type(EVENT_JOB_RESTARTED)
        )
        # Failed nodes come back: downtime is bounded well below the run.
        assert tracer.of_type(EVENT_NODE_RECOVERED)

    def test_restart_totals_match_job_records(self):
        config = SimConfig(
            seed=CHAOS_SEED,
            estimator_mode="oracle",
            faults=CHAOS,
            checkpoint_interval=1_800.0,
        )
        tracer = RecordingTracer()
        result = run(config, tracer=tracer)
        assert sum(r.num_restarts for r in result.jobs.values()) == len(
            tracer.of_type(EVENT_JOB_RESTARTED)
        )


class TestCheckpointBound:
    def test_progress_lost_bounded_by_checkpoint_interval(self):
        interval = 1_800.0  # a multiple of the 600 s sim interval
        config = SimConfig(
            seed=CHAOS_SEED,
            estimator_mode="oracle",
            faults=CHAOS,
            checkpoint_interval=interval,
        )
        tracer = RecordingTracer()
        run(config, tracer=tracer)
        restarts = tracer.of_type(EVENT_JOB_RESTARTED)
        assert restarts
        for event in restarts:
            if not event["checkpoint_lost"]:
                assert event["since_checkpoint"] <= interval + 1e-9

    def test_none_interval_checkpoints_every_boundary(self):
        config = SimConfig(
            seed=CHAOS_SEED,
            estimator_mode="oracle",
            faults=CHAOS,
            checkpoint_interval=None,
        )
        tracer = RecordingTracer()
        result = run(config, tracer=tracer)
        for event in tracer.of_type(EVENT_JOB_RESTARTED):
            if not event["checkpoint_lost"]:
                assert event["since_checkpoint"] <= config.interval + 1e-9
        assert result.all_finished


class TestScriptedPlans:
    def test_scripted_node_crash_restarts_resident_jobs(self):
        # Crash every server at t=3000: whatever was running must restart.
        crash_time = 3_000.0
        plan = FaultPlan(
            node_crashes=tuple(
                NodeCrash(crash_time, f"node-{i}", 1_200.0) for i in range(6)
            )
        )
        tracer = RecordingTracer()
        result = run(
            SimConfig(seed=CHAOS_SEED, estimator_mode="oracle"),
            tracer=tracer,
            fault_plan=plan,
        )
        assert result.all_finished
        failed = tracer.of_type(EVENT_NODE_FAILED)
        assert {e["server"] for e in failed} == {f"node-{i}" for i in range(6)}
        restarts = tracer.of_type(EVENT_JOB_RESTARTED)
        assert restarts
        assert all(e["cause"] == "node_failure" for e in restarts)
        recovered = tracer.of_type(EVENT_NODE_RECOVERED)
        assert {e["server"] for e in recovered} == {
            f"node-{i}" for i in range(6)
        }

    def test_scripted_task_crash_restarts_exactly_that_job(self):
        # Find a job running at t=3000 in a clean run, then script one of
        # its tasks to die there.
        probe = RecordingTracer()
        clean = SimConfig(seed=CHAOS_SEED, estimator_mode="oracle")
        run(clean, tracer=probe)
        victims = [
            r
            for r in run(clean).jobs.values()
            if r.arrival_time < 2_400.0 and r.completion_time > 3_600.0
        ]
        assert victims, "workload needs a job spanning t=3000"
        victim = victims[0].job_id

        plan = FaultPlan(task_crashes=(TaskCrash(3_000.0, victim),))
        tracer = RecordingTracer()
        result = run(clean, tracer=tracer, fault_plan=plan)
        assert result.all_finished
        crashed = tracer.of_type(EVENT_TASK_CRASHED)
        assert [e["job_id"] for e in crashed] == [victim]
        restarts = tracer.of_type(EVENT_JOB_RESTARTED)
        assert [e["job_id"] for e in restarts] == [victim]
        assert restarts[0]["cause"] == "task_crash"
        assert result.jobs[victim].num_restarts == 1
        for job_id, record in result.jobs.items():
            if job_id != victim:
                assert record.num_restarts == 0

    def test_scripted_checkpoint_loss_falls_back_to_previous(self):
        probe = SimConfig(seed=CHAOS_SEED, estimator_mode="oracle")
        victims = [
            r
            for r in run(probe).jobs.values()
            if r.arrival_time < 2_400.0 and r.completion_time > 4_800.0
        ]
        assert victims
        victim = victims[0].job_id
        plan = FaultPlan(
            task_crashes=(TaskCrash(4_200.0, victim),),
            checkpoint_losses=(CheckpointLoss(4_200.0, victim),),
        )
        tracer = RecordingTracer()
        config = SimConfig(
            seed=CHAOS_SEED, estimator_mode="oracle", checkpoint_interval=600.0
        )
        result = run(config, tracer=tracer, fault_plan=plan)
        assert result.all_finished
        restarts = [
            e
            for e in tracer.of_type(EVENT_JOB_RESTARTED)
            if e["job_id"] == victim
        ]
        assert restarts and restarts[0]["checkpoint_lost"] is True
        # Fallback to the previous checkpoint: up to two intervals of
        # progress gone, not unbounded.
        assert restarts[0]["since_checkpoint"] <= 2 * 600.0 + 1e-9
