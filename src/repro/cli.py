"""Command-line interface: ``optimus-repro`` / ``python -m repro``.

Subcommands:

* ``arena`` -- race scheduler policies head-to-head on one seeded trace.
* ``simulate`` -- run one full simulation and dump metrics (optionally JSON).
* ``scalability`` -- time a scheduling round at cluster scale (Fig 12).
* ``trace`` -- summarise a JSONL event trace written by ``--trace-out``.
* ``metrics-export`` -- render a metrics dump in Prometheus text format.
* ``top`` -- live (or ``--once``) cluster/job table from a trace file.
* ``models`` -- print the Table-1 model zoo with ground-truth dynamics.
* ``partition`` -- print the Table-3 style PAA-vs-MXNet comparison.
* ``speed`` -- print a model's speed surface over (p, w).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.cluster import Cluster, cpu_mem
from repro.common.errors import ConfigurationError
from repro.faults import CRASH_POINTS, RECONCILE_CRASH_POINTS
from repro.sim import SimConfig
from repro.sim.runtime import ESTIMATOR_MODES
from repro.workloads import (
    MODEL_ZOO,
    get_profile,
    google_trace_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.common.units import format_duration

    print(
        f"{'model':14s} {'params(M)':>9s} {'type':>4s} {'dataset':>22s} "
        f"{'examples':>10s} {'epochs@ref':>10s} {'1-GPU time':>11s}"
    )
    for name, profile in MODEL_ZOO.items():
        epochs = profile.loss.epochs_to_converge(0.002)
        gpu_time = profile.single_gpu_training_time()
        print(
            f"{name:14s} {profile.params_million:9.1f} "
            f"{profile.network_type:>4s} {profile.dataset:>22s} "
            f"{profile.dataset_examples:10d} {epochs:10d} "
            f"{format_duration(gpu_time):>11s}"
        )
    return 0


def _cmd_speed(args: argparse.Namespace) -> int:
    from repro.workloads import StepTimeModel

    profile = get_profile(args.model)
    model = StepTimeModel(profile, args.mode)
    print(f"{args.model} ({args.mode}) training speed in steps/s:")
    header = "     " + "".join(f"w={w:<7d}" for w in range(1, args.max_tasks + 1, 2))
    print(header)
    for p in range(1, args.max_tasks + 1, 2):
        row = f"p={p:<3d}" + "".join(
            f"{model.speed(p, w):<9.3f}" for w in range(1, args.max_tasks + 1, 2)
        )
        print(row)
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from repro.ps import blocks_from_sizes, mxnet_partition, paa_partition

    profile = get_profile(args.model)
    blocks = blocks_from_sizes(profile.parameter_blocks())
    mx = mxnet_partition(blocks, args.num_ps, seed=args.seed)
    pa = paa_partition(blocks, args.num_ps)
    print(
        f"{args.model}: {len(blocks)} blocks, "
        f"{profile.params_million:.1f}M parameters, {args.num_ps} parameter servers"
    )
    print(f"{'algorithm':>10s} {'size diff':>12s} {'req diff':>9s} {'total reqs':>11s}")
    for assignment in (mx, pa):
        print(
            f"{assignment.algorithm:>10s} "
            f"{assignment.size_difference / 1e6:10.2f} M "
            f"{assignment.request_difference:9d} "
            f"{assignment.total_requests:11d}"
        )
    return 0


def _build_workload(args: argparse.Namespace):
    if getattr(args, "trace", None):
        from repro.workloads import load_trace

        return load_trace(args.trace)
    if args.arrivals == "uniform":
        return uniform_arrivals(
            num_jobs=args.jobs, window=args.window, seed=args.seed
        )
    if args.arrivals == "poisson":
        return poisson_arrivals(duration=args.window, seed=args.seed)
    return google_trace_arrivals(
        num_jobs=args.jobs, duration=args.window, seed=args.seed
    )


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.workloads import jobs_to_json

    jobs = _build_workload(args)
    payload = jobs_to_json(jobs)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(payload)
        print(f"wrote {len(jobs)} jobs to {args.output}")
    else:
        print(payload)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.obs import JsonlTracer, MetricsRegistry
    from repro.report import bar_chart, format_table, result_to_json, sparkline
    from repro.schedulers import make_scheduler
    from repro.sim import StragglerConfig, simulate

    jobs = _build_workload(args)
    background = None
    if args.background != "none":
        from repro.sim import constant_load, diurnal_load

        if args.background == "constant":
            background = constant_load(args.background_fraction)
        else:
            background = diurnal_load(peak=args.background_fraction)
    from repro.faults import FaultConfig

    faults = FaultConfig(
        node_mtbf=args.faults_node_mtbf,
        node_downtime=(args.faults_node_downtime, args.faults_node_downtime)
        if args.faults_node_downtime > 0
        else FaultConfig().node_downtime,
        task_crash_rate=args.faults_task_crash_rate,
        checkpoint_loss_rate=args.faults_ckpt_loss_rate,
    )
    config = SimConfig(
        seed=args.seed,
        estimator_mode=args.estimator,
        partition_algorithm=args.partition,
        stragglers=StragglerConfig(rate=args.straggler_rate),
        background_load=background,
        faults=faults,
        checkpoint_interval=args.checkpoint_interval
        if args.checkpoint_interval > 0
        else None,
        ledger_mode=args.ledger,
        ledger_top_k=args.ledger_top_k,
    )
    cluster = Cluster.homogeneous(args.servers, cpu_mem(16, 80))

    tracer = JsonlTracer(args.trace_out) if args.trace_out else None
    registry = MetricsRegistry() if args.metrics_out else None
    try:
        result = simulate(
            cluster,
            make_scheduler(args.scheduler),
            jobs,
            config,
            tracer=tracer,
            metrics=registry,
        )
    finally:
        if tracer is not None:
            tracer.close()
    if args.trace_out:
        print(f"wrote trace to {args.trace_out}", file=sys.stderr)
        # Reproducibility manifest: everything a replay needs, pinned
        # next to the trace it belongs to.
        from repro.sim import manifest_path_for, run_manifest, write_manifest

        manifest = run_manifest(
            config=config,
            policy=result.scheduler_name,
            jobs=jobs,
        )
        manifest_path = write_manifest(manifest_path_for(args.trace_out), manifest)
        print(f"wrote manifest to {manifest_path}", file=sys.stderr)
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(registry.snapshot(), handle, indent=2, sort_keys=True)
        print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)

    if args.json:
        print(result_to_json(result))
        return 0

    summary = result.summary()
    rows = [
        ["scheduler", result.scheduler_name],
        ["jobs finished", f"{int(summary['finished'])}/{int(summary['jobs'])}"],
        ["average JCT (h)", summary["average_jct"] / 3600],
        ["makespan (h)", summary["makespan"] / 3600],
        ["mean running tasks", summary["mean_running_tasks"]],
        ["worker utilisation", summary["worker_utilization"]],
        ["ps utilisation", summary["ps_utilization"]],
        ["scaling overhead", summary["scaling_overhead_fraction"]],
    ]
    if faults.engine_enabled:
        restarts = sum(r.num_restarts for r in result.jobs.values())
        steps_lost = sum(r.steps_lost for r in result.jobs.values())
        rows.append(["job restarts (faults)", restarts])
        rows.append(["steps lost to crashes", steps_lost])
    print(format_table(["metric", "value"], rows))
    if result.phase_timings:
        print("\nper-phase wall-clock profile:")
        print(
            format_table(
                ["phase", "calls", "total (s)", "mean (ms)", "max (ms)"],
                [
                    [
                        phase,
                        int(stats["count"]),
                        stats["total"],
                        stats["mean"] * 1e3,
                        stats["max"] * 1e3,
                    ]
                    for phase, stats in result.phase_timings.items()
                ],
            )
        )
    tasks = [slot.running_tasks for slot in result.timeline]
    if tasks:
        print(f"\nrunning tasks over time: {sparkline(tasks)}")
    print("\nper-job completion times:")
    rows = [
        (record.job_id, record.jct / 3600)
        for record in sorted(result.jobs.values(), key=lambda r: r.arrival_time)
        if record.finished
    ]
    print(bar_chart(rows, width=30, unit="h"))
    return 0


def _cmd_drill(args: argparse.Namespace) -> int:
    """Run a crash-consistency drill against the deployment control plane.

    Deploys a few jobs through the real ControlLoop/APIServer/KVStore
    stack, then injects the requested disaster -- a controller death at a
    named crash point, and/or a node whose heartbeats stop -- recovers
    from the store alone, and checks the §5.5 invariants: convergence to
    the desired layouts, no orphaned pods, node capacity consistent with
    bound pods, and per-job progress loss bounded by one interval.
    """
    from repro.deploy import CrashDrillConfig, run_crash_drill
    from repro.report import format_table

    config = CrashDrillConfig(
        seed=args.seed,
        jobs=args.jobs,
        servers=args.servers,
        steps=args.steps,
        expire_node=args.expire_node,
        lease_ttl=args.lease_ttl,
        policy=args.scheduler,
        crash_point=args.crash_point,
    )
    outcome = run_crash_drill(config)
    for crash in outcome.crashes:
        print(f"[drill] {crash}", file=sys.stderr)
    if args.json:
        payload = {
            "summary": outcome.summary,
            "failures": outcome.failures,
            "checkpoints": outcome.checkpoints,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_table(["metric", "value"], list(outcome.summary.items())))
        for failure in outcome.failures:
            print(f"INVARIANT VIOLATED: {failure}")
    return 0 if outcome.ok else 1


def _cmd_failover(args: argparse.Namespace) -> int:
    """Run a controller-failover drill: kill the leader, audit the takeover.

    Runs a hot/standby controller pair over one KV store, kills the leader
    the scripted way (silently, deposed mid-step behind the write fence, or
    at a reconcile/election crash point), and audits the resulting trace
    with the election invariants: no dual leadership, monotone fencing
    epochs, takeover within 2x the lease TTL, no leaked pods / leases /
    intents. Exit 0 means every invariant held.
    """
    from repro.deploy import FailoverConfig, run_failover_drill

    config = FailoverConfig(
        seed=args.seed,
        jobs=args.jobs,
        servers=args.servers,
        lease_ttl=args.lease_ttl,
        policy=args.scheduler,
        crash_point=args.crash_point,
        kills=args.kills,
    )
    outcome = run_failover_drill(config, trace_out=args.trace_out)
    report = outcome.report or {}
    if args.report_out:
        with open(args.report_out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote report to {args.report_out}", file=sys.stderr)
    if args.trace_out:
        print(f"wrote trace to {args.trace_out}", file=sys.stderr)
        # Reproducibility manifest, same contract as simulate/soak: the
        # drill has no SimConfig, so the seed is pinned directly.
        from repro.sim import manifest_path_for, run_manifest, write_manifest

        manifest = run_manifest(
            engine="controlloop",
            policy=config.policy,
            seed=config.seed,
            extra={
                "drill": {
                    "jobs": config.jobs,
                    "servers": config.servers,
                    "lease_ttl": config.lease_ttl,
                    "crash_point": config.crash_point,
                    "kills": config.kills,
                }
            },
        )
        manifest_path = write_manifest(
            manifest_path_for(args.trace_out), manifest
        )
        print(f"wrote manifest to {manifest_path}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        latencies = outcome.takeover_latencies
        worst = max(latencies) if latencies else 0.0
        print(
            f"[failover] kills={len(latencies)} "
            f"takeover latency (steps): worst={worst:g} "
            f"all={[f'{lat:g}' for lat in latencies]}"
        )
        print(
            f"[failover] fenced writes={outcome.fenced_writes} "
            f"final epoch={outcome.final_epoch}"
        )
        for key, leaked in outcome.leaks().items():
            if leaked:
                print(f"[failover] LEAKED {key[len('leaked_'):]}: {leaked}")
        violations = outcome.checker.violations if outcome.checker else []
        for violation in violations:
            print(f"[failover] VIOLATION {violation}")
        print(f"failover: {'ok' if outcome.ok else 'FAILED'}")
    return 0 if outcome.ok else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    """Long-horizon soak runs and trace-stream invariant checking.

    Three modes: ``--scenario FILE`` runs a chaos scenario end to end and
    audits its stream; ``--check TRACE`` audits an existing JSONL trace;
    ``--self-test`` seeds violations into a known-good stream and asserts
    the checker catches them. Exit 0 means every invariant held.
    """
    from repro.report import format_table
    from repro.soak import CheckerConfig, check_trace_file, run_selftest

    modes = sum(1 for m in (args.scenario, args.check, args.self_test) if m)
    if modes != 1:
        print(
            "soak: exactly one of --scenario, --check or --self-test is required",
            file=sys.stderr,
        )
        return 2

    if args.self_test:
        verdict = run_selftest(
            seed=args.seed_override if args.seed_override is not None else 0
        )
        if args.report_out:
            with open(args.report_out, "w") as handle:
                json.dump(verdict, handle, indent=2, sort_keys=True)
                handle.write("\n")
        if args.json:
            print(json.dumps(verdict, indent=2, sort_keys=True))
        else:
            for case in verdict["cases"]:
                status = "ok" if case["detected"] else "MISSED"
                print(f"[self-test] {case['name']}: {status}")
            print(f"self-test: {'ok' if verdict['ok'] else 'FAILED'}")
        return 0 if verdict["ok"] else 1

    if args.check:
        config = CheckerConfig(
            recovery_slack=args.recovery_slack,
            require_accounting=args.require_accounting,
            strict_end=args.strict_end,
            failover_bound=args.failover_bound,
        )
        checker = check_trace_file(args.check, config)
        report = checker.report(extra={"trace": args.check})
        if args.report_out:
            with open(args.report_out, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote report to {args.report_out}", file=sys.stderr)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            stats = report["stats"]
            print(
                f"checked {stats['events']} events: "
                f"{stats['jobs_arrived']} jobs arrived, "
                f"{stats['jobs_completed']} completed, "
                f"{stats['node_failures']} node failures"
            )
            for violation in report["violations"]:
                print(f"INVARIANT VIOLATED [{violation['invariant']}]: {violation['message']}")
            print("invariants: " + ("ok" if report["ok"] else "FAIL"))
        return 0 if report["ok"] else 1

    from repro.sim import load_scenario, run_soak

    scenario = load_scenario(args.scenario)
    if args.seed_override is not None:
        import dataclasses as _dc

        scenario = _dc.replace(scenario, seed=args.seed_override)
    outcome = run_soak(
        scenario,
        trace_out=args.trace_out,
        report_out=args.report_out,
    )
    if args.trace_out:
        print(f"wrote trace to {args.trace_out}", file=sys.stderr)
        print(f"wrote manifest to {outcome.manifest_path}", file=sys.stderr)
    if outcome.report_path:
        print(f"wrote report to {outcome.report_path}", file=sys.stderr)
    if args.json:
        print(json.dumps(outcome.report, indent=2, sort_keys=True))
    else:
        sim = outcome.report["sim"]
        stats = outcome.report["stats"]
        rows = [
            ["scenario", scenario.name],
            ["seed", scenario.seed],
            ["policy", scenario.policy],
            ["jobs finished", f"{sim['finished']}/{sim['jobs']}"],
            ["makespan (h)", sim["makespan"] / 3600],
            ["events checked", stats["events"]],
            ["restarts", stats["restarts"]],
            ["node failures", stats["node_failures"]],
            ["invariants", "ok" if outcome.ok else "FAIL"],
        ]
        print(format_table(["metric", "value"], rows))
        for violation in outcome.violations:
            print(
                f"INVARIANT VIOLATED [{violation.invariant}]: {violation.message}"
            )
    return 0 if outcome.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    files = args.files
    if files and files[0] == "diff":
        # ``repro trace diff A B``: align two manifested runs of the same
        # workload and report the first divergent decision per job.
        if len(files) != 3:
            print("trace diff: expected exactly two trace files", file=sys.stderr)
            return 2
        return _trace_diff_files(files[1], files[2], max_jobs=args.diff_jobs)
    if len(files) != 1:
        print(
            "trace: expected one trace file (or: trace diff A B)",
            file=sys.stderr,
        )
        return 2
    from repro.obs import summarize_file

    limit = args.max_events_per_job if args.max_events_per_job > 0 else None
    print(summarize_file(files[0], max_events_per_job=limit))
    return 0


def _trace_diff_files(path_a: str, path_b: str, max_jobs: int = 0) -> int:
    import os

    from repro.obs import read_trace_tolerant
    from repro.obs.explain import format_trace_diff, trace_diff

    events_a, skipped_a = read_trace_tolerant(path_a)
    events_b, skipped_b = read_trace_tolerant(path_b)
    diff = trace_diff(
        events_a,
        events_b,
        label_a=os.path.basename(path_a),
        label_b=os.path.basename(path_b),
    )
    print(format_trace_diff(diff, max_jobs=max_jobs if max_jobs > 0 else None))
    skipped = skipped_a + skipped_b
    if skipped:
        print(f"(skipped {skipped} corrupt line(s))", file=sys.stderr)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Replay the decision ledger into one job's grant/denial timeline."""
    from repro.obs import read_trace_tolerant
    from repro.obs.explain import explain_trace

    events, skipped = read_trace_tolerant(args.file)
    print(explain_trace(events, args.job, at=args.at))
    if skipped:
        print(f"(skipped {skipped} corrupt line(s))", file=sys.stderr)
    return 0


def _cmd_metrics_export(args: argparse.Namespace) -> int:
    """Render a ``--metrics-out`` JSON dump in Prometheus text format."""
    from repro.obs import render_prometheus

    with open(args.file) as handle:
        snapshot = json.load(handle)
    text = render_prometheus(snapshot, namespace=args.namespace)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Cluster/job table from a trace: once, or refreshing while it grows."""
    from repro.obs import read_trace_tolerant, render_top

    metrics_snapshot = None
    if args.metrics:
        with open(args.metrics) as handle:
            metrics_snapshot = json.load(handle)

    def render() -> str:
        events, skipped = read_trace_tolerant(args.file)
        screen = render_top(
            events,
            metrics_snapshot=metrics_snapshot,
            max_jobs=args.jobs if args.jobs > 0 else None,
        )
        if skipped:
            screen += f"\n(skipped {skipped} corrupt line(s))"
        return screen

    if args.once:
        print(render())
        return 0
    try:
        while True:
            # ANSI clear + home, like watch(1); the trace file is re-read
            # every cycle so a still-running simulation streams in live.
            sys.stdout.write("\x1b[2J\x1b[H" + render() + "\n")
            sys.stdout.flush()
            time.sleep(max(args.refresh, 0.1))
    except KeyboardInterrupt:
        return 0


def _cmd_scalability(args: argparse.Namespace) -> int:
    from repro.report import format_table
    from repro.sim.experiment import fig12_round

    rows = []
    for nodes, jobs in zip(args.nodes, args.job_counts):
        elapsed, tasks, placed = fig12_round(nodes, jobs)
        rows.append([nodes, jobs, tasks, placed, elapsed])
    print(format_table(["nodes", "jobs", "tasks", "placed", "seconds"], rows))
    return 0


def _cmd_arena(args: argparse.Namespace) -> int:
    from repro.common.errors import ReproError
    from repro.sim import format_arena, run_arena

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    jobs = _build_workload(args)

    def cluster_factory() -> Cluster:
        return Cluster.homogeneous(args.servers, cpu_mem(16, 80))

    config = SimConfig(seed=args.seed, estimator_mode=args.estimator)
    try:
        report = run_arena(
            policies,
            cluster_factory,
            jobs,
            config=config,
            baseline=args.baseline,
            trace_prefix=args.trace_out,
        )
    except ReproError as exc:
        # Unknown policy names / bad baselines are usage errors, not
        # tracebacks: make_scheduler's message already lists alternatives.
        print(f"arena: {exc}", file=sys.stderr)
        return 2
    if args.trace_out:
        print(
            f"wrote per-policy traces + manifests to {args.trace_out}.<policy>"
            ".jsonl",
            file=sys.stderr,
        )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote report to {args.output}", file=sys.stderr)
    if args.gate_output:
        with open(args.gate_output, "w") as handle:
            json.dump(report.gate_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote gate metrics to {args.gate_output}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_arena(report))
    return 0


def _add_drill_parser(sub, name, help, crash_points, crash_help, lease_help):
    """A control-plane drill subcommand with the fleet flags both drills share."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--scheduler", default="optimus")
    parser.add_argument("--jobs", type=int, default=3)
    parser.add_argument("--servers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--crash-point", choices=crash_points, default=None, help=crash_help)
    parser.add_argument("--lease-ttl", type=float, default=2.0, help=lease_help)
    parser.add_argument("--json", action="store_true")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optimus-repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    models = sub.add_parser("models", help="print the Table-1 model zoo")
    models.set_defaults(func=_cmd_models)

    speed = sub.add_parser("speed", help="print a model's speed surface")
    speed.add_argument("model", choices=sorted(MODEL_ZOO))
    speed.add_argument("--mode", choices=("sync", "async"), default="sync")
    speed.add_argument("--max-tasks", type=int, default=15)
    speed.set_defaults(func=_cmd_speed)

    partition = sub.add_parser(
        "partition", help="compare PAA vs MXNet parameter assignment"
    )
    partition.add_argument("model", choices=sorted(MODEL_ZOO))
    partition.add_argument("--num-ps", type=int, default=10)
    partition.add_argument("--seed", type=int, default=0)
    partition.set_defaults(func=_cmd_partition)

    workload = sub.add_parser(
        "workload", help="generate a workload trace (JSON) for later replay"
    )
    workload.add_argument("--jobs", type=int, default=9)
    workload.add_argument("--window", type=float, default=12_000.0)
    workload.add_argument(
        "--arrivals", choices=("uniform", "poisson", "google"), default="uniform"
    )
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument("--output", help="file to write (stdout if omitted)")
    workload.set_defaults(func=_cmd_workload, trace=None)

    simulate_cmd = sub.add_parser("simulate", help="run one full simulation")
    simulate_cmd.add_argument(
        "--trace", help="replay a workload trace file instead of generating one"
    )
    simulate_cmd.add_argument(
        "--scheduler",
        default="optimus",
        help="preset name or '<alloc>+<place>' hybrid",
    )
    simulate_cmd.add_argument("--jobs", type=int, default=9)
    simulate_cmd.add_argument("--servers", type=int, default=13)
    simulate_cmd.add_argument("--window", type=float, default=12_000.0)
    simulate_cmd.add_argument(
        "--arrivals", choices=("uniform", "poisson", "google"), default="uniform"
    )
    simulate_cmd.add_argument("--seed", type=int, default=0)
    simulate_cmd.add_argument(
        "--estimator", choices=ESTIMATOR_MODES, default="online"
    )
    simulate_cmd.add_argument(
        "--partition", choices=("paa", "mxnet"), default="paa"
    )
    simulate_cmd.add_argument("--straggler-rate", type=float, default=0.0)
    simulate_cmd.add_argument(
        "--faults-node-mtbf",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="mean time between node failures (0 = no node crashes)",
    )
    simulate_cmd.add_argument(
        "--faults-node-downtime",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="fixed downtime per node crash (0 = the default 600-1800s range)",
    )
    simulate_cmd.add_argument(
        "--faults-task-crash-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="per-task per-interval crash probability",
    )
    simulate_cmd.add_argument(
        "--faults-ckpt-loss-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="probability a restart finds its latest checkpoint corrupted",
    )
    simulate_cmd.add_argument(
        "--checkpoint-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="seconds between progress checkpoints, bounding progress lost "
        "to a crash (0 = checkpoint every scheduling interval)",
    )
    simulate_cmd.add_argument(
        "--background", choices=("none", "constant", "diurnal"), default="none"
    )
    simulate_cmd.add_argument("--background-fraction", type=float, default=0.5)
    simulate_cmd.add_argument(
        "--json", action="store_true", help="dump the full result as JSON"
    )
    simulate_cmd.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a JSONL event trace (repro.obs) to FILE",
    )
    simulate_cmd.add_argument(
        "--ledger",
        choices=("auto", "off", "full", "sampled"),
        default="auto",
        help="decision-ledger fidelity (repro.obs.ledger): auto follows "
        "--trace-out, full records every grant/denial, sampled keeps the "
        "top-K grants per round plus aggregate counters",
    )
    simulate_cmd.add_argument(
        "--ledger-top-k",
        type=int,
        default=8,
        help="grants kept per allocation round in sampled mode (default: 8)",
    )
    simulate_cmd.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write a JSON metrics-registry dump (repro.obs) to FILE",
    )
    simulate_cmd.set_defaults(func=_cmd_simulate)

    soak = sub.add_parser(
        "soak",
        help="long-horizon chaos scenarios + trace-stream invariant checking",
    )
    soak.add_argument(
        "--scenario", metavar="FILE", help="run a JSON soak scenario end to end"
    )
    soak.add_argument(
        "--check",
        metavar="TRACE",
        help="audit an existing JSONL trace instead of running a scenario",
    )
    soak.add_argument(
        "--self-test",
        action="store_true",
        help="seed violations into a known-good stream and assert detection",
    )
    soak.add_argument(
        "--trace-out",
        metavar="FILE",
        help="stream the scenario's JSONL trace to FILE (manifest lands "
        "next to it)",
    )
    soak.add_argument(
        "--report-out",
        metavar="FILE",
        help="write the machine-readable violation report to FILE",
    )
    soak.add_argument(
        "--seed",
        dest="seed_override",
        type=int,
        default=None,
        help="override the scenario's seed (--scenario mode)",
    )
    soak.add_argument(
        "--recovery-slack",
        type=float,
        default=1800.0,
        help="--check mode: seconds past a node's announced up_at before "
        "its outage counts as overdue (default: 1800)",
    )
    soak.add_argument(
        "--require-accounting",
        action="store_true",
        help="--check mode: fail traces missing the run_completed event",
    )
    soak.add_argument(
        "--strict-end",
        action="store_true",
        help="--check mode: treat unexplained unfinished jobs and overdue "
        "outages at end of stream as violations",
    )
    soak.add_argument(
        "--failover-bound",
        type=float,
        default=None,
        help="--check mode: flag leadership vacancies lasting longer than "
        "this many clock units (sensible value: 2x the election lease TTL)",
    )
    soak.add_argument("--json", action="store_true")
    soak.set_defaults(func=_cmd_soak)

    trace_cmd = sub.add_parser(
        "trace",
        help="summarise a JSONL trace, or 'trace diff A B' to align two runs",
    )
    trace_cmd.add_argument(
        "files",
        nargs="+",
        metavar="FILE",
        help="one .jsonl trace to summarise, or: diff TRACE_A TRACE_B",
    )
    trace_cmd.add_argument(
        "--max-events-per-job",
        type=int,
        default=8,
        help="truncate each job's timeline (0 = no limit)",
    )
    trace_cmd.add_argument(
        "--diff-jobs",
        type=int,
        default=0,
        help="diff mode: show at most this many divergent jobs (0 = all)",
    )
    trace_cmd.set_defaults(func=_cmd_trace)

    explain = sub.add_parser(
        "explain",
        help="replay the decision ledger: why one job got its allocation",
    )
    explain.add_argument("file", help="path to the .jsonl trace")
    explain.add_argument(
        "--job", required=True, help="job id to explain (e.g. job-0003-vgg-16)"
    )
    explain.add_argument(
        "--at",
        type=float,
        default=None,
        metavar="T",
        help="truncate the replay to events at or before sim time T",
    )
    explain.set_defaults(func=_cmd_explain)

    metrics_export = sub.add_parser(
        "metrics-export",
        help="render a --metrics-out JSON dump in Prometheus text format",
    )
    metrics_export.add_argument("file", help="path to the metrics JSON dump")
    metrics_export.add_argument(
        "--namespace",
        default="repro",
        help="metric-name prefix (default: repro)",
    )
    metrics_export.add_argument(
        "--out", metavar="FILE", help="write to FILE instead of stdout"
    )
    metrics_export.set_defaults(func=_cmd_metrics_export)

    top_cmd = sub.add_parser(
        "top", help="cluster/job table from a trace (live-refreshing)"
    )
    top_cmd.add_argument("file", help="path to the .jsonl trace")
    top_cmd.add_argument(
        "--metrics", metavar="FILE", help="join a metrics JSON dump into the header"
    )
    top_cmd.add_argument(
        "--once", action="store_true", help="render once and exit"
    )
    top_cmd.add_argument(
        "--refresh",
        type=float,
        default=2.0,
        help="seconds between refreshes (default: 2)",
    )
    top_cmd.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="show at most this many jobs (0 = all)",
    )
    top_cmd.set_defaults(func=_cmd_top)

    scalability = sub.add_parser(
        "scalability", help="time scheduling rounds at cluster scale (Fig 12)"
    )
    scalability.add_argument(
        "--nodes", type=int, nargs="+", default=[1000, 4000, 16000]
    )
    scalability.add_argument(
        "--job-counts", type=int, nargs="+", default=[250, 1000, 4000]
    )
    scalability.set_defaults(func=_cmd_scalability)

    arena = sub.add_parser(
        "arena",
        help="race scheduler policies head-to-head on one seeded trace",
    )
    arena.add_argument(
        "--policies",
        default="optimus,goodput,oasis,drf",
        help="comma-separated preset names (or alloc+place hybrids)",
    )
    arena.add_argument(
        "--baseline",
        default=None,
        help="policy the ratios are normalised to (default: first policy)",
    )
    arena.add_argument("--jobs", type=int, default=9)
    arena.add_argument("--servers", type=int, default=13)
    arena.add_argument("--window", type=float, default=12_000.0)
    arena.add_argument(
        "--arrivals", choices=("uniform", "poisson", "google"), default="uniform"
    )
    arena.add_argument("--seed", type=int, default=42)
    arena.add_argument(
        "--trace", help="replay a workload trace file instead of generating one"
    )
    arena.add_argument(
        "--estimator", choices=ESTIMATOR_MODES, default="online"
    )
    arena.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    arena.add_argument(
        "--output", metavar="FILE", help="write the full JSON report to FILE"
    )
    arena.add_argument(
        "--gate-output",
        metavar="FILE",
        help="write flat gate metrics (benchmarks/check_regression.py format)",
    )
    arena.add_argument(
        "--trace-out",
        metavar="PREFIX",
        help="trace every policy's run (decision ledger included) to "
        "PREFIX.<policy>.jsonl with manifests, and attribute JCT gaps to "
        "the first divergent decision per job",
    )
    arena.set_defaults(func=_cmd_arena)

    drill = _add_drill_parser(
        sub,
        "drill",
        "crash-consistency drill: kill the controller, expire a node, recover",
        RECONCILE_CRASH_POINTS,
        "kill the controller once at this reconcile crash point",
        "node health lease TTL in steps (<= 0 disables leases)",
    )
    drill.add_argument("--steps", type=int, default=6)
    drill.add_argument(
        "--expire-node",
        type=int,
        default=-1,
        help="index of a node whose heartbeats stop after the first step",
    )
    drill.set_defaults(func=_cmd_drill)

    failover = _add_drill_parser(
        sub,
        "failover",
        "controller-failover drill: kill the leader, audit the takeover",
        CRASH_POINTS,
        "how the leader dies (default: silent death; the election "
        "points script the successor instead)",
        "election lease TTL in steps (takeover bound is 2x this)",
    )
    failover.add_argument(
        "--kills", type=int, default=1, help="number of leader-kill waves"
    )
    failover.add_argument(
        "--trace-out", metavar="FILE", help="stream the drill's JSONL trace"
    )
    failover.add_argument(
        "--report-out", metavar="FILE", help="write the violation report"
    )
    failover.set_defaults(func=_cmd_failover)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        # Bad inputs that argparse cannot see (drill ranges, scenario files)
        # exit 2 with a message, like argparse's own usage errors.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
