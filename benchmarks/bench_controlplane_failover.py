"""Control-plane failover: takeover latency and fenced-write accounting.

The HA counterpart of the fault benchmarks: run the hot/standby drill
(:func:`repro.deploy.run_failover_drill`) across seeds and kill modes and
report the numbers the CI gate cares about:

* **takeover latency** -- lease-expiry to the successor's first completed
  post-recovery schedule, in step units. The acceptance bound is 2x the
  election lease TTL (``takeover_latency_ttl_ratio`` <= 2.0).
* **fenced writes** -- how many stale-leader mutations the
  :class:`~repro.k8s.election.FencedKVStore` rejected. Under
  ``mid_step_deposed`` (the GC-pause kill) this MUST be positive: a
  deposed leader whose writes land silently is the failure the fence
  exists to prevent.

CI's ``benchmark-failover`` job runs::

    python benchmarks/bench_controlplane_failover.py --output BENCH_failover.json

and gates the report against the committed baseline with
``benchmarks/check_regression.py``.
"""

import argparse
import json
import sys

from bench_common import report
from repro.deploy import FailoverConfig, run_failover_drill
from repro.faults import CRASH_MID_STEP_DEPOSED

SEEDS = (0, 1, 2)
#: Silent leader death plus the deposed-mid-step (GC pause) kill.
KILL_MODES = (None, CRASH_MID_STEP_DEPOSED)
LEASE_TTL = 2.0
KILLS = 2

#: What benchmarks/smoke.py runs (the full matrix is the gate's job).
SMOKE_PRODUCERS = ("run_smoke",)


def run_matrix(seeds=SEEDS, kill_modes=KILL_MODES, kills=KILLS):
    """Run the seed x kill-mode drill matrix; returns per-run outcomes."""
    runs = []
    for seed in seeds:
        for mode in kill_modes:
            config = FailoverConfig(
                seed=seed, crash_point=mode, kills=kills, lease_ttl=LEASE_TTL
            )
            outcome = run_failover_drill(config)
            runs.append(
                {"seed": seed, "crash_point": mode, "outcome": outcome}
            )
    return runs


def run_smoke():
    """One tiny drill per kill mode -- crash/API-drift coverage only."""
    runs = run_matrix(seeds=(0,), kills=1)
    assert all(run["outcome"].ok for run in runs)
    return runs


def build_report(runs):
    latencies = []
    fenced_total = 0
    violations = 0
    for run in runs:
        outcome = run["outcome"]
        latencies.extend(outcome.takeover_latencies)
        fenced_total += outcome.fenced_writes
        if not outcome.ok:
            violations += len(outcome.checker.violations)
    deposed_fenced = sum(
        run["outcome"].fenced_writes
        for run in runs
        if run["crash_point"] == CRASH_MID_STEP_DEPOSED
    )
    worst = max(latencies) if latencies else 0.0
    return {
        "seeds": len({run["seed"] for run in runs}),
        "kill_modes": len({run["crash_point"] for run in runs}),
        "takeovers_total": len(latencies),
        "takeover_latency_steps_mean": (
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
        "takeover_latency_steps_max": worst,
        "takeover_latency_ttl_ratio": worst / LEASE_TTL,
        "fenced_writes_total": fenced_total,
        "fenced_writes_mid_step_deposed": deposed_fenced,
        "checker_violations": violations,
    }


def test_controlplane_failover(benchmark):
    runs = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    summary = build_report(runs)

    # Every drill's trace must satisfy the election invariants: no dual
    # leadership, monotone epochs, takeover inside the bound, no leaks.
    assert summary["checker_violations"] == 0
    for run in runs:
        outcome = run["outcome"]
        assert outcome.ok, (run["seed"], run["crash_point"], outcome.checker.violations)
        assert not outcome.leaked_pods
        assert not outcome.leaked_leases
        assert not outcome.leaked_intents

    # The acceptance bound: lease-expiry to first schedule within 2x TTL.
    assert summary["takeover_latency_ttl_ratio"] <= 2.0

    # Every deposed-mid-step leader must have been caught by the fence.
    assert summary["fenced_writes_mid_step_deposed"] > 0

    lines = [
        "hot/standby failover drill, "
        f"{len(SEEDS)} seeds x {len(KILL_MODES)} kill modes x {KILLS} kills",
        f"lease TTL {LEASE_TTL:g} steps; takeover bound 2x TTL",
        "",
        f"{'metric':36s} {'value':>10s}",
        "-" * 48,
    ]
    for key in sorted(summary):
        lines.append(f"{key:36s} {summary[key]:>10.3f}")
    report("bench_controlplane_failover", lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="failover drill matrix -> BENCH_failover.json"
    )
    parser.add_argument("--output", default=None, help="write the report JSON here")
    args = parser.parse_args(argv)
    runs = run_matrix()
    summary = build_report(runs)
    failures = []
    if summary["checker_violations"]:
        failures.append(f"{summary['checker_violations']} checker violations")
    if summary["takeover_latency_ttl_ratio"] > 2.0:
        failures.append(
            f"takeover latency {summary['takeover_latency_steps_max']:g} steps "
            f"exceeds 2x lease TTL"
        )
    if summary["fenced_writes_mid_step_deposed"] <= 0:
        failures.append("no writes were fenced under mid_step_deposed")
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    print(text)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
