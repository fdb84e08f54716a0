"""Compare a fresh benchmark report against its committed baseline.

CI's benchmark jobs stash the committed report (``BENCH_smoke.json``,
``BENCH_scale.json``, ...), rerun the producing benchmark on the PR's
code, then call::

    python benchmarks/check_regression.py baseline.json current.json

This script is the one place that decides how each key is gated.

Exact keys. A seeded benchmark's *behaviour* must not move at all, so
two kinds of key must match the baseline exactly:

* every ``*_digest`` key, compared as a string -- e.g. ``decision_digest``,
  the SHA-256 over every interval's allocation and placement
  (``SimulationResult.decision_digest``);
* the behaviour keys in :data:`BEHAVIOUR_KEYS` (JCTs, completion and
  event counts, both estimator modes' prediction-error keys, the
  failover drill's fencing and takeover counts).

A changed exact key fails the check however small the change.

Ratio-gated keys. Every other numeric key the two reports share fails
the check (exit 1) when it regresses by more than ``--max-ratio``
(default 1.3, i.e. +30%) over the baseline. Wall times and latencies
regress by *growing*; throughput-style metrics (``*_per_second``,
``*_rate``, ``*_throughput`` and the arena's fairness/utilisation/
completion columns) regress by *shrinking*, so their ratio is inverted
before gating. A loose 30% band keeps runner-to-runner noise from
flaking the job while still catching real slowdowns.

A baseline key missing from the current report fails the check outright:
silently dropping a metric or a digest from the report would otherwise
remove it from the gate forever. Keys only present in the current report
are listed as informational (they join the gate once the baseline is
regenerated).

A metric that falls from a positive baseline to exactly ``0`` fails as
"measurement vanished" when it is a lower-is-better time (a key ending
``_ms``, ``_s`` or ``_seconds``) or any higher-is-better metric. A real
run never takes zero time, and an empty histogram's quantile reads
``0.0``, so a zero time means the phase stopped being timed -- not that
it got infinitely faster; a throughput of zero means nothing ran.

``*_ratio`` keys are already relative measurements (e.g. BENCH_smoke's
``ledger_overhead_ratio``, full-ledger wall time over ledger-off wall
time) and gate like any other lower-is-better metric: the check compares
the fresh ratio against the baseline ratio, so a ledger change that
makes instrumented runs relatively slower trips the same 30% band.

Re-baselining. A change that moves decisions on purpose regenerates the
committed baselines, and with them the exact keys, only if it:

* names the behaviour change in CHANGES.md;
* keeps the paper-shape benches (Figs 6-8, 11/13, 18, 19) inside their
  EXPERIMENTS.md verdicts;
* reports the JCT and makespan deltas on the three ``benchmarks/perf``
  workloads (``online-fleet``, ``oracle-fleet``, ``controlplane``);
* states each estimator-quality MAPE key (``online_speed_mape``,
  ``online_remaining_mape``) before and after, and declares in
  CHANGES.md a band each may rise by; the regenerated value must stay
  inside it. JCT alone cannot catch a worse estimator: the paper's
  Fig. 15 shows average JCT barely moves with prediction error.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Suffixes marking higher-is-better metrics (throughputs, plus the
#: arena gate's fairness/utilisation/completion-count columns).
HIGHER_IS_BETTER_SUFFIXES = (
    "_per_second",
    "_rate",
    "_throughput",
    "_fairness",
    "_utilization",
    "_finished",
)

#: Behaviour keys of the seeded benchmark runs (``BENCH_scale.json``,
#: then ``BENCH_failover.json``): they only move when decisions move, so
#: they must match the baseline exactly, like every ``*_digest`` key.
#: The estimators' error keys, oracle and online, are deterministic per
#: seed too, and a signed bias has no meaningful ratio to gate.
BEHAVIOUR_KEYS = frozenset(
    {
        "average_jct_seconds",
        "jobs_completed",
        "events_processed",
        "schedule_events",
        "placement_cache_hits",
        "speed_mape",
        "remaining_mape",
        "remaining_bias",
        "online_average_jct_seconds",
        "online_jobs_completed",
        "online_speed_mape",
        "online_remaining_mape",
        "online_remaining_bias",
        "checker_violations",
        "fenced_writes_mid_step_deposed",
        "fenced_writes_total",
        "takeovers_total",
    }
)

#: Extra budget multiplier for tail-latency quantiles: a p95 estimated
#: from a few dozen histogram samples swings several-fold between
#: otherwise identical runs, so gating it at the wall-time band would
#: flake CI. It stays gated -- just against a proportionally wider band.
QUANTILE_SLACK = 4.0
QUANTILE_SUFFIXES = ("_p95_ms", "_p99_ms")

#: Suffixes marking wall-clock measurements, which are never truly zero.
TIME_SUFFIXES = ("_ms", "_s", "_seconds")


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def is_numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_exact(key: str) -> bool:
    return key in BEHAVIOUR_KEYS or key.endswith("_digest")


def higher_is_better(key: str) -> bool:
    return key.endswith(HIGHER_IS_BETTER_SUFFIXES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed report JSON")
    parser.add_argument("current", help="freshly produced report JSON")
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=1.3,
        help="fail when a metric regresses past this (default 1.3 = +30%%)",
    )
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    current = load(args.current)

    base_keys = {k for k, v in baseline.items() if is_exact(k) or is_numeric(v)}
    cur_keys = {k for k, v in current.items() if is_exact(k) or is_numeric(v)}

    missing = sorted(base_keys - cur_keys)
    if missing:
        print(
            "FAIL: baseline metrics missing from the current report: "
            + ", ".join(missing),
            file=sys.stderr,
        )
        print(
            "(dropping a metric silently removes it from the gate; if the "
            "removal is intentional, regenerate the committed baseline)",
            file=sys.stderr,
        )
        return 1

    extra = sorted(cur_keys - base_keys)
    if extra:
        print(
            "new metrics not in the baseline (ungated until it is "
            "regenerated): " + ", ".join(extra)
        )

    failures = []
    for key in sorted(base_keys):
        if is_exact(key):
            same = baseline[key] == current[key]
            verdict = "exact" if same else "CHANGED"
            print(f"  {key}: {baseline[key]!r} -> {current[key]!r} [{verdict}]")
            if not same:
                failures.append(f"{key} (changed; must match exactly)")
            continue
        base_value = float(baseline[key])
        cur_value = float(current[key])
        inverted = higher_is_better(key)
        vanished = (
            (inverted or key.endswith(TIME_SUFFIXES))
            and base_value > 0.0
            and cur_value == 0.0
        )
        if vanished:
            print(f"  {key}: {base_value:g} -> 0 [VANISHED]")
            failures.append(f"{key} (measurement vanished)")
            continue
        if base_value == 0.0:
            status = "ok" if cur_value == base_value else "ungated (zero)"
            print(f"  {key}: {base_value:g} -> {cur_value:g} [{status}]")
            continue
        ratio = base_value / cur_value if inverted else cur_value / base_value
        direction = "higher-is-better" if inverted else "lower-is-better"
        limit = args.max_ratio
        if key.endswith(QUANTILE_SUFFIXES):
            limit *= QUANTILE_SLACK
        verdict = "ok" if ratio <= limit else "REGRESSED"
        print(
            f"  {key}: {base_value:g} -> {cur_value:g} "
            f"(x{ratio:.3f} {direction}, limit x{limit:.2f}) [{verdict}]"
        )
        if ratio > limit:
            failures.append(f"{key} (x{ratio:.2f})")

    if failures:
        print(
            f"FAIL: {len(failures)} key(s) changed or beyond the "
            f"regression budget: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print("ok: every shared metric within the regression budget, every exact key unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
