"""Compare a fresh benchmark report against its committed baseline.

CI's benchmark jobs stash the committed report (``BENCH_smoke.json``,
``BENCH_scale.json``), rerun the producing benchmark on the PR's code,
then call::

    python benchmarks/check_regression.py baseline.json current.json

Every numeric key the two reports share is gated: the check fails
(exit 1) when any metric regresses by more than ``--max-ratio`` (default
1.3, i.e. +30%) over the baseline. Wall times and latencies regress by
*growing*; throughput-style metrics (``*_per_second``, ``*_rate``,
``*_throughput``, and explicit names below) regress by *shrinking*, so
their ratio is inverted before gating. A loose 30% band keeps
runner-to-runner noise from flaking the job while still catching real
slowdowns.

A baseline key missing from the current report fails the check outright:
silently dropping a metric from the report would otherwise remove it
from the gate forever. Keys only present in the current report are
listed as informational (they join the gate once the baseline is
regenerated).

A lower-is-better time (a key ending ``_ms``, ``_s`` or ``_seconds``)
that falls from a positive baseline to exactly ``0`` fails as well:
"measurement vanished". A real run never takes zero time, and an empty
histogram's quantile reads ``0.0``, so a zero means the phase stopped
being timed -- not that it got infinitely faster.

``*_ratio`` keys are already relative measurements (e.g. BENCH_smoke's
``ledger_overhead_ratio``, full-ledger wall time over ledger-off wall
time) and gate like any other lower-is-better metric: the check compares
the fresh ratio against the baseline ratio, so a ledger change that
makes instrumented runs relatively slower trips the same 30% band.
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

#: Exact key names that are higher-is-better regardless of suffix.
HIGHER_IS_BETTER_KEYS = frozenset(
    {"jobs_completed", "online_jobs_completed", "placement_cache_hits"}
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


def higher_is_better(key: str) -> bool:
    return key in HIGHER_IS_BETTER_KEYS or key.endswith(
        HIGHER_IS_BETTER_SUFFIXES
    )


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

    base_keys = {k for k, v in baseline.items() if is_numeric(v)}
    cur_keys = {k for k, v in current.items() if is_numeric(v)}

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
        base_value = float(baseline[key])
        cur_value = float(current[key])
        inverted = higher_is_better(key)
        vanished = (
            not inverted
            and key.endswith(TIME_SUFFIXES)
            and base_value > 0.0
            and cur_value == 0.0
        )
        if vanished:
            print(f"  {key}: {base_value:g} -> 0 [VANISHED]")
            failures.append(f"{key} (measurement vanished)")
            continue
        if base_value == 0.0 or (inverted and cur_value == 0.0):
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
            f"FAIL: {len(failures)} metric(s) beyond the regression "
            f"budget: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print("ok: every shared metric within the regression budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
