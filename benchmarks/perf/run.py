"""The repo benchmark: one command, every metric by name with its unit.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--out DIR]

Each workload runs in fresh worker processes (``workloads.py``), one after
another and never more than one beside this process, repeated for about
``--seconds`` seconds (at least twice). Summary lines give the median and
quartiles over the repeats. ``--trace 1`` adds one traced repeat and
reports the per-layer metrics instead (see ``layers.py``), writing its
spans to ``DIR/<workload>.spans.jsonl``.

Outputs are checked on every run: all repeats of one seed -- traced or
not -- must produce the same behaviour digest, no simulated job may be left
unfinished, the control plane's final pods must match its last decision,
and a traced run must see each layer called exactly where it should be.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit status: 0 when correct, 1
on a correctness failure, 2 when a hooked entry point is missing or
bypassed, 3 when a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "workloads.py")
sys.path.insert(0, HERE)

from layers import LAYERS  # noqa: E402
from workloads import SRC, WORKLOADS  # noqa: E402

#: End-to-end metrics (untraced repeats): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "jct_avg_s": "sim_s",
    "makespan_s": "sim_s",
    "step_mean_ms": "ms",
    "step_p90_ms": "ms",
}

#: Per-layer metrics (the traced repeat): name -> unit.
PER_LAYER = {
    **{
        f"{layer}.{kind}": unit
        for layer in LAYERS
        for kind, unit in (("calls", "count"), ("share", "ratio"))
    },
    "trace.wall_s": "s",
    "other.share": "ratio",
    "round.p50_ms": "ms",
    "round.p75_ms": "ms",
    "fit.loss.refit_ratio": "ratio",
    "place.cache_hit_ratio": "ratio",
    "trace_overhead_ratio": "ratio",
}

#: Layers each workload must call (every other layer must stay at 0 calls).
_COMMON = {"round", "schedule", "allocate", "place", "truth.speed", "truth.breakdown"}
_SIM = _COMMON | {"view", "admit", "snapshot", "progress.paa", "progress.advance"}
EXPECTED_LAYERS = {
    "online-fleet": _SIM | {"fit.loss", "fit.nnls", "fit.speed"},
    "oracle-fleet": _SIM,
    "controlplane": _COMMON
    | {"cp.heartbeat", "cp.sweep", "cp.cluster_from_api", "cp.reconcile"}
    | {"kv.put", "kv.get", "kv.delete", "kv.list", "kv.lease"},
}

EXIT_INCORRECT, EXIT_HOOK, EXIT_WORKER = 1, 2, 3

#: A worker taking longer than this is killed, keeping a run under 180 s.
WORKER_TIMEOUT_S = 150.0


class WorkerFailed(Exception):
    def __init__(self, message: str, code: int = EXIT_WORKER):
        super().__init__(message)
        self.code = code


def spawn(workload: str, seed: int, traced: bool, spans_out=None, tiny=False):
    """One repeat in a fresh worker process; adds ``setup_s`` and ``elapsed_s``."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", "1" if traced else "0"]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    if tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} worker exceeded {WORKER_TIMEOUT_S:.0f} s") from None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        code = EXIT_HOOK if proc.returncode == EXIT_HOOK else EXIT_WORKER
        raise WorkerFailed(f"{workload} worker exited with {proc.returncode}", code)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is the system-wide monotonic clock, so the worker's run
    # start and our spawn time share a time base.
    result["setup_s"] = result["run_start"] - start
    result["elapsed_s"] = elapsed
    return result


def repeat(workload, seed, seconds, trace, spans_out=None, tiny=False) -> List[dict]:
    """Repeat the workload for about *seconds*; one traced repeat when *trace*.

    A new repeat starts only if the median repeat so far still fits in the
    budget, and there are always at least two (the digest check needs a
    pair). With *trace*, the second repeat is the traced one.
    """
    results: List[dict] = []
    began = time.perf_counter()
    while True:
        traced = trace and len(results) == 1
        results.append(
            spawn(workload, seed, traced, spans_out if traced else None, tiny)
        )
        if len(results) < 2:
            continue
        spent = time.perf_counter() - began
        typical = statistics.median(r["elapsed_s"] for r in results if not r["traced"])
        if spent + typical > seconds:
            return results


# -- metrics ----------------------------------------------------------------------------
def _p90(samples: List[float]) -> float:
    return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(results: List[dict]) -> Dict[str, List[float]]:
    """Per-repeat values of every end-to-end metric (untraced repeats only)."""
    untraced = [r for r in results if not r["traced"]]
    return {
        "wall_s": [r["wall_s"] for r in untraced],
        "setup_s": [r["setup_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "jct_avg_s": [r["jct_avg_s"] for r in untraced],
        "makespan_s": [r["makespan_s"] for r in untraced],
        "step_mean_ms": [1000.0 * statistics.fmean(r["round_s"]) for r in untraced],
        "step_p90_ms": [1000.0 * _p90(r["round_s"]) for r in untraced],
    }


def per_layer(results: List[dict]) -> Dict[str, float]:
    traced = next(r for r in results if r["traced"])
    trace = traced["trace"]
    wall = trace["wall_s"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = trace["calls"][layer]
        metrics[f"{layer}.share"] = trace["self_s"][layer] / wall
    rounds = trace["round_s"]
    fits = trace["counts"].get("fit.loss.estimator_fits", 0)
    placed = traced.get("cache_hits", 0) + traced.get("cache_misses", 0)
    untraced_wall = statistics.median(r["wall_s"] for r in results if not r["traced"])
    metrics.update(
        {
            "trace.wall_s": wall,
            "other.share": trace["other_s"] / wall,
            "round.p50_ms": 1000.0 * statistics.median(rounds),
            "round.p75_ms": 1000.0 * (
                statistics.quantiles(rounds, n=4)[2] if len(rounds) > 1 else rounds[0]
            ),
            "fit.loss.refit_ratio": trace["calls"]["fit.loss"] / fits if fits else 0.0,
            "place.cache_hit_ratio": traced.get("cache_hits", 0) / placed if placed else 0.0,
            "trace_overhead_ratio": wall / untraced_wall,
        }
    )
    return metrics


def check(workload: str, results: List[dict]) -> Tuple[List[str], List[str]]:
    """(behaviour problems, hook problems) found in one workload's repeats."""
    problems = []
    digests = {r["digest"] for r in results}
    if len(digests) > 1:
        kinds = "traced and untraced" if any(r["traced"] for r in results) else "repeated"
        problems.append(f"{kinds} runs of one seed produced {len(digests)} different digests")
    for r in results:
        problems.extend(r["problems"])
    hook_problems = []
    expected = EXPECTED_LAYERS[workload]
    for r in results:
        if not r["traced"]:
            continue
        for layer, calls in r["trace"]["calls"].items():
            if (layer in expected) != (calls > 0):
                want = "some" if layer in expected else "no"
                hook_problems.append(f"{layer}: {calls} calls, expected {want} on {workload}")
    return sorted(set(problems)), hook_problems


# -- reporting ------------------------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_end_to_end(values: Dict[str, List[float]]) -> List[str]:
    lines = [f"  {'metric':<16s} {'median':>12s} {'q1':>12s} {'q3':>12s}  unit   n"]
    for name, unit in END_TO_END.items():
        q1, q3 = _quartiles(values[name])
        lines.append(
            f"  {name:<16s} {_fmt(statistics.median(values[name])):>12s} "
            f"{_fmt(q1):>12s} {_fmt(q3):>12s}  {unit:<6s} {len(values[name])}"
        )
    return lines


def report_layers(workload: str, results: List[dict]) -> List[str]:
    trace = next(r for r in results if r["traced"])["trace"]
    wall = trace["wall_s"]
    by_parent: Dict[str, List[Tuple[str, int]]] = {}
    for name, parent, calls in trace["parent_calls"]:
        by_parent.setdefault(name, []).append((parent, calls))
    rows = sorted(LAYERS, key=lambda layer: -trace["self_s"][layer])
    lines = [
        f"  traced wall {wall:.3f} s; self time by layer (share of traced wall):",
        f"  {'layer':<20s} {'self_s':>9s} {'share':>7s} {'calls':>9s}  calls by parent",
    ]
    for layer in rows:
        calls = trace["calls"][layer]
        if not calls:
            continue
        parents = ", ".join(
            f"{parent} {n}" for parent, n in sorted(by_parent.get(layer, []), key=lambda p: -p[1])
        )
        lines.append(
            f"  {layer:<20s} {trace['self_s'][layer]:9.3f} "
            f"{trace['self_s'][layer] / wall:7.1%} {calls:9d}  {parents}"
        )
    lines.append(f"  {'other':<20s} {trace['other_s']:9.3f} {trace['other_s'] / wall:7.1%}")
    if trace["fit_loss_top_jobs"]:
        lines.append("  top jobs by fit.loss time:")
        lines.extend(f"    {job:<12s} {s:8.3f} s" for job, s in trace["fit_loss_top_jobs"])
    return lines


def measure(workload, seed, seconds, trace, out_dir=None, tiny=False):
    """Run one workload; returns (exit code, result object, report lines)."""
    spans_out = None
    if trace and out_dir:
        os.makedirs(out_dir, exist_ok=True)
        spans_out = os.path.join(out_dir, f"{workload}.spans.jsonl")
    results = repeat(workload, seed, seconds, trace, spans_out, tiny)
    problems, hook_problems = check(workload, results)
    values = end_to_end(results)
    lines = [
        f"== {workload}  seed {seed}  {len(results)} repeats "
        f"({sum(r['traced'] for r in results)} traced) =="
    ]
    lines += report_end_to_end(values)
    if trace:
        lines += report_layers(workload, results)
        metrics = {
            name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in per_layer(results).items()
        }
    else:
        metrics = {
            name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    lines += [f"  PROBLEM: {p}" for p in problems + hook_problems]
    if spans_out:
        lines.append(f"  spans written to {spans_out}")
    counted = [r for r in results if trace or not r["traced"]]
    result = {
        "correct": not problems and not hook_problems,
        "attempted": sum(r["attempted"] for r in counted),
        "failed": sum(r["failed"] for r in counted),
        "metrics": metrics,
    }
    code = EXIT_HOOK if hook_problems else EXIT_INCORRECT if problems else 0
    return code, result, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark and print every metric with its unit."
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="budget per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: add a traced repeat and report per-layer metrics",
    )
    parser.add_argument(
        "--out", default=os.path.join(HERE, "out"), help="directory for span files"
    )
    args = parser.parse_args(argv)
    # Terminating this process must not orphan a worker: SystemExit unwinds
    # through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"the repro package source is missing from {SRC}", file=sys.stderr)
        return EXIT_WORKER

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    outcomes = []
    for workload in workloads:
        try:
            code, result, lines = measure(
                workload, args.seed, args.seconds, bool(args.trace), args.out
            )
        except WorkerFailed as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return exc.code
        print("\n".join(lines), flush=True)
        outcomes.append((workload, code, result))

    if len(outcomes) == 1:
        _, code, final = outcomes[0]
    else:
        code = max(c for _, c, _ in outcomes)
        final = {
            "correct": all(r["correct"] for _, _, r in outcomes),
            "attempted": sum(r["attempted"] for _, _, r in outcomes),
            "failed": sum(r["failed"] for _, _, r in outcomes),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, _, r in outcomes
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return code


if __name__ == "__main__":
    sys.exit(main())
