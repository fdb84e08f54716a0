"""Benchmark smoke runner: execute every bench at tiny scale.

CI's benchmark-smoke job runs this script. For each ``bench_*.py`` module
it imports the module, locates its producer -- the zero-argument
module-level function the ``test_*`` wrapper feeds to
``benchmark.pedantic`` -- runs it with smoke-sized parameters
(``BENCH_SMOKE=1``, see :func:`bench_common.smoke_mode`, plus per-module
constant overrides below) and asserts the result is non-empty. The
paper-shape assertions in the ``test_*`` wrappers are deliberately *not*
evaluated: at smoke scale they are not expected to hold. The goal is to
catch API drift and crashes in every bench quickly, not to validate the
paper's numbers.

Besides smoking every bench, the runner times one instrumented
standard-scale simulation and writes ``BENCH_smoke.json`` at the repo
root: interval-loop wall time, allocate/place p95 latencies, the sim's
average JCT and its ``decision_digest``. CI diffs that file against the
committed baseline with ``benchmarks/check_regression.py``.

Usage::

    python benchmarks/smoke.py            # run all benches + write report
    python benchmarks/smoke.py fig12      # run benches matching a substring
    python benchmarks/smoke.py --report-only   # only write BENCH_smoke.json
"""

from __future__ import annotations

import glob
import importlib
import inspect
import json
import os
import sys
import time

os.environ.setdefault("BENCH_SMOKE", "1")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

#: Tiny-scale overrides applied to module-level constants before running
#: (the big sweeps would otherwise dominate the smoke run's wall clock).
SMOKE_OVERRIDES = {
    "bench_fig12_scalability": {"SCALES": ((50, 10), (100, 25))},
    "bench_fig15_sensitivity_error": {"ERROR_LEVELS": (0.0, 0.3)},
    "bench_faults_jct_degradation": {
        "SCHEDULERS": ("optimus",),
        "MTBF_LEVELS": (0.0, 5_000.0),
    },
}


def find_producer(module):
    """The bench's zero-arg producer function (what pedantic would call).

    A module can opt out of discovery by naming its producers explicitly
    in a ``SMOKE_PRODUCERS`` tuple -- needed when it also exposes zero-arg
    entry points that must NOT run at smoke time (e.g. the full-scale
    scenario runner in ``bench_fig12_scalability``).
    """
    explicit = getattr(module, "SMOKE_PRODUCERS", None)
    if explicit is not None:
        return [getattr(module, name) for name in explicit]
    candidates = []
    for name, obj in vars(module).items():
        if name.startswith(("test_", "_")) or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__:
            continue  # imported helper, not this bench's producer
        parameters = inspect.signature(obj).parameters.values()
        if all(
            p.default is not inspect.Parameter.empty
            or p.kind
            in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
            for p in parameters
        ):
            candidates.append(obj)
    return candidates


def is_non_empty(result) -> bool:
    """A smoke result must be something: not None, not an empty container."""
    if result is None:
        return False
    if isinstance(result, (list, tuple, dict, set, str)):
        values = result.values() if isinstance(result, dict) else result
        return len(result) > 0 and all(item is not None for item in values)
    return True


def run_bench(module_name: str) -> float:
    """Import one bench, apply overrides, run its producers; returns seconds."""
    module = importlib.import_module(module_name)
    for attr, value in SMOKE_OVERRIDES.get(module_name, {}).items():
        setattr(module, attr, value)
    producers = find_producer(module)
    if not producers:
        raise AssertionError(f"{module_name}: no zero-arg producer function found")
    start = time.perf_counter()
    for producer in producers:
        result = producer()
        if not is_non_empty(result):
            raise AssertionError(
                f"{module_name}.{producer.__name__} returned an empty result: "
                f"{result!r}"
            )
    return time.perf_counter() - start


#: Where the smoke report lands (the repo root, next to pyproject.toml).
REPORT_PATH = os.path.join(os.path.dirname(BENCH_DIR), "BENCH_smoke.json")


def write_smoke_report(path: str = REPORT_PATH) -> dict:
    """Time one instrumented standard-scale sim and write the report JSON.

    The workload matches the repo's standard 9-job / 13-server scenario,
    run with a live metrics registry so the per-phase histograms exist;
    allocate/place p95s come straight from them.

    The same scenario is then re-run twice with a tracer attached --
    once with the decision ledger off, once in ``full`` mode;
    ``ledger_overhead_ratio`` (full / off wall time, both traced)
    isolates the cost of the decision ledger from tracing itself
    and gates it against the committed baseline. All three runs must
    reach the same ``decision_digest``: no sink may change a decision.
    """
    from repro.cluster import Cluster, cpu_mem
    from repro.obs import MetricsRegistry, RecordingTracer
    from repro.schedulers import make_scheduler
    from repro.sim import SimConfig, simulate
    from repro.workloads import uniform_arrivals

    def run_once(tracer=None, **cfg):
        registry = MetricsRegistry()
        start = time.perf_counter()
        result = simulate(
            Cluster.homogeneous(13, cpu_mem(16, 80)),
            make_scheduler("optimus"),
            uniform_arrivals(num_jobs=9, window=12_000, seed=0),
            SimConfig(seed=0, **cfg),
            tracer=tracer,
            metrics=registry,
        )
        return result, registry, time.perf_counter() - start

    result, registry, elapsed = run_once()
    result_off, _, elapsed_off = run_once(tracer=RecordingTracer(), ledger_mode="off")
    result_full, _, elapsed_full = run_once(
        tracer=RecordingTracer(), ledger_mode="full"
    )
    digests = {r.decision_digest for r in (result, result_off, result_full)}
    if len(digests) != 1:
        raise AssertionError(f"observability sinks changed decisions: {sorted(digests)}")
    snapshot = registry.snapshot()
    intervals = int(snapshot["counters"].get("engine.intervals", 0))
    report = {
        "interval_loop_seconds": round(elapsed, 4),
        "intervals": intervals,
        "allocate_p95_ms": round(
            1000.0 * registry.histogram("phase.allocate").quantile(0.95), 4
        ),
        "place_p95_ms": round(
            1000.0 * registry.histogram("phase.place").quantile(0.95), 4
        ),
        "average_jct_seconds": round(result.summary()["average_jct"], 2),
        "decision_digest": result.decision_digest,
        "ledger_overhead_ratio": round(elapsed_full / elapsed_off, 4),
    }
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}: {json.dumps(report, sort_keys=True)}")
    return report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--report-only":
        write_smoke_report()
        return 0
    pattern = argv[0] if argv else ""
    paths = sorted(glob.glob(os.path.join(BENCH_DIR, "bench_*.py")))
    names = [
        os.path.splitext(os.path.basename(path))[0]
        for path in paths
        if os.path.basename(path) != "bench_common.py"
    ]
    if pattern:
        names = [name for name in names if pattern in name]
    if not names:
        print(f"no benches match {pattern!r}", file=sys.stderr)
        return 2

    failures = []
    for name in names:
        try:
            elapsed = run_bench(name)
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures.append((name, exc))
            print(f"FAIL  {name}: {exc}")
        else:
            print(f"ok    {name} ({elapsed:.2f}s)")
    print(
        f"\n{len(names) - len(failures)}/{len(names)} benches passed smoke"
    )
    if not pattern:
        write_smoke_report()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
