"""The perf benchmark's workloads, and the worker process that runs one.

Each workload is generated from ``--seed`` alone; the program receives
only the generated inputs (job specs, clusters, a scheduler, a config).
Run as a script, this module is the worker: it builds one workload
(set-up), runs it (the timed phase), optionally under the :mod:`layers`
hooks, and prints one JSON line for the parent :mod:`run` process::

    python benchmarks/perf/workloads.py --workload oracle-fleet --seed 0

Why these three (see README.md for the layer map):

* ``online-fleet`` -- the paper's real mode: §3 loss-curve and speed fits
  run for every job every round, so estimator cost dominates the wall.
* ``oracle-fleet`` -- the same generator and scheduler with ground-truth
  estimates: fitting is bypassed, so §4.1 allocate, §4.2 place, the
  ground-truth speed model and PS partitioning carry the cost.
* ``controlplane`` -- one caller driving ``ControlLoop.step`` over the
  in-process API server and KV store: the cluster comes from the API
  instead of a simulator snapshot, and every launch, teardown and progress
  checkpoint writes to the store.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

WORKLOADS = ("online-fleet", "oracle-fleet", "controlplane")

#: Fast-converging Table-1 models (as in the scale bench), so a run measures
#: the scheduler rather than week-long training tails.
MODELS = ("cnn-rand", "dssm", "kaggle-ndsb")
KINDS = tuple((model, mode) for model in MODELS for mode in ("sync", "async"))


@dataclass(frozen=True)
class FleetSize:
    """Independent simulated clusters ("cells") run back to back.

    Summing several cells makes a run's cost depend far less on the chaotic
    details of one seed's trace than one large cell would.
    """

    cells: int
    gpus: int
    jobs: int
    #: Arrival window per job per GPU, in seconds. The scale bench's 6,000
    #: loads the fleet to its drain rate, where queueing makes a run's cost
    #: swing with each seed's arrival order; 4-6x longer windows keep jobs
    #: competing for spare GPUs without long queues.
    window_per_job_gpu: float


@dataclass(frozen=True)
class ControlPlaneSize:
    nodes: int
    concurrent: int
    completions: int
    #: Simulated seconds of training per control-loop step.
    step_seconds: float
    max_steps: int


SIZES = {
    "online-fleet": FleetSize(cells=2, gpus=24, jobs=30, window_per_job_gpu=36_000.0),
    "oracle-fleet": FleetSize(cells=2, gpus=200, jobs=400, window_per_job_gpu=24_000.0),
    "controlplane": ControlPlaneSize(
        nodes=32, concurrent=24, completions=100, step_seconds=200.0, max_steps=600
    ),
}

#: Internal sizes for the unit tests: seconds, not minutes.
TINY_SIZES = {
    "online-fleet": FleetSize(cells=1, gpus=8, jobs=6, window_per_job_gpu=36_000.0),
    "oracle-fleet": FleetSize(cells=2, gpus=16, jobs=12, window_per_job_gpu=24_000.0),
    "controlplane": ControlPlaneSize(
        nodes=4, concurrent=3, completions=6, step_seconds=600.0, max_steps=200
    ),
}


def _seeds(seed: int, count: int) -> List[int]:
    """Independent integer seeds for *count* cells, fixed by *seed*."""
    return [
        int(child.generate_state(1)[0]) for child in np.random.SeedSequence(seed).spawn(count)
    ]


def _mix(rng: np.random.Generator, count: int):
    """Model and mode per job: every block of six holds each kind once."""
    mix = []
    while len(mix) < count:
        mix.extend(KINDS[k] for k in rng.permutation(len(KINDS)))
    return mix[:count]


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


# -- simulated fleets ---------------------------------------------------------------
def _fleet_cell(size: FleetSize, cell_seed: int, prefix: str, estimator_mode: str):
    from repro.cluster import Cluster
    from repro.cluster.resources import ResourceVector
    from repro.schedulers import make_scheduler
    from repro.sim import SimConfig
    from repro.workloads import make_job

    rng = np.random.default_rng(cell_seed)
    window = size.jobs * size.window_per_job_gpu / size.gpus
    slot = window / size.jobs
    jitter = rng.uniform(-0.25 * slot, 0.25 * slot, size.jobs)
    jobs = [
        make_job(
            model,
            mode=mode,
            job_id=f"{prefix}-{i}",
            arrival_time=max(0.0, i * slot + jitter[i]),
            worker_demand=ResourceVector({"cpu": 2, "memory": 4, "gpu": 1}),
            ps_demand=ResourceVector({"cpu": 1, "memory": 2}),
        )
        for i, (model, mode) in enumerate(_mix(rng, size.jobs))
    ]
    cluster = Cluster.homogeneous(
        max(1, size.gpus // 4), ResourceVector({"cpu": 16, "memory": 80, "gpu": 4})
    )
    # Cost-aware rescaling keeps allocations stable between rounds, which is
    # what lets the placement cache replay layouts.
    scheduler = make_scheduler("optimus", placement_cache=True, rescale_threshold=1.0)
    config = SimConfig(
        seed=cell_seed, estimator_mode=estimator_mode, max_time=window + 2 * 86_400.0
    )
    return cluster, scheduler, jobs, config


def fleet(estimator_mode: str):
    def prepare(size: FleetSize, seed: int):
        from repro.sim import simulate

        # The heap engine is the one the simulator keeps; pass it while the
        # engine choice still exists.
        engine = {"engine": "event"} if "engine" in inspect.signature(simulate).parameters else {}
        cells = [
            _fleet_cell(size, cell_seed, f"c{k}", estimator_mode)
            for k, cell_seed in enumerate(_seeds(seed, size.cells))
        ]

        def run() -> dict:
            results = [
                (scheduler, simulate(cluster, scheduler, jobs, config, **engine))
                for cluster, scheduler, jobs, config in cells
            ]
            records = [rec for _, result in results for rec in result.jobs.values()]
            unfinished = sum(1 for rec in records if rec.completion_time is None)
            finished = [rec for rec in records if rec.completion_time is not None]
            hits = sum(s.placement_cache.hits for s, _ in results if s.placement_cache)
            misses = sum(s.placement_cache.misses for s, _ in results if s.placement_cache)
            return {
                "attempted": len(records),
                "failed": unfinished,
                "digest": _digest(
                    sorted([rec.job_id, rec.completion_time] for rec in records)
                ),
                "jct_avg_s": statistics.fmean(rec.jct for rec in finished),
                "makespan_s": statistics.fmean(
                    max(rec.completion_time for rec in result.jobs.values()
                        if rec.completion_time is not None)
                    for _, result in results
                ),
                "cache_hits": hits,
                "cache_misses": misses,
                "problems": [f"{unfinished} simulated jobs unfinished"] if unfinished else [],
            }

        return [scheduler for _, scheduler, _, _ in cells], run

    return prepare


# -- control plane --------------------------------------------------------------------
def controlplane(size: ControlPlaneSize, seed: int):
    """A closed loop: one caller, each step waits for the previous one.

    ``concurrent`` jobs run at once; each completion is replaced by the next
    job of a seeded queue, until ``completions`` jobs have finished. Nodes
    hold 3-step health leases and heartbeat every step.

    A running job keeps its allocation (its rescale cost is infinite): on a
    full cluster, reconciling several rescales in one pass rolls some back
    when a new layout lands on pods not yet torn down, and the benchmark
    must run without failed operations. Placement therefore replays cached
    layouts for running jobs and places arrivals fresh.
    """
    from repro.cluster import cpu_mem
    from repro.core.allocation import TaskAllocation
    from repro.deploy.loop import ControlLoop
    from repro.k8s.api import APIServer
    from repro.k8s.kvstore import KVStore
    from repro.schedulers import JobView, make_scheduler
    from repro.workloads import StepTimeModel, make_job

    rng = np.random.default_rng(_seeds(seed, 1)[0])
    pool = size.completions + size.concurrent
    specs = [
        make_job(model, mode=mode, job_id=f"cp-{i}")
        for i, (model, mode) in enumerate(_mix(rng, pool))
    ]
    truths = {spec.job_id: StepTimeModel(spec.profile, spec.mode) for spec in specs}
    totals = {spec.job_id: spec.total_steps_to_converge() for spec in specs}
    api = APIServer(KVStore())
    nodes = [f"node-{i}" for i in range(size.nodes)]
    for name in nodes:
        api.register_node(name, cpu_mem(16, 64), lease_ttl=3.0, now=0.0)
    scheduler = make_scheduler("optimus", placement_cache=True, rescale_threshold=1.0)
    loop = ControlLoop(api, scheduler)

    def run() -> dict:
        queue = list(specs)
        active: Dict[str, float] = {}  # job id -> arrival time
        progress: Dict[str, float] = {}
        jcts: Dict[str, float] = {}
        by_id = {spec.job_id: spec for spec in specs}
        running: Dict[str, TaskAllocation] = {}
        counters = dict.fromkeys(
            ("pods_created", "pods_deleted", "checkpoints_saved", "jobs_scaled"), 0
        )
        attempted = failed = 0
        report = None
        step = 0
        while len(jcts) < size.completions and step < size.max_steps:
            now = step * size.step_seconds
            while queue and len(active) < size.concurrent:
                spec = queue.pop(0)
                active[spec.job_id] = now
                progress[spec.job_id] = 0.0
            for name in nodes:
                loop.heartbeat(name, float(step))
            views = [
                JobView(
                    spec=by_id[job_id],
                    remaining_steps=max(totals[job_id] - progress[job_id], 1.0),
                    speed=truths[job_id].speed,
                    observation_count=100,
                    current_allocation=running.get(job_id, TaskAllocation(0, 0)),
                    rescale_cost=math.inf,
                )
                for job_id in active
            ]
            report = loop.step(views, progress=dict(progress))
            rec = report.reconcile
            attempted += len(views)
            failed += len(rec.jobs_failed) + len(rec.jobs_rolled_back)
            counters["pods_created"] += rec.pods_created
            counters["pods_deleted"] += rec.pods_deleted
            counters["checkpoints_saved"] += rec.checkpoints_saved
            counters["jobs_scaled"] += len(rec.jobs_scaled)
            running = {
                job_id: report.decision.allocations[job_id]
                for job_id in report.decision.scheduled_jobs
            }
            for job_id in report.decision.scheduled_jobs:
                alloc = report.decision.allocations[job_id]
                speed = truths[job_id].speed(alloc.ps, alloc.workers)
                progress[job_id] += speed * size.step_seconds
            step += 1
            for job_id in [j for j in active if progress[j] >= totals[j]]:
                jcts[job_id] = step * size.step_seconds - active.pop(job_id)

        pods: Dict[str, Dict[str, List[int]]] = {}
        for pod in api.list_pods():
            counts = pods.setdefault(pod.job_id, {}).setdefault(pod.node, [0, 0])
            counts[0 if pod.role == "worker" else 1] += 1
        problems = []
        if len(jcts) < size.completions:
            problems.append(f"only {len(jcts)} of {size.completions} jobs completed")
        if report is not None:
            decided = {
                job_id: {node: [nw, np_] for node, (nw, np_) in layout.items() if nw or np_}
                for job_id, layout in report.decision.layouts.items()
            }
            if pods != decided:
                problems.append("final pods do not match the last decision's layouts")
        return {
            "attempted": attempted,
            "failed": failed,
            "digest": _digest({"pods": pods, "counters": counters, "steps": step}),
            "jct_avg_s": statistics.fmean(jcts.values()) if jcts else 0.0,
            "makespan_s": step * size.step_seconds,
            "cache_hits": scheduler.placement_cache.hits,
            "cache_misses": scheduler.placement_cache.misses,
            "problems": problems,
        }

    return [scheduler], run


PREPARE = {
    "online-fleet": fleet("online"),
    "oracle-fleet": fleet("oracle"),
    "controlplane": controlplane,
}


# -- the worker process ------------------------------------------------------------------
def run_once(
    workload: str, seed: int, trace: bool, spans_out: Optional[str] = None, tiny: bool = False
) -> dict:
    """Set up and run *workload* once in this process; returns the result dict.

    Tracing off still times each scheduling round (one wrapper per round),
    which is where the step latencies come from.
    """
    import layers

    recorder = layers.Recorder(layers.LAYERS if trace else ("round",))
    patched = layers.install(recorder)
    try:
        size = (TINY_SIZES if tiny else SIZES)[workload]
        schedulers, run = PREPARE[workload](size, seed)
        for scheduler in schedulers:
            layers.install_scheduler(recorder, scheduler, patched)
        run_start = time.perf_counter()
        result = run()
        run_end = time.perf_counter()
    finally:
        patched.remove()
    wall = run_end - run_start
    result.update(
        workload=workload,
        seed=seed,
        traced=trace,
        run_start=run_start,
        wall_s=wall,
        round_s=recorder.round_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if trace:
        result["trace"] = recorder.summary(wall)
        if spans_out:
            recorder.write_jsonl(spans_out, {"workload": workload, "seed": seed, "wall_s": wall})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    import layers

    try:
        result = run_once(args.workload, args.seed, bool(args.trace), args.spans_out, args.tiny)
    except layers.HookError as exc:
        print(f"hooked entry point missing: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
