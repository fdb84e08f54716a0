"""Experiment harness: repeated runs, scheduler comparisons, normalisation.

The paper repeats each experiment 3 times and reports averages (§6.1), then
presents most results *normalised to Optimus* (Figs. 11, 16-19). This module
packages that methodology so every bench regenerating an evaluation figure
is a few lines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector, cpu_mem
from repro.common.errors import SimulationError
from repro.core.allocation import AllocationRequest, allocate
from repro.core.placement import PlacementRequest, place_jobs
from repro.schedulers.composite import make_scheduler
from repro.sim.engine import SimConfig, Simulation
from repro.sim.metrics import SimulationResult, aggregate_results
from repro.workloads.job import JobSpec

#: A factory producing the job trace for a given repeat index, so repeats
#: use different (but seed-determined) workloads like the paper's reruns.
WorkloadFactory = Callable[[int], Sequence[JobSpec]]


@dataclass(frozen=True)
class SchedulerStats:
    """Aggregated metrics for one scheduler across repeats."""

    name: str
    average_jct: float
    jct_std: float
    makespan: float
    makespan_std: float
    runs: int
    results: Sequence[SimulationResult]


def run_repeats(
    cluster_factory: Callable[[], Cluster],
    scheduler_name: str,
    workload: WorkloadFactory,
    config: SimConfig,
    repeats: int = 3,
) -> SchedulerStats:
    """Run one scheduler over *repeats* seeded workloads and aggregate."""
    if repeats < 1:
        raise SimulationError("repeats must be >= 1")
    results: List[SimulationResult] = []
    for i in range(repeats):
        scheduler = make_scheduler(scheduler_name)
        run_config = replace(config, seed=config.seed + i)
        sim = Simulation(cluster_factory(), scheduler, workload(i), run_config)
        results.append(sim.run())
    agg = aggregate_results(results)
    return SchedulerStats(
        name=scheduler_name,
        average_jct=agg["average_jct"],
        jct_std=agg["jct_std"],
        makespan=agg["makespan"],
        makespan_std=agg["makespan_std"],
        runs=repeats,
        results=tuple(results),
    )


def compare_schedulers(
    cluster_factory: Callable[[], Cluster],
    scheduler_names: Sequence[str],
    workload: WorkloadFactory,
    config: Optional[SimConfig] = None,
    repeats: int = 3,
) -> Dict[str, SchedulerStats]:
    """Run several schedulers over the *same* seeded workloads."""
    config = config or SimConfig()
    return {
        name: run_repeats(cluster_factory, name, workload, config, repeats)
        for name in scheduler_names
    }


def normalized(
    stats: Dict[str, SchedulerStats], baseline: str = "optimus"
) -> Dict[str, Dict[str, float]]:
    """JCT and makespan of every scheduler relative to *baseline* (Fig. 11).

    A value of 2.39 for DRF's JCT means DRF's average JCT is 2.39x the
    baseline's -- exactly how the paper's normalised bar charts read.
    """
    if baseline not in stats:
        raise SimulationError(f"baseline {baseline!r} missing from stats")
    base = stats[baseline]
    if base.average_jct <= 0 or base.makespan <= 0:
        raise SimulationError("baseline metrics must be positive")
    return {
        name: {
            "jct": s.average_jct / base.average_jct,
            "makespan": s.makespan / base.makespan,
        }
        for name, s in stats.items()
    }


def format_comparison(
    stats: Dict[str, SchedulerStats], baseline: str = "optimus"
) -> str:
    """A printable table: absolute and normalised metrics per scheduler."""
    norm = normalized(stats, baseline)
    lines = [
        f"{'scheduler':14s} {'JCT (h)':>9s} {'±std':>7s} {'norm':>6s} "
        f"{'makespan (h)':>13s} {'±std':>7s} {'norm':>6s}"
    ]
    for name, s in stats.items():
        lines.append(
            f"{name:14s} {s.average_jct / 3600:9.2f} {s.jct_std / 3600:7.2f} "
            f"{norm[name]['jct']:6.2f} {s.makespan / 3600:13.2f} "
            f"{s.makespan_std / 3600:7.2f} {norm[name]['makespan']:6.2f}"
        )
    return "\n".join(lines)


def _fig12_speed(p: int, w: int) -> float:
    # A fitted-function stand-in (Eqn-3 form with typical coefficients).
    return w / (2.0 + 3.0 * w / p + 0.02 * w + 0.01 * p)


def fig12_round(num_nodes: int, num_jobs: int) -> Tuple[float, int, int]:
    """Time one full Fig.-12 scheduling round: §4.1 allocation plus §4.2
    placement of *num_jobs* identical-shape jobs on *num_nodes* 16-CPU /
    80-GB servers.

    Task counts per job are capped at 28 (14 workers + 14 PS). Returns
    ``(seconds, tasks allocated, jobs placed)``; the placed count includes
    the jobs :func:`~repro.core.placement.place_jobs` had to shrink to fit.
    """
    demand = cpu_mem(5, 10)
    capacity = ResourceVector({"cpu": 16 * num_nodes, "memory": 80 * num_nodes})
    requests = [
        AllocationRequest(
            job_id=f"j{i}",
            remaining_work=1e5 * (1 + i % 7),
            speed=_fig12_speed,
            worker_demand=demand,
            ps_demand=demand,
            max_workers=14,
            max_ps=14,
        )
        for i in range(num_jobs)
    ]
    start = time.perf_counter()
    allocation = allocate(requests, capacity)
    cluster = Cluster.homogeneous(num_nodes, cpu_mem(16, 80))
    placement_requests = [
        PlacementRequest(j, a.workers, a.ps, demand, demand)
        for j, a in allocation.allocations.items()
    ]
    placement = place_jobs(cluster, placement_requests)
    elapsed = time.perf_counter() - start
    tasks = sum(a.total for a in allocation.allocations.values())
    return elapsed, tasks, len(placement.layouts)
