"""Metrics collected by the simulator: JCT, makespan, utilisation timelines.

The paper's headline metrics (§6.1): average job completion time (JCT) as
the performance indicator and makespan as the resource-efficiency indicator.
Fig. 14 additionally plots per-slot running-task counts and *normalised* CPU
utilisation (busy CPU over allocated CPU) for workers and parameter servers
separately -- :class:`TimeSlot` captures exactly those series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import SimulationError


@dataclass(frozen=True)
class JobRecord:
    """Final accounting for one job."""

    job_id: str
    model: str
    mode: str
    arrival_time: float
    completion_time: Optional[float]
    total_steps: float
    scaling_time: float
    num_scalings: int
    chunks_moved: int
    #: Fault-injection accounting (zero in fault-free runs): crash-induced
    #: restarts and the raw training steps those crashes destroyed.
    num_restarts: int = 0
    steps_lost: float = 0.0

    @property
    def finished(self) -> bool:
        return self.completion_time is not None

    @property
    def jct(self) -> float:
        if self.completion_time is None:
            return math.inf
        return self.completion_time - self.arrival_time


@dataclass(frozen=True)
class TimeSlot:
    """One scheduling interval's cluster-wide snapshot (Fig. 14's series)."""

    time: float
    running_jobs: int
    running_tasks: int
    allocated_cpu: float
    busy_worker_cpu: float
    busy_ps_cpu: float
    allocated_worker_cpu: float
    allocated_ps_cpu: float

    @property
    def worker_utilization(self) -> float:
        """Normalised worker CPU utilisation in [0, 1]."""
        if self.allocated_worker_cpu <= 0:
            return 0.0
        return self.busy_worker_cpu / self.allocated_worker_cpu

    @property
    def ps_utilization(self) -> float:
        """Normalised parameter-server CPU utilisation in [0, 1]."""
        if self.allocated_ps_cpu <= 0:
            return 0.0
        return self.busy_ps_cpu / self.allocated_ps_cpu


def hash_decision(digest, now: float, allocations: Mapping, layouts: Mapping) -> None:
    """Fold one interval's decision into a running ``hashlib`` *digest*.

    The decision is ``(now, sorted (job_id, workers, ps, sorted layout))``:
    the fields of that interval's ``allocation_decided`` and
    ``placement_decided`` events, so a trace replays to the same digest.
    """
    record = sorted(
        (job_id, workers, ps, sorted((s, *tasks) for s, tasks in layouts.get(job_id, {}).items()))
        for job_id, (workers, ps) in allocations.items()
    )
    digest.update(repr((now, record)).encode())


@dataclass
class SimulationResult:
    """Everything one simulation run produced."""

    scheduler_name: str
    jobs: Dict[str, JobRecord]
    timeline: List[TimeSlot]
    interval: float
    seed: int
    #: SHA-256 hex over every interval's decision (:func:`hash_decision`);
    #: equal digests mean identical allocations and placements.
    decision_digest: Optional[str] = None
    #: Cumulative per-phase wall-clock profile of the run
    #: ({phase: {count, total, mean, max}} in seconds), populated when the
    #: simulation was handed a tracer or metrics registry (:mod:`repro.obs`).
    phase_timings: Optional[Dict[str, Dict[str, float]]] = None

    def __post_init__(self) -> None:
        if not self.jobs:
            raise SimulationError("a simulation result needs at least one job")

    # -- headline metrics ---------------------------------------------------------
    @property
    def finished_jobs(self) -> Tuple[JobRecord, ...]:
        return tuple(j for j in self.jobs.values() if j.finished)

    @property
    def all_finished(self) -> bool:
        return len(self.finished_jobs) == len(self.jobs)

    @property
    def average_jct(self) -> float:
        """Mean JCT over finished jobs (inf when nothing finished)."""
        finished = self.finished_jobs
        if not finished:
            return math.inf
        return sum(j.jct for j in finished) / len(finished)

    @property
    def jct_std(self) -> float:
        finished = self.finished_jobs
        if len(finished) < 2:
            return 0.0
        mean = self.average_jct
        return math.sqrt(
            sum((j.jct - mean) ** 2 for j in finished) / len(finished)
        )

    @property
    def makespan(self) -> float:
        """First arrival to last completion (inf if a job never finished)."""
        if not self.all_finished:
            return math.inf
        first = min(j.arrival_time for j in self.jobs.values())
        last = max(j.completion_time for j in self.jobs.values())
        return last - first

    def jct_percentile(self, q: float) -> float:
        """The q-th JCT percentile over finished jobs (q in [0, 100])."""
        if not 0 <= q <= 100:
            raise SimulationError("q must be in [0, 100]")
        finished = sorted(j.jct for j in self.finished_jobs)
        if not finished:
            return math.inf
        if len(finished) == 1:
            return finished[0]
        position = (q / 100) * (len(finished) - 1)
        lower = int(math.floor(position))
        upper = min(lower + 1, len(finished) - 1)
        weight = position - lower
        return finished[lower] * (1 - weight) + finished[upper] * weight

    def jct_by_model(self) -> Dict[str, float]:
        """Mean JCT per model name (finished jobs only)."""
        buckets: Dict[str, List[float]] = {}
        for record in self.finished_jobs:
            buckets.setdefault(record.model, []).append(record.jct)
        return {
            model: sum(values) / len(values)
            for model, values in sorted(buckets.items())
        }

    def jct_by_mode(self) -> Dict[str, float]:
        """Mean JCT per training mode (finished jobs only)."""
        buckets: Dict[str, List[float]] = {}
        for record in self.finished_jobs:
            buckets.setdefault(record.mode, []).append(record.jct)
        return {
            mode: sum(values) / len(values)
            for mode, values in sorted(buckets.items())
        }

    @property
    def total_scaling_time(self) -> float:
        return sum(j.scaling_time for j in self.jobs.values())

    @property
    def scaling_overhead_fraction(self) -> float:
        """Aggregate scaling time over makespan (the paper reports 2.54%)."""
        span = self.makespan
        if not math.isfinite(span) or span <= 0:
            return 0.0
        return self.total_scaling_time / (span * max(len(self.jobs), 1))

    # -- utilisation summaries -----------------------------------------------------
    def mean_worker_utilization(self) -> float:
        slots = [s for s in self.timeline if s.allocated_worker_cpu > 0]
        if not slots:
            return 0.0
        return sum(s.worker_utilization for s in slots) / len(slots)

    def mean_ps_utilization(self) -> float:
        slots = [s for s in self.timeline if s.allocated_ps_cpu > 0]
        if not slots:
            return 0.0
        return sum(s.ps_utilization for s in slots) / len(slots)

    def mean_running_tasks(self) -> float:
        slots = [s for s in self.timeline if s.running_jobs > 0]
        if not slots:
            return 0.0
        return sum(s.running_tasks for s in slots) / len(slots)

    def summary(self) -> Dict[str, float]:
        return {
            "average_jct": self.average_jct,
            "jct_std": self.jct_std,
            "makespan": self.makespan,
            "finished": float(len(self.finished_jobs)),
            "jobs": float(len(self.jobs)),
            "mean_running_tasks": self.mean_running_tasks(),
            "worker_utilization": self.mean_worker_utilization(),
            "ps_utilization": self.mean_ps_utilization(),
            "scaling_overhead_fraction": self.scaling_overhead_fraction,
        }


def aggregate_results(results: Sequence[SimulationResult]) -> Dict[str, float]:
    """Mean and standard deviation of JCT/makespan across repeats (Fig. 13)."""
    if not results:
        raise SimulationError("no results to aggregate")
    jcts = [r.average_jct for r in results]
    spans = [r.makespan for r in results]

    def _mean(values: Sequence[float]) -> float:
        return sum(values) / len(values)

    def _std(values: Sequence[float]) -> float:
        if len(values) < 2:
            return 0.0
        mean = _mean(values)
        return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))

    return {
        "average_jct": _mean(jcts),
        "jct_std": _std(jcts),
        "makespan": _mean(spans),
        "makespan_std": _std(spans),
        "runs": float(len(results)),
    }
