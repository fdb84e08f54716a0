"""Scheduler interface shared by Optimus and the baselines.

Every scheduler sees the same picture at each scheduling-interval boundary:
a cleared working copy of the cluster (elastic scaling is checkpoint-based,
§5.4, so every interval re-places from scratch) and one :class:`JobView` per
active job. It returns a :class:`SchedulingDecision`: per-job task counts
plus a per-server layout. Jobs missing from the decision are paused for the
interval (§4.2). :func:`record_decision` is the one post-decision step the
simulator and the deployment control loop share.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.core.allocation import TaskAllocation, _safe_speed
from repro.core.placement import JobLayout
from repro.obs.estimators import EstimatorTelemetry
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.spans import NULL_SPAN_TRACER, SpanTracer
from repro.obs.tracer import EVENT_ALLOCATION_DECIDED, EVENT_PLACEMENT_DECIDED, NULL_TRACER, Tracer
from repro.workloads.job import JobSpec
from repro.workloads.speed import MODE_SYNC

#: Floor on the combined statistical efficiency served to goodput-style
#: policies: a nearly-converged job still has positive worth (finishing it
#: frees its resources), so its efficiency never collapses to zero.
MIN_STATISTICAL_EFFICIENCY = 0.05


@dataclass
class JobView:
    """What a scheduler is allowed to know about one active job.

    ``remaining_steps`` and ``speed`` come from the online models of §3 --
    the simulator builds them from fitted estimators, never from ground
    truth. §6.1 gives the same estimates to Tetris, which has no estimator
    of its own.
    """

    spec: JobSpec
    remaining_steps: float
    speed: Callable[[int, int], float]
    #: Number of loss observations collected so far (for the §4.1 priority
    #: downgrade of jobs whose predictions are still unreliable).
    observation_count: int = 0
    #: Fraction of predicted total work already done, in [0, 1].
    progress: float = 0.0
    #: The allocation the job ran with during the previous interval
    #: ((0, 0) if it was paused or just arrived).
    current_allocation: TaskAllocation = TaskAllocation(0, 0)
    #: One-time cost (seconds) of changing this job's configuration: the
    #: §5.4 checkpoint + restart + restore cycle. Used by cost-aware
    #: rescaling (§7 "Scaling overhead").
    rescale_cost: float = 0.0
    #: Pollux-style statistical efficiency of the job's *next* training
    #: step, derived from the fitted loss curve: the predicted marginal
    #: loss decrease now relative to the start of the current training
    #: phase, in (0, 1]. 1.0 when no fit is available (young jobs, oracle
    #: estimator modes).
    loss_efficiency: float = 1.0

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    def estimated_time(self, workers: int, ps: int) -> float:
        """Estimated completion time under a hypothetical allocation.

        A degenerate fit (``FittingError``, counted as
        ``est.fallback.speed_eval``) or a non-positive or NaN speed gives
        an infinite time; any other exception propagates.
        """
        if workers < 1 or ps < 1:
            return float("inf")
        speed = _safe_speed(self.speed, ps, workers)
        if speed <= 0:
            return float("inf")
        return self.remaining_steps / speed

    def statistical_efficiency(self, workers: int) -> float:
        """Effective convergence progress per raw training step, in (0, 1].

        The Pollux decomposition: goodput = throughput x statistical
        efficiency. Here efficiency is the product of (a) the loss-curve
        term ``loss_efficiency`` (diminishing returns as the job nears
        convergence) and (b) the §5.2 asynchrony discount -- stale updates
        make each raw step worth ``1 / (1 + staleness * (w - 1))`` steps of
        convergence progress. Synchronous jobs only pay (a). Floored at
        ``MIN_STATISTICAL_EFFICIENCY`` so finishing jobs are never starved.
        """
        eff = min(max(self.loss_efficiency, 0.0), 1.0)
        if self.spec.mode != MODE_SYNC and workers > 1:
            eff /= 1.0 + self.spec.profile.staleness_factor * (workers - 1)
        return max(eff, MIN_STATISTICAL_EFFICIENCY)

    def goodput(self, ps: int, workers: int) -> float:
        """Predicted goodput (effective steps/second) of a configuration.

        ``speed(p, w) * statistical_efficiency(w)``: what the Pollux-style
        allocator maximises the marginal gain of, instead of raw speed.
        Unusable speeds give 0, as in :meth:`estimated_time`.
        """
        if workers < 1 or ps < 1:
            return 0.0
        speed = _safe_speed(self.speed, ps, workers)
        if speed <= 0:
            return 0.0
        return speed * self.statistical_efficiency(workers)


@dataclass(frozen=True)
class SchedulingDecision:
    """Allocations plus layouts for one interval."""

    allocations: Dict[str, TaskAllocation] = field(default_factory=dict)
    layouts: Dict[str, JobLayout] = field(default_factory=dict)

    @property
    def scheduled_jobs(self) -> Tuple[str, ...]:
        """Jobs that will actually run this interval (allocated AND placed)."""
        return tuple(j for j in self.allocations if j in self.layouts)

    @property
    def total_tasks(self) -> int:
        return sum(
            self.allocations[j].total for j in self.scheduled_jobs
        )

    def validate(self) -> None:
        """Check allocations and layouts are mutually consistent."""
        for job_id, layout in self.layouts.items():
            if job_id not in self.allocations:
                raise ValueError(f"layout for unallocated job {job_id!r}")
            alloc = self.allocations[job_id]
            workers = sum(nw for nw, _ in layout.values())
            ps = sum(np_ for _, np_ in layout.values())
            if (workers, ps) != (alloc.workers, alloc.ps):
                raise ValueError(
                    f"job {job_id!r}: layout totals ({workers}, {ps}) "
                    f"!= allocation ({alloc.workers}, {alloc.ps})"
                )


def record_decision(
    decision: SchedulingDecision,
    views: Sequence[JobView],
    now: float,
    tracer: Tracer,
    estimators: EstimatorTelemetry,
    steps_done: Mapping[str, float],
) -> None:
    """Trace a decision and note what the online models predict for it.

    Emits ``allocation_decided`` per allocation and ``placement_decided``
    per layout. With telemetry on, every allocation with a worker -- placed
    or paused -- records its predicted speed and total steps (``steps_done``
    plus the view's remaining steps).
    """
    if tracer:
        for job_id, alloc in decision.allocations.items():
            tracer.emit(
                EVENT_ALLOCATION_DECIDED, now, job_id=job_id, workers=alloc.workers, ps=alloc.ps
            )
        for job_id, layout in decision.layouts.items():
            tracer.emit(
                EVENT_PLACEMENT_DECIDED,
                now,
                job_id=job_id,
                servers=len(layout),
                layout={server: [nw, np_] for server, (nw, np_) in sorted(layout.items())},
            )
    if not estimators:
        return
    by_id = {view.job_id: view for view in views}
    for job_id, alloc in decision.allocations.items():
        view = by_id.get(job_id)
        if view is None or alloc.workers < 1:
            continue
        estimators.record_speed_prediction(job_id, view.speed(alloc.ps, alloc.workers))
        estimators.record_total_prediction(
            job_id, steps_done.get(job_id, 0.0) + view.remaining_steps
        )


class Scheduler(abc.ABC):
    """Base class: one :meth:`schedule` call per scheduling interval."""

    #: Human-readable name used in reports and plots.
    name: str = "scheduler"

    #: Observability hooks -- no-op class-level defaults so schedulers stay
    #: zero-cost when uninstrumented; :meth:`instrument` overrides them per
    #: instance (the engine and control loop call it automatically).
    tracer: Tracer = NULL_TRACER
    metrics: MetricsRegistry = NULL_REGISTRY
    spans: SpanTracer = NULL_SPAN_TRACER

    def instrument(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanTracer] = None,
    ) -> "Scheduler":
        """Attach observability sinks; returns self for chaining."""
        if tracer is not None:
            self.tracer = tracer
        if metrics is not None:
            self.metrics = metrics
        if spans is not None:
            self.spans = spans
        return self

    @abc.abstractmethod
    def schedule(
        self, cluster: Cluster, jobs: Sequence[JobView]
    ) -> SchedulingDecision:
        """Produce this interval's decision.

        *cluster* is a cleared working copy -- implementations may mutate it
        freely while building their placement.
        """

    def notify_node_events(
        self,
        failed: Sequence[str] = (),
        recovered: Sequence[str] = (),
    ) -> None:
        """Hook: node crash/cordon/recovery events from the faults layer.

        The engine calls this before scheduling whenever the server set
        changed. The default is a no-op; schedulers holding cluster-shaped
        state (e.g. a :class:`~repro.core.placement.PlacementCache`) use it
        to invalidate.
        """

    def notify_jobs_finished(self, job_ids: Sequence[str]) -> None:
        """Hook: these jobs completed and will never be scheduled again.

        The engine calls this at the end of the interval in which they
        finished. The default is a no-op; schedulers holding per-job state
        (e.g. a :class:`~repro.core.placement.PlacementCache`) drop it.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
