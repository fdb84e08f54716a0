"""Composing an allocation policy and a placement policy into a scheduler.

:class:`CompositeScheduler` is the one scheduler class behind every name in
this library. :func:`make_scheduler` builds one from a name: a preset such
as ``"optimus"`` or ``"drf"``, or an ``"<allocation>+<placement>"`` hybrid
for the §6.4 ablations ("DRF allocation + Optimus placement" and friends).
Names resolve through three plain tables: :data:`ALLOCATION_POLICIES`,
:data:`PLACEMENT_POLICIES` and :data:`PRESETS`.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.common.errors import SchedulingError
from repro.core.allocation import TaskAllocation
from repro.core.placement import (
    JobLayout,
    PlacementCache,
    PlacementRequest,
    PlacementResult,
    _apply_layout,
    layout_counts,
)
from repro.obs.ledger import active_ledger
from repro.schedulers.base import JobView, Scheduler, SchedulingDecision
from repro.schedulers.goodput import goodput_allocation
from repro.schedulers.oasis import oasis_allocation
from repro.schedulers.policies import (
    drf_allocation,
    fifo_allocation,
    optimus_allocation,
    optimus_placement,
    pack_placement,
    spread_placement,
    srtf_allocation,
    tetris_allocation,
)

AllocationPolicy = Callable[[Sequence[JobView], ResourceVector], Dict[str, TaskAllocation]]
PlacementPolicy = Callable[[Cluster, Sequence[PlacementRequest]], PlacementResult]

#: Allocation halves: ``(jobs, capacity, **kwargs) -> {job_id: TaskAllocation}``.
ALLOCATION_POLICIES: Dict[str, AllocationPolicy] = {
    "optimus": optimus_allocation,
    "drf": drf_allocation,
    "tetris": tetris_allocation,
    "fifo": fifo_allocation,
    "srtf": srtf_allocation,
    "goodput": goodput_allocation,
    "oasis": oasis_allocation,
}

#: Placement halves: ``(cluster, requests) -> PlacementResult``.
PLACEMENT_POLICIES: Dict[str, PlacementPolicy] = {
    "optimus": optimus_placement,
    "spread": spread_placement,
    "pack": pack_placement,
}

#: Short names for the paper's scheduler and its baselines, as hybrid specs.
PRESETS: Dict[str, str] = {
    "optimus": "optimus+optimus",  # §4.1 allocation + §4.2 placement
    "drf": "drf+spread",  # fairness baseline, Kubernetes-default placement
    "tetris": "tetris+pack",
    "fifo": "fifo+spread",  # static requests in arrival order
    "srtf": "srtf+optimus",
    "goodput": "goodput+optimus",  # Pollux-style
    # OASiS-style admission; packing leaves contiguous room for later,
    # higher-priced arrivals.
    "oasis": "oasis+pack",
}


def _lookup(kind: str, table: Dict[str, Callable], name: str) -> Callable:
    try:
        return table[name]
    except KeyError:
        raise SchedulingError(
            f"unknown {kind} policy {name!r}; available: {', '.join(sorted(table))}"
        ) from None


class CompositeScheduler(Scheduler):
    """A scheduler assembled from named policies.

    Parameters
    ----------
    allocation:
        A key of :data:`ALLOCATION_POLICIES`.
    placement:
        A key of :data:`PLACEMENT_POLICIES`.
    rescale_threshold:
        §7 cost-aware rescaling: a running job moves to a new allocation
        only when its estimated completion-time saving exceeds this many
        times its rescale cost (0 disables the check).
    allocation_kwargs:
        Keyword arguments forwarded to the allocation policy. Only
        ``optimus`` takes one: ``priority_factor``, the §4.1 young-job
        downgrade. A keyword the policy does not accept raises
        :class:`SchedulingError`.
    placement_cache:
        Opt-in layout memo (see :class:`~repro.core.placement.PlacementCache`):
        jobs whose allocation did not change between scheduling points
        replay their previous layout (after re-validation against the live
        cluster) instead of re-deriving it. Node crash/recovery events
        reported through :meth:`notify_node_events` drop the cache. Off by
        default because replayed layouts can differ from fresh placement.
    """

    def __init__(
        self,
        allocation: str,
        placement: str,
        name: str = None,
        rescale_threshold: float = 0.0,
        placement_cache: bool = False,
        **allocation_kwargs,
    ):
        if rescale_threshold < 0:
            raise SchedulingError("rescale_threshold must be non-negative")
        self.allocation_policy = _lookup("allocation", ALLOCATION_POLICIES, allocation)
        self.placement_policy = _lookup("placement", PLACEMENT_POLICIES, placement)
        # Fail at construction, not mid-run, on a keyword the policy lacks.
        accepted = list(inspect.signature(self.allocation_policy).parameters)[2:]
        unknown = sorted(set(allocation_kwargs) - set(accepted))
        if unknown:
            raise SchedulingError(
                f"allocation policy {allocation!r} takes no keyword "
                f"{', '.join(unknown)}; it accepts: {', '.join(accepted) or '(none)'}"
            )
        self.allocation_kwargs = allocation_kwargs
        self.rescale_threshold = float(rescale_threshold)
        self.placement_cache = PlacementCache() if placement_cache else None
        self.name = name or f"{allocation}+{placement}"

    def notify_node_events(self, failed=(), recovered=()) -> None:
        if self.placement_cache is not None and (failed or recovered):
            self.placement_cache.invalidate_all()
            self.metrics.counter("placement.cache_invalidations").inc()

    def notify_jobs_finished(self, job_ids) -> None:
        if self.placement_cache is not None:
            for job_id in job_ids:
                self.placement_cache.forget_job(job_id)

    def _apply_rescale_hysteresis(
        self,
        allocations: Dict[str, TaskAllocation],
        views: Dict[str, JobView],
    ) -> Dict[str, TaskAllocation]:
        """Cost-aware rescaling (§7 "Scaling overhead").

        Changing a job's configuration costs a checkpoint/restart cycle
        (``view.rescale_cost`` seconds). A running job keeps its current
        allocation unless the *estimated completion-time saving* of the new
        one exceeds ``rescale_threshold`` times that cost -- with threshold
        1.0, a job only rescales when the move pays for itself.
        """
        if self.rescale_threshold <= 0:
            return allocations
        adjusted: Dict[str, TaskAllocation] = {}
        for job_id, new_alloc in allocations.items():
            view = views[job_id]
            current = view.current_allocation
            if (
                current.workers < 1
                or current.ps < 1
                or new_alloc == current
                or view.rescale_cost <= 0
            ):
                adjusted[job_id] = new_alloc
                continue
            t_current = view.estimated_time(current.workers, current.ps)
            t_new = view.estimated_time(new_alloc.workers, new_alloc.ps)
            saving = t_current - t_new
            if saving > self.rescale_threshold * view.rescale_cost:
                adjusted[job_id] = new_alloc
            else:
                adjusted[job_id] = current
        return adjusted

    def schedule(
        self, cluster: Cluster, jobs: Sequence[JobView]
    ) -> SchedulingDecision:
        views = {v.job_id: v for v in jobs}
        if self.placement_cache is not None:
            # A job absent from the round has finished or left: drop its
            # layout rather than keep it for the life of the scheduler.
            self.placement_cache.retain(views)
        if not jobs:
            return SchedulingDecision()
        ledger = active_ledger()
        # Allocation works against what is actually free: foreign tenants'
        # pods or background reservations may already occupy the cluster.
        with self.spans.span("allocate", jobs=len(jobs)):
            allocations: Dict[str, TaskAllocation] = self.allocation_policy(
                jobs, cluster.total_available, **self.allocation_kwargs
            )
            allocations = self._apply_rescale_hysteresis(allocations, views)
        requests = [
            PlacementRequest(
                job_id=job_id,
                workers=alloc.workers,
                ps=alloc.ps,
                worker_demand=views[job_id].spec.worker_demand,
                ps_demand=views[job_id].spec.ps_demand,
            )
            for job_id, alloc in allocations.items()
            if alloc.workers >= 1 and alloc.ps >= 1
        ]
        with self.spans.span("place", requests=len(requests)):
            cache = self.placement_cache
            layouts: Dict[str, JobLayout] = {}
            fresh = requests
            if cache is not None:
                # Replay validated layouts for unchanged allocations; they
                # occupy the cluster first, so fresh placement packs the
                # remaining jobs around them.
                fresh = []
                hits = 0
                for request in requests:
                    cached = cache.lookup(request)
                    if cached is not None and cache.validate(
                        cluster, request, cached
                    ):
                        _apply_layout(cluster, request, cached)
                        layouts[request.job_id] = cached
                        hits += 1
                        if ledger:
                            ledger.record_placement(
                                request.job_id, "cache", len(cached)
                            )
                    else:
                        fresh.append(request)
                cache.hits += hits
                cache.misses += len(fresh)
                if hits:
                    self.metrics.counter("placement.cache_hits").inc(float(hits))
                if fresh:
                    self.metrics.counter("placement.cache_misses").inc(
                        float(len(fresh))
                    )
            placement = self.placement_policy(cluster, fresh)
            layouts.update(placement.layouts)
            # The policy shrinks what fragmentation rejects; a job it had
            # to retry runs at the counts its layout holds.
            retried = set(placement.retried)
            placed = [j for j in allocations if j in layouts and j not in retried]
            placed += [j for j in placement.retried if j in layouts]
            final_allocations = {
                j: TaskAllocation(*layout_counts(layouts[j])) if j in retried else allocations[j]
                for j in placed
            }
            if cache is not None:
                for job_id, layout in layouts.items():
                    alloc = final_allocations[job_id]
                    cache.store(
                        PlacementRequest(
                            job_id=job_id,
                            workers=alloc.workers,
                            ps=alloc.ps,
                            worker_demand=views[job_id].spec.worker_demand,
                            ps_demand=views[job_id].spec.ps_demand,
                        ),
                        layout,
                    )
                for job_id in allocations:
                    if job_id not in layouts:
                        cache.forget_job(job_id)
        decision = SchedulingDecision(
            allocations=final_allocations, layouts=layouts
        )
        decision.validate()
        return decision


def make_scheduler(name: str, **kwargs) -> CompositeScheduler:
    """Build the scheduler named by a preset or an ``alloc+place`` spec.

    Presets map through :data:`PRESETS`; any other name is parsed as
    ``"<allocation>+<placement>"``, e.g. ``"drf+optimus"`` is DRF
    allocation with Optimus placement (Fig. 18). *kwargs* go to
    :class:`CompositeScheduler`. Unknown names raise
    :class:`SchedulingError` listing every preset and half.
    """
    spec = PRESETS.get(name, name)
    if "+" not in spec:
        raise SchedulingError(
            f"unknown scheduler policy {name!r}; available: "
            f"{', '.join(sorted(PRESETS))} "
            f"(or an '<allocation>+<placement>' hybrid from "
            f"allocations {', '.join(sorted(ALLOCATION_POLICIES))} and "
            f"placements {', '.join(sorted(PLACEMENT_POLICIES))})"
        )
    allocation, placement = spec.split("+", 1)
    return CompositeScheduler(allocation, placement, name=name, **kwargs)
