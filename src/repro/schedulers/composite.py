"""Composing an allocation policy and a placement policy into a scheduler.

:class:`CompositeScheduler` is the workhorse behind every named scheduler in
this library, including the §6.4 ablation hybrids ("Optimus allocation +
DRF placement" and friends).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.common.errors import SchedulingError
from repro.core.allocation import TaskAllocation
from repro.core.placement import (
    JobLayout,
    PlacementCache,
    PlacementRequest,
    _apply_layout,
)
from repro.obs.ledger import active_ledger
from repro.schedulers.base import JobView, Scheduler, SchedulingDecision
from repro.schedulers.policies import ALLOCATION_POLICIES, PLACEMENT_POLICIES  # noqa: F401
from repro.schedulers.registry import (
    register_scheduler,
    resolve_allocation,
    resolve_placement,
    resolve_scheduler,
)


class CompositeScheduler(Scheduler):
    """A scheduler assembled from named policies.

    Parameters
    ----------
    allocation:
        One of ``"optimus"``, ``"drf"``, ``"tetris"``, ``"fifo"``.
    placement:
        One of ``"optimus"``, ``"spread"``, ``"pack"``.
    allocation_kwargs:
        Extra keyword arguments forwarded to the allocation policy (e.g.
        ``priority_factor`` for Optimus).
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
        # Registry lookups raise SchedulingError listing the registered
        # names on a miss -- an unknown policy never surfaces as a KeyError.
        self.allocation_policy = resolve_allocation(allocation)
        self.placement_policy = resolve_placement(placement)
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
            if ledger:
                for job_id, layout in placement.layouts.items():
                    ledger.record_placement(job_id, "fresh", len(layout))
            final_allocations = {
                job_id: alloc
                for job_id, alloc in allocations.items()
                if job_id in layouts
            }
            # Allocation works against aggregate capacity (constraint (7)),
            # so fragmentation can make a granted allocation unplaceable.
            # Rather than pausing such a job for the whole interval (which
            # would starve large jobs indefinitely under a persistent load),
            # shrink its task counts and retry until it fits or even (1, 1)
            # is rejected.
            # Capacity only shrinks while this loop runs, so once a (1, 1)
            # request of some demand shape has been rejected, every later
            # job with the same shape must be rejected too -- skip its
            # retries outright (thousands of unplaced jobs share a handful
            # of shapes at fleet scale).
            hopeless_shapes = set()
            for job_id in placement.unplaced:
                alloc = allocations[job_id]
                workers, ps = alloc.workers, alloc.ps
                shape = (
                    views[job_id].spec.worker_demand,
                    views[job_id].spec.ps_demand,
                )
                if shape in hopeless_shapes:
                    if ledger:
                        ledger.record_denial(
                            job_id,
                            "hopeless_shape",
                            workers=workers,
                            ps=ps,
                            shared_shape=True,
                        )
                    continue
                while True:
                    retry = PlacementRequest(
                        job_id=job_id,
                        workers=workers,
                        ps=ps,
                        worker_demand=shape[0],
                        ps_demand=shape[1],
                    )
                    result = self.placement_policy(cluster, [retry])
                    if job_id in result.layouts:
                        layouts[job_id] = result.layouts[job_id]
                        final_allocations[job_id] = TaskAllocation(workers, ps)
                        if ledger:
                            if (workers, ps) != (alloc.workers, alloc.ps):
                                ledger.record_shrink(
                                    job_id,
                                    (alloc.workers, alloc.ps),
                                    (workers, ps),
                                )
                            ledger.record_placement(
                                job_id, "fresh", len(layouts[job_id])
                            )
                        break
                    if (workers, ps) == (1, 1):
                        hopeless_shapes.add(shape)
                        if ledger:
                            ledger.record_denial(
                                job_id,
                                "hopeless_shape",
                                workers=alloc.workers,
                                ps=alloc.ps,
                            )
                        break  # genuinely no room; paused (§4.2)
                    workers = max(1, workers // 2)
                    ps = max(1, ps // 2)
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


@register_scheduler("optimus")
class OptimusScheduler(CompositeScheduler):
    """The paper's scheduler: §4.1 allocation + §4.2 placement.

    ``priority_factor`` < 1 enables the end-of-§4.1 downgrade of jobs whose
    predictions are still unreliable (the paper evaluates 0.95 in §6.3).
    """

    def __init__(
        self,
        priority_factor: float = 1.0,
        rescale_threshold: float = 0.0,
        placement_cache: bool = False,
        name: str = "optimus",
    ):
        super().__init__(
            "optimus",
            "optimus",
            name=name,
            rescale_threshold=rescale_threshold,
            placement_cache=placement_cache,
            priority_factor=priority_factor,
        )


@register_scheduler("drf")
class DRFScheduler(CompositeScheduler):
    """The fairness baseline: DRF allocation + load-balanced placement."""

    def __init__(self, name: str = "drf"):
        super().__init__("drf", "spread", name=name)


@register_scheduler("tetris")
class TetrisScheduler(CompositeScheduler):
    """The Tetris baseline: packing+SRTF allocation + packing placement."""

    def __init__(self, name: str = "tetris"):
        super().__init__("tetris", "pack", name=name)


@register_scheduler("fifo")
class FIFOScheduler(CompositeScheduler):
    """Static first-in-first-out scheduling of the owners' fixed requests."""

    def __init__(self, name: str = "fifo"):
        super().__init__("fifo", "spread", name=name)


@register_scheduler("srtf")
class SRTFScheduler(CompositeScheduler):
    """Shortest-remaining-time-first allocation + Optimus placement."""

    def __init__(self, name: str = "srtf"):
        super().__init__("srtf", "optimus", name=name)


def make_scheduler(name: Optional[str] = None, **kwargs) -> Scheduler:
    """Build a scheduler from a registered name or an ``alloc+place`` spec.

    A thin alias of :func:`repro.schedulers.registry.resolve_scheduler`:
    registered presets (``optimus``, ``drf``, ``tetris``, ``fifo``,
    ``srtf``, ``goodput``, ``oasis``, ...) resolve directly; any other name
    is parsed as ``"<allocation>+<placement>"`` for ablation hybrids, e.g.
    ``"drf+optimus"`` is DRF allocation with Optimus placement (Fig. 18).
    ``None`` honours the ``REPRO_POLICY`` environment variable.
    """
    return resolve_scheduler(name, **kwargs)
