"""Allocation and placement policies, composable into schedulers.

Separating the two halves is what enables the paper's §6.4 ablations: Fig. 18
swaps the allocation policy while keeping Optimus placement, Fig. 19 swaps
the placement policy while keeping Optimus allocation.

Allocation policies (``jobs, capacity -> {job_id: TaskAllocation}``):

* ``optimus`` -- the §4.1 marginal-gain heuristic.
* ``drf``     -- Dominant Resource Fairness, work-conserving, tasks granted
  as 1-worker+1-PS bundles (§6.1 pins the baselines' PS:worker ratio to 1:1).
* ``tetris``  -- Tetris' combined packing + shortest-remaining-time score,
  also in 1:1 bundles.
* ``fifo``    -- arrival order, each job gets exactly its static request.

Placement policies (``cluster, requests -> PlacementResult``):

* ``optimus`` -- §4.2's fewest-servers / even-spread scheme.
* ``spread``  -- load balancing: each task to the least-loaded server
  (Kubernetes' default behaviour, used by the DRF baseline).
* ``pack``    -- Tetris-style: each task to the server whose remaining
  resources align best with the task (minimises fragmentation).

:mod:`repro.schedulers.composite` maps these names to the functions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.cluster.server import ROLE_PS, ROLE_WORKER, Server, TaskKey
from repro.core.allocation import (
    MAX_TASKS_PER_JOB,
    AllocationRequest,
    TaskAllocation,
    allocate,
)
from repro.core.placement import (
    JobLayout,
    PlacementRequest,
    PlacementResult,
    place_jobs,
    place_round,
)
from repro.schedulers.base import JobView

#: Young-job cut-off for the §4.1 priority downgrade: jobs with fewer
#: observations than this get their marginal gain scaled by the factor.
YOUNG_JOB_OBSERVATIONS = 50

#: Tetris' weight on shortest-remaining-time against packing alignment.
TETRIS_DURATION_WEIGHT = 0.5


# ---------------------------------------------------------------------------
# Allocation policies
# ---------------------------------------------------------------------------

def optimus_allocation(
    jobs: Sequence[JobView],
    capacity: ResourceVector,
    priority_factor: float = 1.0,
) -> Dict[str, TaskAllocation]:
    """The §4.1 marginal-gain allocator over fitted models."""
    requests = []
    for view in jobs:
        young = view.observation_count < YOUNG_JOB_OBSERVATIONS
        requests.append(
            AllocationRequest(
                job_id=view.job_id,
                remaining_work=max(view.remaining_steps, 0.0),
                speed=view.speed,
                worker_demand=view.spec.worker_demand,
                ps_demand=view.spec.ps_demand,
                priority=priority_factor if young else 1.0,
            )
        )
    result = allocate(requests, capacity)
    return dict(result.allocations)


def _bundle_fits(
    used: ResourceVector, view: JobView, capacity: ResourceVector
) -> bool:
    bundle = view.spec.worker_demand + view.spec.ps_demand
    return (used + bundle).fits_within(capacity)


def drf_allocation(
    jobs: Sequence[JobView], capacity: ResourceVector
) -> Dict[str, TaskAllocation]:
    """Work-conserving DRF with 1-worker+1-PS bundles.

    Progressive filling: repeatedly grant a bundle to the job with the
    smallest dominant share until no bundle fits, mirroring the
    fairness-based scheduler the paper compares against.
    """
    allocations = {v.job_id: TaskAllocation(0, 0) for v in jobs}
    used = ResourceVector()
    consumed = {v.job_id: ResourceVector() for v in jobs}
    views = {v.job_id: v for v in jobs}
    active = set(views)
    while active:
        job_id = min(
            active,
            key=lambda j: (consumed[j].dominant_share(capacity), j),
        )
        view = views[job_id]
        alloc = allocations[job_id]
        if alloc.workers >= MAX_TASKS_PER_JOB or not _bundle_fits(
            used, view, capacity
        ):
            active.discard(job_id)
            continue
        bundle = view.spec.worker_demand + view.spec.ps_demand
        used = used + bundle
        consumed[job_id] = consumed[job_id] + bundle
        allocations[job_id] = TaskAllocation(alloc.workers + 1, alloc.ps + 1)
    return {j: a for j, a in allocations.items() if a.workers >= 1}


def tetris_allocation(
    jobs: Sequence[JobView], capacity: ResourceVector
) -> Dict[str, TaskAllocation]:
    """Tetris-style allocation: packing alignment + shortest remaining time.

    Tetris does not resize jobs; it *orders* them. Each job asks for its
    static 1:1 request (§6.1 pins the baselines' PS:worker ratio), and jobs
    are admitted greedily by a weighted sum of (a) how well their demand
    aligns with the remaining resources (favouring dense packing) and
    (b) their inverse remaining duration (favouring short jobs; §6.1 feeds
    Tetris the Optimus estimators for this). Jobs that no longer fit wait
    for the next interval.
    """
    used = ResourceVector()
    views = {v.job_id: v for v in jobs}
    requests = {
        v.job_id: TaskAllocation(
            v.spec.requested_workers, v.spec.requested_workers
        )
        for v in jobs
    }
    allocations: Dict[str, TaskAllocation] = {}
    pending = set(views)

    def score(job_id: str) -> float:
        view = views[job_id]
        request = requests[job_id]
        demand = view.spec.task_demand(request.workers, request.ps)
        available = capacity - used
        # Alignment: normalised dot product of demand with availability.
        alignment = 0.0
        for name, amount in demand.items():
            cap = capacity.get(name)
            if cap > 0:
                alignment += (amount / cap) * (available.get(name) / cap)
        duration = view.estimated_time(request.workers, request.ps)
        urgency = 0.0 if duration in (0.0, float("inf")) else 1.0 / duration
        return (1 - TETRIS_DURATION_WEIGHT) * alignment + TETRIS_DURATION_WEIGHT * urgency

    while pending:
        job_id = max(pending, key=lambda j: (score(j), j))
        pending.discard(job_id)
        view = views[job_id]
        request = requests[job_id]
        demand = view.spec.task_demand(request.workers, request.ps)
        if (used + demand).fits_within(capacity):
            used = used + demand
            allocations[job_id] = request
    return allocations


def srtf_allocation(
    jobs: Sequence[JobView], capacity: ResourceVector
) -> Dict[str, TaskAllocation]:
    """Shortest-remaining-time-first: serve jobs one at a time, in full.

    §2.3 motivates size-aware scheduling ("job performance can be improved
    by considering job sizes"); SRTF is its purest form. Jobs are ordered
    by estimated remaining time (at a 4+4 reference configuration) and each
    in turn receives tasks from the leftover capacity until its own
    marginal gains die -- the shortest job gets first pick of the cluster.
    Contrast with Optimus, which equalises marginal gains *globally*.
    """
    ordered = sorted(
        jobs, key=lambda v: (v.estimated_time(4, 4), v.job_id)
    )
    allocations: Dict[str, TaskAllocation] = {}
    remaining = capacity
    for view in ordered:
        result = allocate(
            [
                AllocationRequest(
                    job_id=view.job_id,
                    remaining_work=max(view.remaining_steps, 0.0),
                    speed=view.speed,
                    worker_demand=view.spec.worker_demand,
                    ps_demand=view.spec.ps_demand,
                )
            ],
            remaining,
        )
        alloc = result.allocations.get(view.job_id)
        if alloc is None:
            continue  # not even a starter fits: the job waits
        allocations[view.job_id] = alloc
        consumed = view.spec.task_demand(alloc.workers, alloc.ps)
        remaining = remaining - consumed
    return allocations


def fifo_allocation(
    jobs: Sequence[JobView], capacity: ResourceVector
) -> Dict[str, TaskAllocation]:
    """Arrival-order static allocation: each job gets exactly its request."""
    ordered = sorted(jobs, key=lambda v: (v.spec.arrival_time, v.job_id))
    used = ResourceVector()
    allocations: Dict[str, TaskAllocation] = {}
    for view in ordered:
        demand = view.spec.task_demand(
            view.spec.requested_workers, view.spec.requested_ps
        )
        if (used + demand).fits_within(capacity):
            used = used + demand
            allocations[view.job_id] = TaskAllocation(
                view.spec.requested_workers, view.spec.requested_ps
            )
    return allocations


# ---------------------------------------------------------------------------
# Placement policies
# ---------------------------------------------------------------------------

def optimus_placement(
    cluster: Cluster, requests: Sequence[PlacementRequest]
) -> PlacementResult:
    """§4.2's fewest-servers even-spread placement."""
    return place_jobs(cluster, requests)


def _place_task_by(
    cluster: Cluster,
    requests: Sequence[PlacementRequest],
    choose: Callable[[Sequence[Server], ResourceVector], Optional[Server]],
) -> PlacementResult:
    """Shared task-at-a-time driver for the spread and pack policies."""

    def place(request: PlacementRequest, first_pass: bool) -> Optional[JobLayout]:
        chosen: List[Tuple[str, TaskKey]] = []
        tasks = [(ROLE_WORKER, request.worker_demand, i) for i in range(request.workers)]
        tasks += [(ROLE_PS, request.ps_demand, i) for i in range(request.ps)]
        for role, demand, idx in tasks:
            candidates = [s for s in cluster.servers if s.can_fit(demand)]
            server = choose(candidates, demand) if candidates else None
            if server is None:
                for server_name, key in chosen:
                    cluster.release(server_name, key)
                return None
            key = (request.job_id, role, idx)
            cluster.place(server.name, key, demand)
            chosen.append((server.name, key))
        layout: Dict[str, List[int]] = {}
        for server_name, (_, role, _) in chosen:
            layout.setdefault(server_name, [0, 0])[0 if role == ROLE_WORKER else 1] += 1
        return {name: (c[0], c[1]) for name, c in layout.items()}

    return place_round(cluster, requests, place)


def spread_placement(
    cluster: Cluster, requests: Sequence[PlacementRequest]
) -> PlacementResult:
    """Kubernetes-default load balancing: least-loaded server first."""

    def choose(candidates: Sequence[Server], demand: ResourceVector):
        return max(
            candidates,
            key=lambda s: (s.available.get("cpu"), sum(s.available.values()), s.name),
        )

    return _place_task_by(cluster, requests, choose)


def pack_placement(
    cluster: Cluster, requests: Sequence[PlacementRequest]
) -> PlacementResult:
    """Tetris packing: server whose free resources align best with the task."""

    def choose(candidates: Sequence[Server], demand: ResourceVector):
        def alignment(server: Server) -> float:
            total = 0.0
            for name, amount in demand.items():
                cap = server.capacity.get(name)
                if cap > 0:
                    total += (amount / cap) * (server.available.get(name) / cap)
            return total

        # Highest alignment = fullest server that still fits: dense packing.
        return min(
            candidates,
            key=lambda s: (alignment(s), s.name),
        )

    return _place_task_by(cluster, requests, choose)

