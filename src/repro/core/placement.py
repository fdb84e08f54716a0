"""Task placement (§4.2).

Theorem 1: for a synchronous job on homogeneous servers, the transfer time
per step is minimised by using the *fewest* servers able to host the job and
deploying the *same* number of its parameter servers (and workers) on each.
The paper turns this into a scheme for heterogeneous, partially loaded
clusters:

* sort servers by current resource availability (available CPU, descending);
* place jobs smallest-demand-first (anti-starvation for small jobs);
* for each job, find the smallest ``k`` such that its tasks fit on the
  ``k`` most-available servers when spread evenly; place them there;
* jobs that fit nowhere are *paused* until the next scheduling interval.

The even split is attempted first; if per-server capacities reject it (the
aggregate fits but fragmentation bites), a capacity-aware spread over the
same ``k`` servers is tried before moving to ``k + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.cluster.server import ROLE_PS, ROLE_WORKER, Server
from repro.common.errors import ConfigurationError, PlacementError
from repro.obs.registry import active_registry

#: server name -> (num workers, num ps) for one job.
JobLayout = Dict[str, Tuple[int, int]]


@dataclass
class PlacementRequest:
    """One job's placement input: its allocation and task shapes."""

    job_id: str
    workers: int
    ps: int
    worker_demand: ResourceVector
    ps_demand: ResourceVector

    def __post_init__(self) -> None:
        if self.workers < 1 or self.ps < 1:
            raise PlacementError(
                f"job {self.job_id!r} needs >= 1 worker and >= 1 ps, "
                f"got ({self.workers}, {self.ps})"
            )

    @property
    def total_demand(self) -> ResourceVector:
        return self.worker_demand * self.workers + self.ps_demand * self.ps


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of one placement round."""

    layouts: Dict[str, JobLayout]
    #: Jobs that could not be placed and are paused this interval.
    unplaced: Tuple[str, ...]

    def servers_used(self, job_id: str) -> int:
        return len(self.layouts.get(job_id, {}))


#: Cache key: the placement-relevant fingerprint of one request.
_CacheKey = Tuple[int, int, ResourceVector, ResourceVector]


class PlacementCache:
    """Memo of layouts for jobs whose allocation did not change (§4.2).

    Between scheduling points most jobs keep their task counts, so their
    Theorem-1 layouts can be replayed instead of re-derived. A cached
    layout is only trusted after re-validation against the live cluster
    (every server must still exist and fit the job's share), and the whole
    cache is dropped on node cordon/crash/recovery events from the faults
    layer -- a changed server set shifts the most-available-first ranking
    that fresh placement would see.

    The cache changes placement *outcomes* (a replayed layout occupies
    servers that fresh placement might have assigned differently), so it is
    strictly opt-in: schedulers only consult it when explicitly constructed
    with one.
    """

    def __init__(self) -> None:
        self._layouts: Dict[str, Tuple[_CacheKey, JobLayout]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    @staticmethod
    def _key(request: "PlacementRequest") -> _CacheKey:
        return (
            request.workers,
            request.ps,
            request.worker_demand,
            request.ps_demand,
        )

    def __len__(self) -> int:
        return len(self._layouts)

    def __bool__(self) -> bool:
        # A scheduler's cache is truthy even when empty: callers test
        # ``if scheduler.placement_cache`` to mean "caching is on".
        return True

    def lookup(self, request: "PlacementRequest") -> Optional[JobLayout]:
        """The cached layout for *request*, or ``None`` on a changed allocation."""
        entry = self._layouts.get(request.job_id)
        if entry is None or entry[0] != self._key(request):
            return None
        return entry[1]

    def store(self, request: "PlacementRequest", layout: JobLayout) -> None:
        self._layouts[request.job_id] = (self._key(request), dict(layout))

    def forget_job(self, job_id: str) -> None:
        self._layouts.pop(job_id, None)

    def retain(self, job_ids: Container[str]) -> None:
        """Drop the entries of every job not in *job_ids*."""
        for job_id in [j for j in self._layouts if j not in job_ids]:
            del self._layouts[job_id]

    def invalidate_all(self) -> None:
        """Drop every entry (node failed/recovered: the server set changed)."""
        if self._layouts:
            self.invalidations += len(self._layouts)
            self._layouts.clear()

    def validate(self, cluster: Cluster, request: "PlacementRequest",
                 layout: JobLayout) -> bool:
        """True when *layout* can be replayed onto *cluster* right now."""
        demand_cache: Dict[Tuple[int, int], ResourceVector] = {}
        for server_name, counts in layout.items():
            try:
                server = cluster.server(server_name)
            except ConfigurationError:  # unknown server name
                return False
            demand = demand_cache.get(counts)
            if demand is None:
                n_workers, n_ps = counts
                demand = (
                    request.worker_demand * n_workers + request.ps_demand * n_ps
                )
                demand_cache[counts] = demand
            if not server.can_fit(demand):
                return False
        return True


def split_evenly(count: int, buckets: int) -> List[int]:
    """Spread *count* items over *buckets* as evenly as possible.

    The first ``count % buckets`` buckets receive one extra item.
    """
    if buckets < 1:
        raise PlacementError("buckets must be >= 1")
    if count < 0:
        raise PlacementError("count must be non-negative")
    base, extra = divmod(count, buckets)
    return [base + (1 if i < extra else 0) for i in range(buckets)]


def _even_layout(
    request: PlacementRequest, servers: Sequence[Server]
) -> Optional[JobLayout]:
    """Try Theorem-1's even split on exactly these servers."""
    k = len(servers)
    worker_counts = split_evenly(request.workers, k)
    ps_counts = split_evenly(request.ps, k)
    # Counter-align the remainders: servers burdened with an extra worker
    # should not also receive an extra parameter server.
    ps_counts = list(reversed(ps_counts))
    layout: JobLayout = {}
    # Only a handful of (n_workers, n_ps) pairs occur (base and base+1 of
    # each), so memoise the combined demand instead of rebuilding it per
    # server -- layout attempts dominate large placement rounds.
    demand_cache: Dict[Tuple[int, int], ResourceVector] = {}
    for server, n_workers, n_ps in zip(servers, worker_counts, ps_counts):
        counts = (n_workers, n_ps)
        demand = demand_cache.get(counts)
        if demand is None:
            demand = request.worker_demand * n_workers + request.ps_demand * n_ps
            demand_cache[counts] = demand
        if not server.can_fit(demand):
            return None
        if n_workers or n_ps:
            layout[server.name] = (n_workers, n_ps)
    return layout


def _greedy_layout(
    request: PlacementRequest, servers: Sequence[Server]
) -> Optional[JobLayout]:
    """Capacity-aware fallback spread over the same server set.

    Tasks are dealt one at a time to the server with the most remaining
    room, worker and parameter server alternately so each server keeps a
    balanced mix (the principle behind Theorem 1's proof).

    Each server's remaining room is a plain dict, updated in place by the
    rule of ``ResourceVector.__sub__`` (an amount at or below 1e-9 is
    dropped, the rest keep their order), so the room score and the two fit
    tests -- redone only for the server that just received a task -- are
    exactly what the vector arithmetic would give.
    """
    demands = (tuple(request.worker_demand.items()), tuple(request.ps_demand.items()))
    rooms = [dict(server.available.items()) for server in servers]
    counts = [[0, 0] for _ in servers]

    # Per role, each server's room score if that role's task fits there,
    # else -1 (scores are never negative): the server with the most room
    # among those that fit, first on ties, is ``index(max(...))``.
    bids: Tuple[List[float], List[float]] = ([], [])

    worker_demand, ps_demand = demands

    def bid(room: Dict[str, float]) -> Tuple[float, float]:
        room_score = room.get("cpu", 0.0) + sum(room.values()) * 1e-6
        worker_bid = ps_bid = room_score
        # ResourceVector.fits_within, with its default 1e-9 slack.
        for name, value in worker_demand:
            if not value <= room.get(name, 0.0) + 1e-9:
                worker_bid = -1.0
                break
        for name, value in ps_demand:
            if not value <= room.get(name, 0.0) + 1e-9:
                ps_bid = -1.0
                break
        return worker_bid, ps_bid

    for room in rooms:
        worker_bid, ps_bid = bid(room)
        bids[0].append(worker_bid)
        bids[1].append(ps_bid)

    roles: List[int] = []  # 0 = worker, 1 = ps, dealt alternately
    for i in range(max(request.workers, request.ps)):
        if i < request.workers:
            roles.append(0)
        if i < request.ps:
            roles.append(1)

    for role_idx in roles:
        role_bids = bids[role_idx]
        best_room = max(role_bids, default=-1.0)
        if best_room < 0:
            return None
        best = role_bids.index(best_room)
        room = rooms[best]
        for name, value in demands[role_idx]:
            remaining = room.get(name, 0.0) - value
            if remaining > 1e-9:
                room[name] = remaining
            else:
                room.pop(name, None)
        counts[best][role_idx] += 1
        bids[0][best], bids[1][best] = bid(room)

    return {
        server.name: (c[0], c[1])
        for server, c in zip(servers, counts)
        if c[0] or c[1]
    }


def _apply_layout(
    cluster: Cluster, request: PlacementRequest, layout: JobLayout
) -> None:
    """Place *layout*: one block of same-shape tasks per (server, role)."""
    job_id = request.job_id
    worker_idx = 0
    ps_idx = 0
    for server_name, (n_workers, n_ps) in layout.items():
        server = cluster.server(server_name)
        if n_workers:
            server.place_tasks(job_id, ROLE_WORKER, worker_idx, n_workers, request.worker_demand)
            worker_idx += n_workers
        if n_ps:
            server.place_tasks(job_id, ROLE_PS, ps_idx, n_ps, request.ps_demand)
            ps_idx += n_ps


def place_jobs(
    cluster: Cluster,
    requests: Iterable[PlacementRequest],
    sort_jobs: bool = True,
) -> PlacementResult:
    """Run one §4.2 placement round, mutating *cluster*.

    Parameters
    ----------
    cluster:
        The cluster to place into (tasks are registered on its servers).
    requests:
        Jobs with their granted allocations.
    sort_jobs:
        Place smallest jobs first (the paper's anti-starvation rule); set
        to ``False`` to preserve the caller's order (useful in tests).

    Notes
    -----
    Servers are kept in a lazy max-heap on current availability instead of
    being re-sorted for every job, so a round over ``J`` jobs touching
    ``S`` servers in total costs ``O((J + S) log N)`` heap operations --
    this is what keeps the Fig-12 scalability sweep tractable.
    """
    import heapq

    # Pair each request with its (memoised) total demand -- the property
    # rebuilds the vector on every access, and the round below needs it in
    # the sort key, the aggregate precheck, and the candidate-growth loop.
    pending = [(request, request.total_demand) for request in requests]
    if sort_jobs:
        capacity = cluster.total_capacity
        pending.sort(
            key=lambda pair: (pair[1].dominant_share(capacity), pair[0].job_id)
        )

    layouts: Dict[str, JobLayout] = {}
    unplaced: List[str] = []

    # Built when a request first passes the aggregate precheck: most calls
    # with a single request (shrink retries) fail it, and need no heap.
    # Ranks end with the unique server name, so entries never compare the
    # servers themselves.
    heap: Optional[List[Tuple[Tuple[float, float, str], Server]]] = None
    remaining_total = cluster.total_available
    # Memo of full-drain failures: once a job with slot shape D found only
    # S optimistic slots in the whole cluster, any later job with the same
    # shape needing more than S tasks must fail too (capacity only shrinks
    # within a round), so it can be rejected without touching the heap.
    drain_slots: Dict[ResourceVector, int] = {}

    for request, total_demand in pending:
        # Cheap aggregate precheck: a job whose demand exceeds the whole
        # cluster's free capacity would otherwise drain the entire heap
        # before failing.
        if not total_demand.fits_within(remaining_total):
            unplaced.append(request.job_id)
            continue
        if heap is None:
            heap = [(server.availability_rank, server) for server in cluster]
            heapq.heapify(heap)
        # Per-server slot bound: an optimistic count of how many of this
        # job's tasks one server could host, using the cheaper of the two
        # task shapes per resource. Summed over the candidate set it is a
        # *necessary* condition for placement that is far tighter than the
        # aggregate test, so fragmentation failures are detected without
        # running the O(tasks * k) layout attempts.
        bound_demand = ResourceVector(
            {
                name: min(request.worker_demand[name], request.ps_demand[name])
                for name in set(request.worker_demand)
                & set(request.ps_demand)
            }
        )
        total_tasks = request.workers + request.ps
        known_slots = drain_slots.get(bound_demand)
        if known_slots is not None and total_tasks > known_slots:
            unplaced.append(request.job_id)
            continue

        def slot_bound(server: Server) -> int:
            if bound_demand.is_zero():
                return total_tasks  # no common resource: bound is vacuous
            available = server.available
            return int(
                min(
                    available.get(name) // amount
                    for name, amount in bound_demand.items()
                )
            )

        selected: List[Server] = []
        aggregate: Dict[str, float] = {}
        slots = 0
        layout: Optional[JobLayout] = None
        # Draw servers most-available-first, growing the candidate set k by
        # one server at a time exactly as §4.2 prescribes. Each layout
        # attempt costs O(tasks * k); on a nearly-full cluster fragmentation
        # can reject many consecutive k, so beyond k=8 attempts are made
        # only when k doubles (trading at most a constant factor in server
        # count for an O(K^2) -> O(K) failure path).
        next_attempt = 1
        while heap:
            rank, server = heapq.heappop(heap)
            if rank != server.availability_rank:
                heapq.heappush(heap, (server.availability_rank, server))
                continue  # stale entry: reinsert with its current rank
            selected.append(server)
            for res_name, value in server.available.items():
                aggregate[res_name] = aggregate.get(res_name, 0.0) + value
            slots += slot_bound(server)
            if slots < total_tasks or not all(
                value <= aggregate.get(res_name, 0.0) + 1e-9
                for res_name, value in total_demand.items()
            ):
                continue  # need more servers even optimistically
            k = len(selected)
            if k < next_attempt and heap:
                continue
            next_attempt = k + 1 if k <= 8 else 2 * k
            layout = _even_layout(request, selected)
            if layout is None:
                layout = _greedy_layout(request, selected)
            if layout is not None:
                break
        if layout is not None:
            _apply_layout(cluster, request, layout)
            layouts[request.job_id] = layout
            remaining_total = remaining_total - total_demand
        else:
            unplaced.append(request.job_id)
            if not heap:  # full drain: remember this shape's slot ceiling
                drain_slots[bound_demand] = slots
        for server in selected:
            heapq.heappush(heap, (server.availability_rank, server))

    metrics = active_registry()
    if metrics:
        metrics.counter("placement.rounds").inc()
        metrics.counter("placement.placed").inc(float(len(layouts)))
        metrics.counter("placement.unplaced").inc(float(len(unplaced)))
        for layout in layouts.values():
            metrics.histogram(
                "placement.servers_per_job", bounds=(1, 2, 4, 8, 16, 32, 64)
            ).observe(float(len(layout)))

    return PlacementResult(layouts=layouts, unplaced=tuple(unplaced))


def transfer_units(layout: JobLayout, model_units: float = 1.0) -> float:
    """The Fig.-10 cost of a layout: the max per-task cross-server traffic.

    Every worker exchanges ``model_units`` of data with the parameter
    servers per step (split evenly across them); co-located pairs are free.
    Returns the bottleneck task's cross-server units -- proportional to the
    transfer time when every task has the same bandwidth.
    """
    total_workers = sum(nw for nw, _ in layout.values())
    total_ps = sum(np_ for _, np_ in layout.values())
    if total_workers < 1 or total_ps < 1:
        raise PlacementError("layout must contain at least one worker and one ps")
    per_pair = model_units / total_ps
    worst = 0.0
    for nw, np_ in layout.values():
        if np_ > 0:
            worst = max(worst, per_pair * (total_workers - nw))
        if nw > 0:
            worst = max(worst, per_pair * (total_ps - np_))
    return worst
