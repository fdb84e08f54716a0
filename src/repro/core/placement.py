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

import heapq
from dataclasses import dataclass, replace
from typing import Callable, Container, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.cluster.server import ROLE_PS, ROLE_WORKER, Server
from repro.common.errors import ConfigurationError, PlacementError
from repro.obs.ledger import active_ledger
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
    #: Jobs the first pass could not place, in the order the shrink pass took them.
    retried: Tuple[str, ...] = ()

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


#: Slot count of a task that names no resource: it fits anywhere.
_UNBOUNDED = 1 << 62


def _either_demand(request: PlacementRequest) -> Tuple[Tuple[str, float], ...]:
    """The cheaper of the two task shapes on each resource both roles use."""
    ps_demand = request.ps_demand
    return tuple(
        (name, min(amount, ps_demand[name]))
        for name, amount in request.worker_demand.items()
        if name in ps_demand
    )


def _slots(room: Dict[str, float], demand: Tuple[Tuple[str, float], ...]) -> int:
    """How many tasks of *demand* fit in *room*, under ``can_fit``'s 1e-9 slack."""
    slots = _UNBOUNDED
    for name, amount in demand:
        fit = (room.get(name, 0.0) + 1e-9) // amount
        if fit < slots:
            slots = fit
    return int(slots)


def layout_counts(layout: JobLayout) -> Tuple[int, int]:
    """The ``(workers, ps)`` a layout places."""
    return sum(nw for nw, _ in layout.values()), sum(np_ for _, np_ in layout.values())


def place_round(
    cluster: Cluster,
    requests: Sequence[PlacementRequest],
    place_one: Callable[[PlacementRequest, bool], Optional[JobLayout]],
) -> PlacementResult:
    """One §4.2 round of a placement policy, mutating *cluster*.

    ``place_one(request, first_pass)`` places one request and returns its
    layout, or returns ``None`` and leaves the cluster as it was. The first
    pass places every request as granted, in order. §4.1 allocates against
    aggregate capacity, so fragmentation can leave a grant unplaceable; to
    keep large jobs from starving under a persistent load, the shrink pass
    then retries each such job in turn, as granted and then with workers
    and PS halved together, until it fits or even ``(1, 1)`` fails and it
    is paused. Placements, shrinks and pauses go to the decision ledger.

    From the first failed attempt on, every attempt first meets the slot
    check: per task shape, the worker, PS and either-role slots
    (:func:`_either_demand`) summed over the servers, and recounted only on
    those a layout touches. No layout puts more tasks of a kind on a server
    than its slots, so an attempt asking for more must fail. A shape whose
    ``(1, 1)`` failed has no slots left: capacity only shrinks in a round,
    so its later jobs are paused outright.
    """
    ledger = active_ledger()
    shapes: Dict[Tuple[ResourceVector, ResourceVector], int] = {}
    demands = []
    #: Per shape: [worker, PS, either-role] slots, or None once exhausted.
    totals: List[Optional[List[int]]] = []
    rows: Dict[str, List[List[int]]] = {}
    layouts: Dict[str, JobLayout] = {}

    def recount(servers: Iterable[Server]) -> None:
        for server in servers:
            room = server.available._amounts
            row = [[_slots(room, demand) for demand in shape] for shape in demands]
            old = rows.get(server.name, [[0, 0, 0]] * len(row))
            rows[server.name] = row
            for slots, before, after in zip(totals, old, row):
                if slots is not None:
                    slots[:] = [n + a - b for n, a, b in zip(slots, after, before)]

    def attempt(request: PlacementRequest, first_pass: bool) -> bool:
        if totals:
            slots = totals[shapes[request.worker_demand, request.ps_demand]]
            wanted = (request.workers, request.ps, request.workers + request.ps)
            if slots is None or any(n > free for n, free in zip(wanted, slots)):
                return False
        layout = place_one(request, first_pass)
        if layout is None:
            if not totals:  # until now every attempt fit: count from here on
                for other in requests:
                    shape = (other.worker_demand, other.ps_demand)
                    if shape not in shapes:
                        shapes[shape] = len(demands)
                        worker, ps = other.worker_demand.items(), other.ps_demand.items()
                        demands.append((tuple(worker), tuple(ps), _either_demand(other)))
                totals.extend([0, 0, 0] for _ in demands)
                recount(cluster)
            return False
        layouts[request.job_id] = layout
        if totals:
            recount(map(cluster.server, layout))
        return True

    retried = []
    for request in requests:
        if not attempt(request, True):
            retried.append(request)
        elif ledger:
            ledger.record_placement(request.job_id, "fresh", len(layouts[request.job_id]))

    unplaced: List[str] = []
    for request in retried:
        job_id, granted = request.job_id, (request.workers, request.ps)
        shape = shapes[request.worker_demand, request.ps_demand]
        shared = totals[shape] is None
        counts = None if shared else granted
        while counts and not attempt(replace(request, workers=counts[0], ps=counts[1]), False):
            if counts == (1, 1):
                totals[shape] = counts = None
            else:
                counts = (max(1, counts[0] // 2), max(1, counts[1] // 2))
        if counts is None:
            unplaced.append(job_id)
            if ledger:
                flag = {"shared_shape": True} if shared else {}
                ledger.record_denial(
                    job_id, "hopeless_shape", workers=granted[0], ps=granted[1], **flag
                )
        elif ledger:
            if counts != granted:
                ledger.record_shrink(job_id, granted, counts)
            ledger.record_placement(job_id, "fresh", len(layouts[job_id]))

    return PlacementResult(
        layouts=layouts,
        unplaced=tuple(unplaced),
        retried=tuple(request.job_id for request in retried),
    )


def place_jobs(
    cluster: Cluster, requests: Iterable[PlacementRequest]
) -> PlacementResult:
    """Run one §4.2 placement round, mutating *cluster*.

    Jobs go smallest dominant share first (the paper's anti-starvation
    rule), each onto the fewest most-available servers that hold it; a job
    that fits nowhere is shrunk or paused (:func:`place_round`). Both
    passes share one max-heap of servers on current availability, so a
    round over ``J`` jobs touching ``S`` servers in total costs
    ``O((J + S) log N)`` heap operations.
    """
    capacity = cluster.total_capacity
    ordered = sorted(
        requests,
        key=lambda request: (request.total_demand.dominant_share(capacity), request.job_id),
    )
    # Ranks end with the unique server name, so entries never compare the
    # servers. A job pops the servers it considers and pushes them back
    # with their new ranks, so the others' entries stay current.
    heap = [(server.availability_rank, server) for server in cluster] if ordered else []
    heapq.heapify(heap)
    remaining_total = cluster.total_available

    def place(request: PlacementRequest, first_pass: bool) -> Optional[JobLayout]:
        nonlocal remaining_total
        total_demand = request.total_demand
        # Cheap aggregate precheck. The first pass keeps the free total by
        # subtraction; the shrink pass reads it from the cluster (the two
        # sums can differ in the last bit).
        if not total_demand.fits_within(
            remaining_total if first_pass else cluster.total_available
        ):
            return None
        either = _either_demand(request)
        total_tasks = request.workers + request.ps

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
            server = heapq.heappop(heap)[1]
            selected.append(server)
            room = server.available._amounts
            for res_name, value in room.items():
                aggregate[res_name] = aggregate.get(res_name, 0.0) + value
            slots += _slots(room, either)
            if slots < total_tasks or not all(
                value <= aggregate.get(res_name, 0.0) + 1e-9
                for res_name, value in total_demand.items()
            ):
                continue  # need more servers even optimistically
            k = len(selected)
            if k < next_attempt and heap:
                continue
            next_attempt = k + 1 if k <= 8 else 2 * k
            layout = _even_layout(request, selected) or _greedy_layout(request, selected)
            if layout is not None:
                break
        if layout is not None:
            _apply_layout(cluster, request, layout)
            if first_pass:
                remaining_total = remaining_total - total_demand
        for server in selected:
            heapq.heappush(heap, (server.availability_rank, server))
        return layout

    result = place_round(cluster, ordered, place)

    metrics = active_registry()
    if metrics:
        metrics.counter("placement.rounds").inc()
        metrics.counter("placement.placed").inc(float(len(result.layouts)))
        metrics.counter("placement.unplaced").inc(float(len(result.unplaced)))
        for layout in result.layouts.values():
            metrics.histogram(
                "placement.servers_per_job", bounds=(1, 2, 4, 8, 16, 32, 64)
            ).observe(float(len(layout)))
    return result


def transfer_units(layout: JobLayout, model_units: float = 1.0) -> float:
    """The Fig.-10 cost of a layout: the max per-task cross-server traffic.

    Every worker exchanges ``model_units`` of data with the parameter
    servers per step (split evenly across them); co-located pairs are free.
    Returns the bottleneck task's cross-server units -- proportional to the
    transfer time when every task has the same bandwidth.
    """
    total_workers, total_ps = layout_counts(layout)
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
