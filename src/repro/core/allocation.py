"""Marginal-gain resource allocation (§4.1).

The exact problem (5)-(8) -- minimise the summed estimated completion times
``Q_j / f_j(p_j, w_j)`` subject to cluster capacity -- is a non-convex
integer program, so Optimus uses a greedy heuristic:

1. give every active job 1 worker + 1 parameter server (anti-starvation);
2. repeatedly grant one task (worker *or* parameter server, whichever helps
   more) to the job with the largest **marginal gain**: the reduction in its
   estimated completion time per unit of the added task's dominant resource
   (Eqn 9);
3. stop when resources run out or every job's marginal gain is non-positive.

Jobs in their "beginning state" (few observations, large prediction error)
can have their gain multiplied by a priority factor < 1, mildly deferring
them until their estimates firm up (end of §4.1).

The implementation keeps gains in a lazy max-heap with version stamps, so an
allocation round over ``J`` jobs and ``T`` granted tasks costs
``O((J + T) log J)`` speed-function evaluations -- this is what makes the
Fig.-12 scalability result achievable.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.cluster.resources import ResourceVector
from repro.common.errors import FittingError, SchedulingError
from repro.obs.ledger import active_ledger
from repro.obs.registry import active_registry

#: f(p, w) -> steps/second.
SpeedFn = Callable[[int, int], float]


class TaskAllocation(NamedTuple):
    """Numbers of tasks granted to one job."""

    workers: int
    ps: int

    @property
    def total(self) -> int:
        return self.workers + self.ps


@dataclass
class AllocationRequest:
    """Everything the allocator needs to know about one active job.

    ``remaining_work`` is the predicted number of steps left (the ``Q_j`` of
    §4.1); ``speed`` is the job's *fitted* speed function. ``priority``
    scales the marginal gain (1.0 = neutral; §4.1 suggests e.g. 0.95 for
    jobs whose predictions are still unreliable).
    """

    job_id: str
    remaining_work: float
    speed: SpeedFn
    worker_demand: ResourceVector
    ps_demand: ResourceVector
    priority: float = 1.0
    max_workers: int = 100
    max_ps: int = 100

    def __post_init__(self) -> None:
        if self.remaining_work < 0:
            raise SchedulingError("remaining_work must be non-negative")
        if not 0 < self.priority <= 1:
            raise SchedulingError("priority must be in (0, 1]")
        if self.max_workers < 1 or self.max_ps < 1:
            raise SchedulingError("task caps must be >= 1")


@dataclass(frozen=True)
class Grant:
    """One greedy step: which job received which task kind, at what gain."""

    job_id: str
    kind: str  # "worker" or "ps"
    gain: float
    allocation_after: TaskAllocation


@dataclass(frozen=True)
class AllocationResult:
    """The outcome of one allocation round."""

    allocations: Dict[str, TaskAllocation]
    #: Jobs that could not receive even the 1+1 starter allocation.
    starved: Tuple[str, ...]
    #: Why the greedy loop stopped: "capacity" or "gains".
    stop_reason: str
    #: Resources left unallocated.
    leftover: ResourceVector
    #: The greedy grant sequence, populated when ``allocate(trace=True)`` --
    #: gains are non-increasing up to priority effects, which makes
    #: decisions auditable ("why did job X get 12 tasks?").
    grants: Tuple[Grant, ...] = ()


def _safe_speed(fn: SpeedFn, p: int, w: int) -> float:
    """Evaluate a fitted speed function defensively (fits can degenerate).

    A :class:`~repro.common.errors.FittingError` -- the typed failure of a
    degenerate fit -- counts as ``est.fallback.speed_eval`` and makes the
    configuration unusable (speed 0, infinite completion time), as does a
    non-positive or NaN value. Any other exception is a bug and propagates.
    """
    try:
        value = fn(p, w)
    except FittingError:
        active_registry().counter("est.fallback.speed_eval").inc()
        return 0.0
    if value is None or value <= 0 or value != value:  # NaN check
        return 0.0
    return float(value)


def _completion_time(request: AllocationRequest, p: int, w: int) -> float:
    speed = _safe_speed(request.speed, p, w)
    if speed <= 0:
        return float("inf")
    return request.remaining_work / speed


class WeightedSpeed:
    """A speed function scaled by a ``weight(p, w)`` factor.

    Policies that rank configurations by something other than raw speed
    (e.g. the Pollux-style goodput allocator, which discounts speed by
    statistical efficiency) wrap the fitted speed function in one of these
    and feed it straight to :func:`allocate`. Like every speed source it is
    a scalar ``f(p, w) -> float``.

    ``weight`` must return finite values; non-positive products simply
    make the configuration unattractive (``_safe_speed`` maps them to 0).
    """

    __slots__ = ("base", "weight")

    def __init__(self, base: SpeedFn, weight: Callable[[int, int], float]) -> None:
        self.base = base
        self.weight = weight

    def __call__(self, p: int, w: int) -> float:
        return self.base(p, w) * self.weight(p, w)


def estimated_time(request: AllocationRequest, allocation: TaskAllocation) -> float:
    """Estimated completion time of *request* under *allocation* (seconds)."""
    if allocation.workers < 1 or allocation.ps < 1:
        return float("inf")
    return _completion_time(request, allocation.ps, allocation.workers)


def _dominant_amount(demand: ResourceVector, capacity: ResourceVector) -> float:
    """Dominant-resource *share* of one task against the cluster capacity.

    Eqn 9 divides the time reduction "by the amount of dominant resource";
    we use the capacity-normalised share so that gains stay comparable when
    workers and parameter servers dominate in different resource types
    (e.g. GPU workers vs. CPU parameter servers).
    """
    share = demand.dominant_share(capacity)
    return share if share > 0 else float("inf")


def _gain_from_times(
    request: AllocationRequest,
    alloc: TaskAllocation,
    base: float,
    t_worker: float,
    t_ps: float,
    dom_worker: float,
    dom_ps: float,
) -> Tuple[float, str]:
    """Best marginal gain given precomputed completion times (Eqn 9).

    ``base`` is the completion time under *alloc*; ``t_worker``/``t_ps`` are
    the times with one more worker / parameter server; ``dom_*`` the
    capacity-normalised dominant shares of one task of each kind.
    """
    gain_worker = -float("inf")
    gain_ps = -float("inf")
    if alloc.workers < request.max_workers:
        if base != float("inf") or t_worker != float("inf"):
            reduction = (base - t_worker) if base != float("inf") else 0.0
            gain_worker = reduction / dom_worker
    if alloc.ps < request.max_ps:
        if base != float("inf") or t_ps != float("inf"):
            reduction = (base - t_ps) if base != float("inf") else 0.0
            gain_ps = reduction / dom_ps
    if gain_worker >= gain_ps:
        return gain_worker * request.priority, "worker"
    return gain_ps * request.priority, "ps"


def _marginal_gain(
    request: AllocationRequest,
    alloc: TaskAllocation,
    capacity: ResourceVector,
) -> Tuple[float, str]:
    """Best marginal gain for the job and the task kind achieving it (Eqn 9)."""
    base = _completion_time(request, alloc.ps, alloc.workers)
    t_worker = _completion_time(request, alloc.ps, alloc.workers + 1)
    t_ps = _completion_time(request, alloc.ps + 1, alloc.workers)
    return _gain_from_times(
        request,
        alloc,
        base,
        t_worker,
        t_ps,
        _dominant_amount(request.worker_demand, capacity),
        _dominant_amount(request.ps_demand, capacity),
    )


#: Capacity checks of one demand: ``(resource, amount, capacity + 1e-9)``.
_Checks = Tuple[Tuple[str, float, float], ...]


class _Bidder:
    """One active job's state in the grant loop, as plain numbers.

    Speeds are scalar calls through :func:`_safe_speed`, so every time is
    the one :func:`_completion_time` would give.
    """

    __slots__ = (
        "request",
        "job_id",
        "work",
        "speed",
        "priority",
        "max_workers",
        "max_ps",
        "worker_checks",
        "ps_checks",
        "dom_worker",
        "dom_ps",
        "workers",
        "ps",
        "base",
        "version",
    )

    def __init__(
        self,
        request: AllocationRequest,
        worker_checks: _Checks,
        ps_checks: _Checks,
        dom_worker: float,
        dom_ps: float,
    ) -> None:
        self.request = request
        self.job_id = request.job_id
        self.work = request.remaining_work
        self.speed = request.speed
        self.priority = request.priority
        self.max_workers = request.max_workers
        self.max_ps = request.max_ps
        self.worker_checks = worker_checks
        self.ps_checks = ps_checks
        self.dom_worker = dom_worker
        self.dom_ps = dom_ps
        self.workers = 1
        self.ps = 1
        self.base = float("inf")
        self.version = 0

    def completion_time(self, p: int, w: int) -> float:
        speed = _safe_speed(self.speed, p, w)
        return self.work / speed if speed > 0 else float("inf")

    def candidate_times(self) -> Tuple[float, float]:
        """Completion times with one more worker, and with one more PS."""
        p, w = self.ps, self.workers
        return self.completion_time(p, w + 1), self.completion_time(p + 1, w)


def allocate(
    requests: Iterable[AllocationRequest],
    capacity: ResourceVector,
    max_total_tasks: Optional[int] = None,
    trace: bool = False,
) -> AllocationResult:
    """Run one §4.1 allocation round over the active jobs.

    Parameters
    ----------
    requests:
        Active jobs, in submission order (starter allocations are handed out
        in this order when capacity is scarce).
    capacity:
        Total cluster capacity (constraint (7) is aggregate; fragmentation
        is the placement algorithm's problem, §4.2).
    max_total_tasks:
        Optional safety valve on the number of greedy grants.

    Returns
    -------
    AllocationResult
        Jobs that could not get the 1+1 starter allocation are listed in
        ``starved`` and receive no tasks (they will be retried next
        interval, §4.2's pausing behaviour).
    """
    requests = list(requests)
    seen = set()
    for request in requests:
        if request.job_id in seen:
            raise SchedulingError(f"duplicate job id {request.job_id!r}")
        seen.add(request.job_id)

    ledger = active_ledger()
    if ledger:
        ledger.begin_round()

    # Capacity accounting on plain numbers: each demand becomes a tuple of
    # ``(name, amount, capacity + 1e-9)`` checks, built once per round, so
    # the per-pop ``fits``/``consume`` never touch a ResourceVector.
    used: Dict[str, float] = {}
    cap = dict(capacity.items())

    def checks_of(demand: ResourceVector) -> _Checks:
        return tuple(
            (name, amount, cap.get(name, 0.0) + 1e-9)
            for name, amount in demand.items()
        )

    def fits(checks: _Checks) -> bool:
        for name, amount, limit in checks:
            if used.get(name, 0.0) + amount > limit:
                return False
        return True

    def consume(checks: _Checks) -> None:
        for name, amount, _ in checks:
            used[name] = used.get(name, 0.0) + amount

    # Phase 1: anti-starvation starter allocations.
    bidders: List[_Bidder] = []
    starved: List[str] = []
    for request in requests:
        starter = checks_of(request.worker_demand + request.ps_demand)
        if fits(starter):
            consume(starter)
            bidders.append(
                _Bidder(
                    request,
                    checks_of(request.worker_demand),
                    checks_of(request.ps_demand),
                    _dominant_amount(request.worker_demand, capacity),
                    _dominant_amount(request.ps_demand, capacity),
                )
            )
        else:
            starved.append(request.job_id)
            if ledger:
                ledger.record_denial(
                    request.job_id, "capacity_exhausted", stage="starter"
                )

    # Phase 2: greedy marginal-gain grants through a lazy max-heap. Heap
    # entries carry the candidate completion times, so a grant reuses the
    # already-evaluated time as the job's new base instead of re-deriving
    # it -- only the two +1-task candidates of the granted job are
    # recomputed. Stale entries are recognised by the bidder's version.
    inf = float("inf")
    counter = itertools.count()
    heap: List[Tuple[float, int, _Bidder, str, int, float, float]] = []

    def push(bidder: _Bidder) -> None:
        t_worker, t_ps = bidder.candidate_times()
        base = bidder.base
        # Eqn 9, term for term as in _gain_from_times.
        gain_worker = -inf
        gain_ps = -inf
        if bidder.workers < bidder.max_workers:
            if base != inf or t_worker != inf:
                reduction = (base - t_worker) if base != inf else 0.0
                gain_worker = reduction / bidder.dom_worker
        if bidder.ps < bidder.max_ps:
            if base != inf or t_ps != inf:
                reduction = (base - t_ps) if base != inf else 0.0
                gain_ps = reduction / bidder.dom_ps
        if gain_worker >= gain_ps:
            gain, kind = gain_worker * bidder.priority, "worker"
        else:
            gain, kind = gain_ps * bidder.priority, "ps"
        if gain > 0 and gain != inf:
            heapq.heappush(
                heap,
                (-gain, next(counter), bidder, kind, bidder.version, t_worker, t_ps),
            )
        elif ledger:
            # Non-positive (or degenerate infinite) marginal gain: the job
            # stops bidding voluntarily. Jobs at their task caps land here
            # too (their gain is -inf by construction).
            ledger.record_denial(
                bidder.job_id,
                "converged_yield",
                workers=bidder.workers,
                ps=bidder.ps,
                gain=gain if gain == gain and abs(gain) != inf else None,
            )

    for bidder in bidders:
        bidder.base = bidder.completion_time(1, 1)
        push(bidder)

    granted = 0
    stop_reason = "gains"
    grant_log: List[Grant] = []
    limit = max_total_tasks if max_total_tasks is not None else 10_000_000
    while heap:
        neg_gain, _, bidder, kind, version, t_worker, t_ps = heapq.heappop(heap)
        if bidder.version != version:
            continue  # stale entry
        checks = bidder.worker_checks if kind == "worker" else bidder.ps_checks
        if not fits(checks):
            # Try the other task kind before giving up on this job.
            if kind == "worker" and bidder.ps < bidder.max_ps and fits(
                bidder.ps_checks
            ):
                kind, checks = "ps", bidder.ps_checks
            elif kind == "ps" and bidder.workers < bidder.max_workers and fits(
                bidder.worker_checks
            ):
                kind, checks = "worker", bidder.worker_checks
            else:
                # Fires at most once per job per round: the job is not
                # re-pushed, and its version stamp kills stale entries.
                if ledger:
                    ledger.record_denial(
                        bidder.job_id,
                        "capacity_exhausted",
                        stage="grow",
                        workers=bidder.workers,
                        ps=bidder.ps,
                    )
                continue  # job can't grow; others may still fit
        consume(checks)
        if kind == "worker":
            bidder.workers += 1
            bidder.base = t_worker
        else:
            bidder.ps += 1
            bidder.base = t_ps
        bidder.version += 1
        granted += 1
        if ledger:
            # Peek the next-best bidder. Discarding stale entries here is
            # amortized-free: the pop loop would skip them anyway.
            while heap and heap[0][2].version != heap[0][4]:
                heapq.heappop(heap)
            gain = -neg_gain
            runner_up = heap[0][2].job_id if heap else None
            runner_gain = -heap[0][0] if heap else None
            ledger.record_grant(
                bidder.job_id,
                kind,
                gain,
                bidder.workers,
                bidder.ps,
                runner_up=runner_up,
                runner_up_gap=(
                    gain - runner_gain if runner_gain is not None else None
                ),
            )
        if trace:
            grant_log.append(
                Grant(
                    job_id=bidder.job_id,
                    kind=kind,
                    gain=-neg_gain,
                    allocation_after=TaskAllocation(bidder.workers, bidder.ps),
                )
            )
        if granted >= limit:
            stop_reason = "capacity"
            break
        push(bidder)

    if not heap and granted < limit:
        # Heap drained: either gains went non-positive or nothing else fit.
        smallest = min(
            (
                min(
                    b.request.worker_demand.dominant_share(capacity),
                    b.request.ps_demand.dominant_share(capacity),
                )
                for b in bidders
            ),
            default=0.0,
        )
        any_fits = any(fits(b.worker_checks) or fits(b.ps_checks) for b in bidders)
        stop_reason = "gains" if any_fits and smallest > 0 else "capacity"

    if ledger:
        ledger.end_round()

    metrics = active_registry()
    if metrics:
        metrics.counter("allocation.rounds").inc()
        metrics.counter("allocation.grants").inc(float(granted))
        metrics.counter("allocation.starved").inc(float(len(starved)))
        metrics.counter(f"allocation.stop.{stop_reason}").inc()
        metrics.gauge("allocation.last_jobs").set(float(len(requests)))

    return AllocationResult(
        allocations={b.job_id: TaskAllocation(b.workers, b.ps) for b in bidders},
        starved=tuple(starved),
        stop_reason=stop_reason,
        leftover=capacity - ResourceVector(used),
        grants=tuple(grant_log),
    )
