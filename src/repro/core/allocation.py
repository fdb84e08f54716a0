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
from typing import Callable, Dict, Iterable, List, NamedTuple, Tuple

from repro.cluster.resources import ResourceVector
from repro.common.errors import FittingError, SchedulingError
from repro.obs.ledger import active_ledger
from repro.obs.registry import active_registry

#: f(p, w) -> steps/second.
SpeedFn = Callable[[int, int], float]

#: Per-job cap on tasks of each kind: workers and parameter servers alike.
MAX_TASKS_PER_JOB = 100


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
    max_workers: int = MAX_TASKS_PER_JOB
    max_ps: int = MAX_TASKS_PER_JOB

    def __post_init__(self) -> None:
        if self.remaining_work < 0:
            raise SchedulingError("remaining_work must be non-negative")
        if not 0 < self.priority <= 1:
            raise SchedulingError("priority must be in (0, 1]")
        if self.max_workers < 1 or self.max_ps < 1:
            raise SchedulingError("task caps must be >= 1")


@dataclass(frozen=True)
class AllocationResult:
    """The outcome of one allocation round."""

    allocations: Dict[str, TaskAllocation]
    #: Jobs that could not receive even the 1+1 starter allocation.
    starved: Tuple[str, ...]
    #: Why the greedy loop stopped: "capacity" or "gains".
    stop_reason: str


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


#: Capacity checks of one demand: ``(resource index, amount, capacity + 1e-9)``.
_Checks = Tuple[Tuple[int, float, float], ...]

_INF = float("inf")


class _Bidder:
    """One active job's state in the grant loop, as plain numbers.

    ``gain``, ``kind``, ``t_worker`` and ``t_ps`` are the job's current
    bid, set by :meth:`bid`; a heap entry carries only the version stamp it
    was made at, so an entry whose version still matches is this bid.
    """

    __slots__ = (
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
        "gain",
        "kind",
        "t_worker",
        "t_ps",
    )

    def __init__(
        self,
        request: AllocationRequest,
        worker_checks: _Checks,
        ps_checks: _Checks,
        dom_worker: float,
        dom_ps: float,
    ) -> None:
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
        self.base = _INF
        self.version = 0

    def bid(self, ledger) -> bool:
        """Score one more worker and one more PS (Eqn 9); True when it bids.

        Each candidate's completion time is ``work / speed`` with one
        :func:`_safe_speed` call, worker first, and the gain is term for
        term the one of :func:`_gain_from_times`. A non-positive, NaN or
        infinite gain is a voluntary yield, recorded on the *ledger*.
        """
        p, w = self.ps, self.workers
        work, fn, base = self.work, self.speed, self.base
        speed = _safe_speed(fn, p, w + 1)
        t_worker = work / speed if speed > 0 else _INF
        speed = _safe_speed(fn, p + 1, w)
        t_ps = work / speed if speed > 0 else _INF
        gain_worker = -_INF
        gain_ps = -_INF
        if w < self.max_workers:
            if base != _INF or t_worker != _INF:
                reduction = (base - t_worker) if base != _INF else 0.0
                gain_worker = reduction / self.dom_worker
        if p < self.max_ps:
            if base != _INF or t_ps != _INF:
                reduction = (base - t_ps) if base != _INF else 0.0
                gain_ps = reduction / self.dom_ps
        if gain_worker >= gain_ps:
            gain, self.kind = gain_worker * self.priority, "worker"
        else:
            gain, self.kind = gain_ps * self.priority, "ps"
        self.gain = gain
        self.t_worker = t_worker
        self.t_ps = t_ps
        if gain > 0 and gain != _INF:
            return True
        if ledger:
            # Jobs at their task caps land here too (their gain is -inf).
            ledger.record_denial(
                self.job_id,
                "converged_yield",
                workers=w,
                ps=p,
                gain=gain if gain == gain and abs(gain) != _INF else None,
            )
        return False


def allocate(
    requests: Iterable[AllocationRequest],
    capacity: ResourceVector,
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

    Returns
    -------
    AllocationResult
        Jobs that could not get the 1+1 starter allocation are listed in
        ``starved`` and receive no tasks (they will be retried next
        interval, §4.2's pausing behaviour). Each grant is recorded on the
        active decision ledger (:mod:`repro.obs.ledger`).
    """
    requests = list(requests)
    seen = set()
    for request in requests:
        if request.job_id in seen:
            raise SchedulingError(f"duplicate job id {request.job_id!r}")
        seen.add(request.job_id)

    # None when off: the grant loop's ``if ledger`` tests then cost no call.
    ledger = active_ledger() or None
    if ledger:
        ledger.begin_round()

    # Capacity accounting on plain numbers: resources are numbered in
    # capacity order (a demanded resource the capacity lacks gets a limit
    # of 1e-9, as ``fits_within`` would), and each demand becomes a tuple
    # of ``(index, amount, capacity + 1e-9)`` checks, so the per-pop test
    # never touches a ResourceVector.
    index: Dict[str, int] = {}
    limits: List[float] = []
    for name, amount in capacity.items():
        index[name] = len(limits)
        limits.append(amount + 1e-9)
    used = [0.0] * len(limits)

    def checks_of(demand: ResourceVector) -> _Checks:
        checks = []
        for name, amount in demand.items():
            i = index.get(name)
            if i is None:
                i = index[name] = len(limits)
                limits.append(1e-9)
                used.append(0.0)
            checks.append((i, amount, limits[i]))
        return tuple(checks)

    def fits(checks: _Checks) -> bool:
        for i, amount, limit in checks:
            if used[i] + amount > limit:
                return False
        return True

    def consume(checks: _Checks) -> None:
        for i, amount, _ in checks:
            used[i] += amount

    # Checks and dominant share of each task shape, and the checks of each
    # starter pair, built once per round: jobs of one shape share them. The
    # key is the exact ``(resource, amount)`` sequence, so a shared entry is
    # the one the job's own demand would give, float for float.
    shapes: Dict[tuple, Tuple[_Checks, float]] = {}
    starters: Dict[Tuple[tuple, tuple], _Checks] = {}

    def shape_of(key: tuple, demand: ResourceVector) -> Tuple[_Checks, float]:
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = (checks_of(demand), _dominant_amount(demand, capacity))
        return shape

    # Phase 1: anti-starvation starter allocations.
    bidders: List[_Bidder] = []
    starved: List[str] = []
    for request in requests:
        worker_key = tuple(request.worker_demand.items())
        ps_key = tuple(request.ps_demand.items())
        starter = starters.get((worker_key, ps_key))
        if starter is None:
            starter = starters[worker_key, ps_key] = checks_of(
                request.worker_demand + request.ps_demand
            )
        if fits(starter):
            consume(starter)
            worker_checks, dom_worker = shape_of(worker_key, request.worker_demand)
            ps_checks, dom_ps = shape_of(ps_key, request.ps_demand)
            bidders.append(_Bidder(request, worker_checks, ps_checks, dom_worker, dom_ps))
        else:
            starved.append(request.job_id)
            if ledger:
                ledger.record_denial(
                    request.job_id, "capacity_exhausted", stage="starter"
                )

    # Phase 2: greedy marginal-gain grants through a lazy max-heap of
    # ``(-gain, counter, bidder, version)``; an entry is stale once the
    # bidder's version moved on. A grant reuses the bid's candidate time as
    # the job's new base, so only the granted job's two +1-task candidates
    # are re-scored. A re-scored bid strictly above the heap top would be
    # popped right back, so it is granted in place (on a tie the older
    # entry wins, so it goes through the heap).
    heap: List[Tuple[float, int, _Bidder, int]] = []
    counter = itertools.count()
    heappush, heappop = heapq.heappush, heapq.heappop
    for bidder in bidders:
        speed = _safe_speed(bidder.speed, 1, 1)
        bidder.base = bidder.work / speed if speed > 0 else _INF
        if bidder.bid(ledger):
            heappush(heap, (-bidder.gain, next(counter), bidder, 0))

    granted = 0
    bidder = None
    while True:
        if bidder is None:
            if not heap:
                break
            _, _, bidder, version = heappop(heap)
            if bidder.version != version:
                bidder = None
                continue  # stale entry
        kind = bidder.kind
        checks = bidder.worker_checks if kind == "worker" else bidder.ps_checks
        for i, amount, bound in checks:
            if used[i] + amount > bound:
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
                    checks = None
                break
        if checks is None:
            # Fires at most once per job per round: the job is not
            # re-scored, and its version stamp kills stale entries.
            if ledger:
                ledger.record_denial(
                    bidder.job_id,
                    "capacity_exhausted",
                    stage="grow",
                    workers=bidder.workers,
                    ps=bidder.ps,
                )
            bidder = None
            continue  # job can't grow; others may still fit
        for i, amount, _ in checks:
            used[i] += amount
        if kind == "worker":
            bidder.workers += 1
            bidder.base = bidder.t_worker
        else:
            bidder.ps += 1
            bidder.base = bidder.t_ps
        bidder.version += 1
        granted += 1
        if ledger:
            # Peek the next-best bidder. Discarding stale entries here is
            # amortized-free: the pop loop would skip them anyway.
            while heap and heap[0][2].version != heap[0][3]:
                heappop(heap)
            gain = bidder.gain
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
        if not bidder.bid(ledger):
            bidder = None
        elif heap and not -bidder.gain < heap[0][0]:
            heappush(heap, (-bidder.gain, next(counter), bidder, bidder.version))
            bidder = None

    # Heap drained: either gains went non-positive or nothing else fit. A
    # bidder's demands only name resources the capacity has (its starter
    # fit), so an infinite cached share means a zero share.
    zero_share = any(b.dom_worker == _INF or b.dom_ps == _INF for b in bidders)
    any_fits = any(fits(b.worker_checks) or fits(b.ps_checks) for b in bidders)
    stop_reason = "gains" if any_fits and not zero_share else "capacity"

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
    )
