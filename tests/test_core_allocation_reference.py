"""§4.1 allocation against a reference copy of the earlier grant loop.

:func:`repro.core.allocation.allocate` keeps its grant loop on plain numbers
and is tuned for the per-round cost of fleet-sized simulations. This module
keeps an earlier formulation of the same loop -- one ``push`` per bidder
that evaluates both +1-task candidates through ``_Bidder.completion_time``,
capacity checks keyed by resource name, every grant a heap round trip -- as
the reference. Allocations, starved jobs, the stop reason, every decision
event of a full and a sampled ledger (the grant sequence among them), and
every metric counter must be identical.

The generated fleets cover the branches of the loop: fractional demands
(so running totals land within 1e-9 of a capacity), a resource the capacity
lacks, demands with a zero dominant share, priorities below 1, task caps,
speed functions that raise :class:`FittingError`, return NaN or return a
non-positive speed past some size, and identical jobs whose gains tie.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from typing import Dict, List

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.resources import ResourceVector
from repro.common.errors import FittingError, SchedulingError
from repro.core.allocation import (
    AllocationRequest,
    AllocationResult,
    TaskAllocation,
    allocate,
)
from repro.obs import DecisionLedger, MetricsRegistry, RecordingTracer, use_ledger, use_registry
from repro.obs.ledger import active_ledger
from repro.obs.registry import active_registry

# -- the reference: the grant loop as it was ----------------------------------


def ref_safe_speed(fn, p, w):
    try:
        value = fn(p, w)
    except FittingError:
        active_registry().counter("est.fallback.speed_eval").inc()
        return 0.0
    if value is None or value <= 0 or value != value:  # NaN check
        return 0.0
    return float(value)


def ref_dominant_amount(demand, capacity):
    share = demand.dominant_share(capacity)
    return share if share > 0 else float("inf")


class RefBidder:
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

    def __init__(self, request, worker_checks, ps_checks, dom_worker, dom_ps):
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

    def completion_time(self, p, w):
        speed = ref_safe_speed(self.speed, p, w)
        return self.work / speed if speed > 0 else float("inf")

    def candidate_times(self):
        p, w = self.ps, self.workers
        return self.completion_time(p, w + 1), self.completion_time(p + 1, w)


def ref_allocate(requests, capacity):
    requests = list(requests)
    seen = set()
    for request in requests:
        if request.job_id in seen:
            raise SchedulingError(f"duplicate job id {request.job_id!r}")
        seen.add(request.job_id)

    ledger = active_ledger()
    if ledger:
        ledger.begin_round()

    used: Dict[str, float] = {}
    cap = dict(capacity.items())

    def checks_of(demand):
        return tuple(
            (name, amount, cap.get(name, 0.0) + 1e-9) for name, amount in demand.items()
        )

    def fits(checks):
        for name, amount, limit in checks:
            if used.get(name, 0.0) + amount > limit:
                return False
        return True

    def consume(checks):
        for name, amount, _ in checks:
            used[name] = used.get(name, 0.0) + amount

    bidders: List[RefBidder] = []
    starved: List[str] = []
    for request in requests:
        starter = checks_of(request.worker_demand + request.ps_demand)
        if fits(starter):
            consume(starter)
            bidders.append(
                RefBidder(
                    request,
                    checks_of(request.worker_demand),
                    checks_of(request.ps_demand),
                    ref_dominant_amount(request.worker_demand, capacity),
                    ref_dominant_amount(request.ps_demand, capacity),
                )
            )
        else:
            starved.append(request.job_id)
            if ledger:
                ledger.record_denial(request.job_id, "capacity_exhausted", stage="starter")

    inf = float("inf")
    counter = itertools.count()
    heap = []

    def push(bidder):
        t_worker, t_ps = bidder.candidate_times()
        base = bidder.base
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
                heap, (-gain, next(counter), bidder, kind, bidder.version, t_worker, t_ps)
            )
        elif ledger:
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
    while heap:
        neg_gain, _, bidder, kind, version, t_worker, t_ps = heapq.heappop(heap)
        if bidder.version != version:
            continue
        checks = bidder.worker_checks if kind == "worker" else bidder.ps_checks
        if not fits(checks):
            if kind == "worker" and bidder.ps < bidder.max_ps and fits(bidder.ps_checks):
                kind, checks = "ps", bidder.ps_checks
            elif kind == "ps" and bidder.workers < bidder.max_workers and fits(
                bidder.worker_checks
            ):
                kind, checks = "worker", bidder.worker_checks
            else:
                if ledger:
                    ledger.record_denial(
                        bidder.job_id,
                        "capacity_exhausted",
                        stage="grow",
                        workers=bidder.workers,
                        ps=bidder.ps,
                    )
                continue
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
                runner_up_gap=(gain - runner_gain if runner_gain is not None else None),
            )
        push(bidder)

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
    )


# -- generated fleets -----------------------------------------------------------

AMOUNTS = (0.1, 0.25, 0.3, 0.5, 1.0, 1.5, 2.0)


class Speed:
    """A saturating speed curve ``w / (a + b*w/p + c*w)`` with an optional
    failure once ``p + w`` reaches *fail_at*: a ``FittingError``, NaN, zero
    or a negative speed. Plain-number parameters make equal jobs tie."""

    def __init__(self, a, b, c, failure, fail_at):
        self.args = (a, b, c)
        self.failure = failure
        self.fail_at = fail_at

    def __call__(self, p, w):
        if self.failure and p + w >= self.fail_at:
            if self.failure == "raise":
                raise FittingError("degenerate speed fit")
            return {"nan": math.nan, "zero": 0.0, "negative": -1.0}[self.failure]
        a, b, c = self.args
        return w / (a + b * w / p + c * w)


@st.composite
def demands(draw):
    kind = draw(st.sampled_from(("plain", "plain", "plain", "gpu", "absent", "zero")))
    if kind == "zero":
        return {}
    amounts = {
        "cpu": draw(st.sampled_from(AMOUNTS)),
        "memory": draw(st.sampled_from(AMOUNTS)) * 2,
    }
    if kind == "gpu":
        amounts["gpu"] = draw(st.sampled_from((0.5, 1.0)))
    elif kind == "absent":
        amounts["fpga"] = 1.0  # no capacity has one: the starter never fits
    return amounts


@st.composite
def job_rows(draw):
    return (
        draw(st.sampled_from((0.0, 50.0, 1e3, 2e4, 3e5))),
        (
            draw(st.sampled_from((0.5, 1.0, 2.0))),
            draw(st.sampled_from((0.0, 0.1, 0.5))),
            draw(st.sampled_from((0.01, 0.05, 0.2))),
            draw(st.sampled_from((None, None, "raise", "nan", "zero", "negative"))),
            draw(st.integers(2, 7)),
        ),
        draw(demands()),
        draw(demands()),
        draw(st.sampled_from((1.0, 1.0, 0.95, 0.5))),
        draw(st.sampled_from((1, 2, 3, 100))),
        draw(st.sampled_from((1, 2, 4, 100))),
    )


@st.composite
def fleets(draw):
    """Rows of job parameters (repeats share a row: equal gains) and a capacity."""
    rows = draw(st.lists(job_rows(), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=10))
    capacity = {
        "cpu": draw(st.sampled_from((0.35, 3.0, 7.5, 12.3, 40.0))),
        "memory": draw(st.sampled_from((1.2, 6.0, 15.0, 80.0))),
    }
    if draw(st.booleans()):
        capacity["gpu"] = draw(st.sampled_from((1.0, 2.5, 4.0)))
    return [rows[i] for i in picks], capacity


def build_requests(rows):
    return [
        AllocationRequest(
            job_id=f"j{i}",
            remaining_work=work,
            speed=Speed(*speed),
            worker_demand=ResourceVector(worker),
            ps_demand=ResourceVector(ps),
            priority=priority,
            max_workers=max_workers,
            max_ps=max_ps,
        )
        for i, (work, speed, worker, ps, priority, max_workers, max_ps) in enumerate(rows)
    ]


def observe(run, rows, capacity, mode):
    """One round under a fresh registry and ledger: everything it reports."""
    metrics = MetricsRegistry()
    tracer = RecordingTracer()
    with use_registry(metrics), use_ledger(DecisionLedger(tracer, metrics, mode=mode)):
        result = run(build_requests(rows), ResourceVector(capacity))
    return {
        "allocations": [(job, tuple(a)) for job, a in result.allocations.items()],
        "starved": result.starved,
        "stop_reason": result.stop_reason,
        # json.dumps tells -0.0 from 0.0 and keeps every event's field order.
        "events": [json.dumps(e) for e in tracer.events if e.get("event") == "decision"],
        "metrics": json.dumps(metrics.snapshot(), sort_keys=True),
    }


EQUIVALENCE = settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestAllocateMatchesReference:
    @EQUIVALENCE
    @given(fleet=fleets(), mode=st.sampled_from(("full", "sampled")))
    def test_same_round(self, fleet, mode):
        rows, capacity = fleet
        assert observe(allocate, rows, capacity, mode) == observe(
            ref_allocate, rows, capacity, mode
        )

    def test_equal_jobs_tie_to_submission_order(self):
        # Three identical jobs: every grant round-robins in submission order,
        # which pins the tie rule (the older heap entry wins).
        row = (3e5, (1.0, 0.1, 0.05, None, 2), {"cpu": 1.0}, {"cpu": 0.5}, 1.0, 100, 100)
        rows, capacity = [row] * 3, {"cpu": 9.0}
        observed = observe(allocate, rows, capacity, "full")
        assert observed == observe(ref_allocate, rows, capacity, "full")
        grants = [e for e in map(json.loads, observed["events"]) if e["kind"] == "grant"]
        assert [e["job_id"] for e in grants[:3]] == ["j0", "j1", "j2"]

    def test_every_failure_mode_matches(self):
        rows = [
            (2e4, (1.0, 0.1, 0.05, failure, 4), {"cpu": 0.3, "memory": 0.6},
             {"cpu": 0.1, "memory": 0.2}, 0.95, 100, 100)
            for failure in ("raise", "nan", "zero", "negative")
        ]
        capacity = {"cpu": 7.5, "memory": 15.0}
        observed = observe(allocate, rows, capacity, "full")
        assert observed == observe(ref_allocate, rows, capacity, "full")
        assert '"est.fallback.speed_eval"' in observed["metrics"]
