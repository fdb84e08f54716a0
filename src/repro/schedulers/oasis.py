"""OASiS-style online primal-dual admission (Bao et al., INFOCOM 2018).

Where Optimus re-optimises the whole cluster every interval, OASiS treats
scheduling as an *online* problem: jobs are considered in arrival order and
admitted (or not) against **resource prices** that rise with utilization.
The primal-dual template:

* each resource ``r`` carries a dual price that grows exponentially with
  its utilization fraction ``y_r``::

      price_r(y_r) = L * (U / L) ** y_r

  where ``U`` is the highest utility density any job can offer (so a full
  resource prices out everything) and ``L = U / DEFAULT_PRICE_RANGE`` is
  the floor (so an empty resource admits anything with positive utility);

* a job is admitted with the candidate configuration maximising its
  **surplus** -- utility minus the priced cost of its demand -- provided
  the surplus is positive and the demand physically fits;

* every grant raises utilization, hence prices, hence the bar for later
  jobs: early cheap admissions, late selective ones.

Utility here is the job's predicted **goodput** (see
:meth:`repro.schedulers.base.JobView.goodput`): effective convergence
progress per second. Candidate configurations are 1-worker:1-PS bundles
(§6.1 pins the baselines' ratio), on a doubling ladder so a round over
``J`` jobs costs ``O(J log MAX_TASKS_PER_JOB)`` speed evaluations.

The allocator is stateless across intervals: prices are rebuilt from zero
utilization each round, so a paused job is simply re-auctioned next time.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.cluster.resources import ResourceVector
from repro.core.allocation import MAX_TASKS_PER_JOB, TaskAllocation
from repro.obs.ledger import active_ledger
from repro.schedulers.base import JobView

#: Ratio between the highest and lowest resource price, ``U / L``.
#: Larger values admit more aggressively on an empty cluster and clamp
#: harder near saturation.
DEFAULT_PRICE_RANGE = 64.0


def _bundle_ladder(max_tasks: int, requested: int) -> List[int]:
    """Candidate bundle counts: doubling ladder plus the owner's request."""
    sizes = set()
    n = 1
    while n <= max_tasks:
        sizes.add(n)
        n *= 2
    if 1 <= requested <= max_tasks:
        sizes.add(requested)
    sizes.add(max_tasks)
    return sorted(sizes)


def _normalized(demand: ResourceVector, capacity: ResourceVector) -> float:
    """Total capacity-normalised size of *demand* (sum over resources)."""
    total = 0.0
    for name, amount in demand.items():
        cap = capacity.get(name)
        if cap > 0:
            total += amount / cap
    return total


def oasis_allocation(
    jobs: Sequence[JobView], capacity: ResourceVector
) -> Dict[str, TaskAllocation]:
    """One online primal-dual round over the active jobs.

    Jobs are processed in ``(arrival_time, job_id)`` order -- the online
    arrival sequence -- and each either wins its surplus-maximising bundle
    count or is deferred to the next interval. Grants never exceed
    *capacity* (every candidate is checked with ``fits_within`` before
    admission), which is the invariant the property tests pin down. Bundles
    run up to :data:`~repro.core.allocation.MAX_TASKS_PER_JOB` and prices
    span :data:`DEFAULT_PRICE_RANGE`; the policy takes no keyword arguments.
    """
    ordered = sorted(jobs, key=lambda v: (v.spec.arrival_time, v.job_id))
    ledger = active_ledger()
    if ledger:
        ledger.begin_round()

    # Precompute each job's candidate bundles and utilities; establish U,
    # the best utility density on offer, which anchors the price curve.
    candidates: Dict[str, List[dict]] = {}
    best_density = 0.0
    for view in ordered:
        bundle = view.spec.worker_demand + view.spec.ps_demand
        options = []
        for n in _bundle_ladder(MAX_TASKS_PER_JOB, view.spec.requested_workers):
            utility = view.goodput(n, n)
            if utility <= 0.0:
                continue
            demand = bundle * n
            size = _normalized(demand, capacity)
            if size <= 0.0:
                continue
            options.append({"n": n, "utility": utility, "demand": demand})
            best_density = max(best_density, utility / size)
        candidates[view.job_id] = options
    if best_density <= 0.0:
        if ledger:
            for view in ordered:
                ledger.record_denial(view.job_id, "converged_yield")
            ledger.end_round()
        return {}

    upper = best_density
    lower = upper / DEFAULT_PRICE_RANGE

    def price(fraction: float) -> float:
        return lower * math.pow(upper / lower, min(max(fraction, 0.0), 1.0))

    used = ResourceVector()
    allocations: Dict[str, TaskAllocation] = {}
    for view in ordered:
        best = None
        best_surplus = 0.0
        second_surplus = None
        any_fit = False
        for option in candidates[view.job_id]:
            demand = option["demand"]
            if not (used + demand).fits_within(capacity):
                continue
            any_fit = True
            cost = 0.0
            for name, amount in demand.items():
                cap = capacity.get(name)
                if cap > 0:
                    cost += price(used.get(name) / cap) * (amount / cap)
            surplus = option["utility"] - cost
            if surplus > best_surplus:
                second_surplus = best_surplus if best is not None else None
                best_surplus = surplus
                best = option
            elif best is not None and (
                second_surplus is None or surplus > second_surplus
            ):
                second_surplus = surplus
        if best is None:
            # Priced out (or nothing fits): deferred, not starved.
            if ledger:
                if not candidates[view.job_id]:
                    reason = "converged_yield"  # no positive-utility bundle
                elif not any_fit:
                    reason = "capacity_exhausted"
                else:
                    reason = "price_rejected"
                ledger.record_denial(view.job_id, reason)
            continue
        used = used + best["demand"]
        allocations[view.job_id] = TaskAllocation(best["n"], best["n"])
        if ledger:
            # runner_up_gap here is the winning bundle's surplus edge over
            # the job's own second-best bundle (a single-bidder auction).
            ledger.record_grant(
                view.job_id,
                "bundle",
                best_surplus,
                best["n"],
                best["n"],
                runner_up_gap=(
                    best_surplus - second_surplus
                    if second_surplus is not None
                    else None
                ),
            )
    if ledger:
        ledger.end_round()
    return allocations

