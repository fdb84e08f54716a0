"""Pollux-style goodput allocation (Qiao et al., OSDI 2020).

Optimus' §4.1 allocator maximises the marginal reduction in *estimated
completion time*, which is driven by raw throughput ``f(p, w)``. Pollux
observes that raw steps are not all equally useful: a job close to
convergence gains little per step, and asynchronous jobs lose convergence
progress to gradient staleness as workers are added. It therefore allocates
by **goodput** -- throughput times *statistical efficiency*:

    goodput(p, w) = f(p, w) * SE(w)
    SE(w)         = loss_efficiency / (1 + staleness * (w - 1))   (async)
                  = loss_efficiency                                (sync)

``loss_efficiency`` comes from the fitted §3.1 loss curve: the predicted
marginal loss decrease of the job's *next* step relative to the start of
its current training phase (see
:meth:`repro.core.convergence.ConvergenceEstimator.marginal_efficiency`).

The allocator reuses the §4.1 incremental max-heap verbatim, but the two
SE factors enter it through different doors, matching the heap's
marginal-gain objective:

* the **staleness discount** is worker-dependent -- it reshapes the speed
  curve, peaking goodput at a finite worker count -- so it wraps the
  fitted speed function in :class:`~repro.core.allocation.WeightedSpeed`,
  a scalar ``f(p, w)`` like every other speed source. Past the peak the
  marginal gain of another worker goes non-positive and the heap simply
  stops scaling the job out.
* the **loss-curve term** is a uniform multiplier, and uniformly slowing
  a job down makes its completion-time *differences* larger, i.e. MORE
  attractive to a marginal-JCT-gain heap -- exactly backwards. It
  therefore enters as a multiplicative *priority* on the request (the
  lever the §4.1 young-job downgrade uses in ``optimus_allocation``),
  scaling the job's marginal gains down so nearly-converged jobs yield to
  fresh ones.

Everything else (starter allocations, dominant-share normalisation) is
inherited unchanged.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.cluster.resources import ResourceVector
from repro.core.allocation import (
    AllocationRequest,
    TaskAllocation,
    WeightedSpeed,
    allocate,
)
from repro.schedulers.base import MIN_STATISTICAL_EFFICIENCY, JobView
from repro.workloads.speed import MODE_SYNC


class _EfficiencyWeight:
    """The ``weight(p, w)`` implementing the staleness discount, on floats."""

    __slots__ = ("staleness",)

    def __init__(self, staleness: float) -> None:
        self.staleness = staleness

    def __call__(self, p: int, w: int) -> float:
        eff = 1.0
        if self.staleness > 0.0:
            eff = eff / (1.0 + self.staleness * max(w - 1.0, 0.0))
        return max(eff, MIN_STATISTICAL_EFFICIENCY)


def goodput_speed(view: JobView):
    """*view*'s fitted speed function discounted by gradient staleness.

    Synchronous jobs pay no staleness, so their speed passes through
    untouched.
    """
    if view.spec.mode == MODE_SYNC:
        return view.speed
    staleness = view.spec.profile.staleness_factor
    if staleness <= 0.0:
        return view.speed
    return WeightedSpeed(view.speed, _EfficiencyWeight(staleness))


def convergence_priority(view: JobView) -> float:
    """The loss-curve SE term as a marginal-gain multiplier, in [floor, 1]."""
    eff = min(max(view.loss_efficiency, 0.0), 1.0)
    return max(eff, MIN_STATISTICAL_EFFICIENCY)


def goodput_allocation(
    jobs: Sequence[JobView], capacity: ResourceVector
) -> Dict[str, TaskAllocation]:
    """Marginal-*goodput* allocation on the §4.1 incremental heap.

    Identical to ``optimus_allocation`` at its default (no young-job
    downgrade) except that (a) asynchronous jobs' speed functions carry
    the staleness discount, so they stop scaling out once stale gradients
    erode the marginal step value, and (b) each job's marginal gains are
    weighted by its loss-curve efficiency, so nearly-converged jobs yield
    to fresh ones. It takes no keyword arguments.
    """
    requests = [
        AllocationRequest(
            job_id=view.job_id,
            remaining_work=max(view.remaining_steps, 0.0),
            speed=goodput_speed(view),
            worker_demand=view.spec.worker_demand,
            ps_demand=view.spec.ps_demand,
            priority=convergence_priority(view),
        )
        for view in jobs
    ]
    result = allocate(requests, capacity)
    return dict(result.allocations)

