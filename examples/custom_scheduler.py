#!/usr/bin/env python
"""Plugging your own scheduler into the harness.

The evaluation pipeline treats schedulers as pluggable: anything
implementing :class:`repro.schedulers.Scheduler` can be simulated against
the paper's workloads and compared with Optimus. This example implements a
deliberately naive scheduler -- give every active job the same fixed (2, 2)
allocation, placed with the built-in spread policy -- and shows how far
behind Optimus it lands.

Run:  python examples/custom_scheduler.py
"""

from typing import Sequence

from repro import Cluster, SimConfig, cpu_mem, make_scheduler, simulate
from repro.cluster.cluster import Cluster as ClusterType
from repro.core.allocation import TaskAllocation
from repro.core.placement import PlacementRequest, layout_counts
from repro.schedulers import JobView, Scheduler, SchedulingDecision
from repro.schedulers.policies import spread_placement
from repro.workloads import uniform_arrivals


class FixedTwoByTwoScheduler(Scheduler):
    """Every job asks for exactly 2 workers + 2 parameter servers, spread out.

    This is the "static resource allocation" §2.3 criticises, distilled:
    no job ever benefits from idle capacity, and no job ever shrinks to
    make room for a newcomer.
    """

    name = "fixed-2x2"

    def schedule(
        self, cluster: ClusterType, jobs: Sequence[JobView]
    ) -> SchedulingDecision:
        requests = [
            PlacementRequest(
                job_id=view.job_id,
                workers=2,
                ps=2,
                worker_demand=view.spec.worker_demand,
                ps_demand=view.spec.ps_demand,
            )
            for view in jobs
        ]
        # The spread policy shrinks a job that no (2, 2) layout fits, so
        # each job's allocation is read off its layout.
        placement = spread_placement(cluster, requests)
        allocations = {
            job_id: TaskAllocation(*layout_counts(layout))
            for job_id, layout in placement.layouts.items()
        }
        decision = SchedulingDecision(
            allocations=allocations, layouts=dict(placement.layouts)
        )
        decision.validate()
        return decision


def main() -> None:
    jobs = uniform_arrivals(num_jobs=9, window=12_000, seed=42)
    results = {}
    for scheduler in (make_scheduler("optimus"), FixedTwoByTwoScheduler()):
        cluster = Cluster.homogeneous(13, cpu_mem(16, 80))
        results[scheduler.name] = simulate(
            cluster, scheduler, jobs, SimConfig(seed=7)
        )

    base = results["optimus"]
    print(f"{'scheduler':10s} {'avg JCT':>9s} {'norm':>6s} {'makespan':>9s} {'norm':>6s}")
    for name, result in results.items():
        print(
            f"{name:10s} {result.average_jct/3600:8.2f}h "
            f"{result.average_jct/base.average_jct:6.2f} "
            f"{result.makespan/3600:8.2f}h "
            f"{result.makespan/base.makespan:6.2f}"
        )
    print(
        "\nthe static scheduler leaves the cluster idle whenever fewer than "
        "ten jobs are active,\nand starves nothing -- it is simply slow "
        "everywhere, which is §2.3's point."
    )


if __name__ == "__main__":
    main()
