"""The deployment control loop makes the simulator's decisions (PAPER.md §5).

Optimus deploys as a pod that polls the Kubernetes master. Each case runs
``simulate`` with a scheduler wrapper that, inside the same scheduling
interval and on the same job views, also steps a fresh
:class:`~repro.deploy.ControlLoop` over an :class:`~repro.k8s.APIServer`
holding the same nodes. The views are live objects (online estimators keep
learning after the interval), so the loop has to run in lockstep: replaying
them after the run would report false differences. Every interval's
allocations and layouts must be identical.

``CHAOS_SEED`` picks the job mix, so each CI matrix seed replays a
different one.
"""

import os

import pytest

from repro.cluster import Cluster, cpu_mem
from repro.core.allocation import TaskAllocation
from repro.deploy import ControlLoop
from repro.k8s import APIServer
from repro.obs import RecordingTracer
from repro.schedulers import JobView, Scheduler, SchedulingDecision, make_scheduler
from repro.sim import SimConfig, Simulation, simulate
from repro.workloads import StepTimeModel, make_job, uniform_arrivals

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
FAST_MODELS = ["cnn-rand", "dssm", "kaggle-ndsb"]


class Lockstep(Scheduler):
    """Schedules for the simulator and steps a control loop on the same views."""

    def __init__(self, cluster, name, **kwargs):
        self.inner = make_scheduler(name, **kwargs)
        api = APIServer()
        for server in cluster:
            api.register_node(server.name, server.capacity)
        self.loop = ControlLoop(api, make_scheduler(name, **kwargs))
        self.intervals = 0
        self.differing = []

    def schedule(self, cluster, jobs):
        decision = self.inner.schedule(cluster, jobs)
        deployed = self.loop.step(jobs).decision
        if (deployed.allocations, deployed.layouts) != (
            decision.allocations,
            decision.layouts,
        ):
            self.differing.append(self.intervals)
        self.intervals += 1
        return decision


#: case -> (scheduler name, estimator mode, scheduler kwargs)
CASES = {
    "optimus-oracle": ("optimus", "oracle", {}),
    "optimus-online": ("optimus", "online", {}),
    "drf": ("drf", "oracle", {}),
    "optimus-placement-cache": ("optimus", "oracle", {"placement_cache": True}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_control_loop_makes_the_simulators_decisions(case):
    name, estimator_mode, kwargs = CASES[case]
    cluster = Cluster.homogeneous(12, cpu_mem(16, 64))
    lockstep = Lockstep(cluster, name, **kwargs)
    jobs = uniform_arrivals(
        num_jobs=40, window=6_000, seed=CHAOS_SEED, models=FAST_MODELS
    )
    result = simulate(
        cluster,
        lockstep,
        jobs,
        SimConfig(seed=CHAOS_SEED, estimator_mode=estimator_mode),
    )
    # Jobs finish and leave the views mid-run, so the loop's snapshot must
    # free their capacity in the step that tears their pods down.
    assert sum(r.completion_time is not None for r in result.jobs.values()) > 1
    assert lockstep.intervals > 5
    assert lockstep.differing == []


class PauseEveryone(Scheduler):
    """Allocates every job one worker and one PS but places none (§4.2 pause)."""

    name = "pause-everyone"

    def schedule(self, cluster, jobs):
        return SchedulingDecision(
            allocations={view.job_id: TaskAllocation(1, 1) for view in jobs}
        )


def test_paused_job_gets_a_total_steps_prediction_on_both_paths():
    spec = make_job("cnn-rand", mode="sync", job_id="a")
    sim = Simulation(
        Cluster.homogeneous(2, cpu_mem(16, 64)),
        PauseEveryone(),
        [spec],
        SimConfig(estimator_mode="oracle", max_time=1_200.0),
        tracer=RecordingTracer(),
    )
    sim.run()
    intervals = 3  # boundaries 0, 600 and 1200
    assert sim.estimators.resolve_totals("a", 1.0, 0.0) == intervals

    api = APIServer()
    api.register_node("n0", cpu_mem(16, 64))
    loop = ControlLoop(api, PauseEveryone(), tracer=RecordingTracer())
    truth = StepTimeModel(spec.profile, "sync")
    view = JobView(spec=spec, remaining_steps=1_000.0, speed=truth.speed)
    report = loop.step([view])
    assert report.paused == ("a",)
    assert loop.observe_completion("a", 1_000.0) == 1
