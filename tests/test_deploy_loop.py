"""Tests for the deployment control loop (§5.5)."""

import hashlib
import json

import numpy as np
import pytest

from repro.cluster import cpu_mem
from repro.common.errors import SchedulingError
from repro.deploy import ControlLoop, cluster_from_api
from repro.k8s import APIServer, PodSpec
from repro.schedulers import CompositeScheduler, JobView, make_scheduler
from repro.workloads import StepTimeModel, make_job


@pytest.fixture
def api():
    server = APIServer()
    for i in range(5):
        server.register_node(f"n{i}", cpu_mem(16, 64))
    return server


def view(job_id, model="seq2seq", remaining=50_000):
    spec = make_job(model, mode="sync", job_id=job_id)
    truth = StepTimeModel(spec.profile, "sync")
    return JobView(
        spec=spec,
        remaining_steps=remaining,
        speed=lambda p, w, t=truth: t.speed(p, w),
        observation_count=100,
    )


class TestClusterFromApi:
    def test_capacity_mirrors_nodes(self, api):
        cluster = cluster_from_api(api)
        assert len(cluster) == 5
        assert cluster.total_capacity == cpu_mem(80, 320)

    def test_unmanaged_pods_occupy_capacity(self, api):
        api.create_pod(
            PodSpec(
                name="tenant/worker-0",
                job_id="tenant",
                role="worker",
                index=0,
                demand=cpu_mem(8, 16),
            )
        )
        api.bind_pod("tenant/worker-0", "n0")
        cluster = cluster_from_api(api)
        assert cluster.server("n0").available == cpu_mem(8, 48)

    def test_managed_pods_excluded(self, api):
        api.create_pod(
            PodSpec(
                name="mine/worker-0",
                job_id="mine",
                role="worker",
                index=0,
                demand=cpu_mem(8, 16),
            )
        )
        api.bind_pod("mine/worker-0", "n0")
        cluster = cluster_from_api(api, managed_jobs={"mine"})
        assert cluster.server("n0").available == cpu_mem(16, 64)

    def test_empty_api_rejected(self):
        with pytest.raises(SchedulingError):
            cluster_from_api(APIServer())


class TestControlLoop:
    def test_step_creates_pods(self, api):
        loop = ControlLoop(api, make_scheduler("optimus"))
        report = loop.step([view("a")])
        assert report.reconcile.pods_created >= 2
        alloc = report.decision.allocations["a"]
        assert len(api.list_pods(job_id="a")) == alloc.total
        assert report.paused == ()

    def test_steps_are_idempotent_when_decision_stable(self, api):
        loop = ControlLoop(api, make_scheduler("optimus"))
        views = [view("a")]
        first = loop.step(views)
        second = loop.step(views)
        # Same inputs, same decision: nothing to reconcile.
        assert second.decision.allocations == first.decision.allocations
        assert second.reconcile.pods_created == 0
        assert second.reconcile.pods_deleted == 0

    def test_step_respects_foreign_tenants(self, api):
        # Another tenant occupies most of three nodes.
        for i in range(3):
            name = f"tenant/worker-{i}"
            api.create_pod(
                PodSpec(
                    name=name, job_id="tenant", role="worker", index=i,
                    demand=cpu_mem(14, 20),
                )
            )
            api.bind_pod(name, f"n{i}")
        loop = ControlLoop(api, make_scheduler("optimus"))
        report = loop.step([view("a")])
        # The tenant's pods survive and capacity is honoured.
        assert len(api.list_pods(job_id="tenant")) == 3
        for node in api.list_nodes():
            assert node.allocated.fits_within(node.capacity)

    def test_finished_job_torn_down_with_checkpoint(self, api):
        loop = ControlLoop(api, make_scheduler("optimus"))
        loop.step([view("a")], progress={"a": 10.0})
        report = loop.step([], progress={"a": 999.0})
        assert report.reconcile.pods_deleted >= 2
        assert loop.controller.load_checkpoint("a") == 999.0
        assert api.list_pods(job_id="a") == []

    def test_departing_job_frees_its_capacity_in_the_same_step(self, api):
        seen = []

        class Spy(CompositeScheduler):
            def schedule(self, cluster, jobs):
                seen.append(cluster.total_available)
                return super().schedule(cluster, jobs)

        loop = ControlLoop(api, Spy("optimus", "optimus"))
        loop.step([view("a")])
        assert api.list_pods(job_id="a")
        # "a" left the views: this step tears its pods down, so the
        # scheduler may place "b" onto the whole cluster.
        report = loop.step([view("b")])
        assert seen[1] == cpu_mem(80, 320)
        assert api.list_pods(job_id="a") == []
        assert report.paused == ()
        assert len(api.list_pods(job_id="b")) == report.decision.allocations["b"].total

    def test_rescale_cycles_through_checkpoint(self, api):
        loop = ControlLoop(api, make_scheduler("optimus"))
        loop.step([view("a", remaining=100_000)], progress={"a": 0.0})
        # Much less work left: Optimus shrinks the job.
        report = loop.step([view("a", remaining=10.0)], progress={"a": 5_000.0})
        if report.reconcile.jobs_scaled:
            assert report.reconcile.checkpoints_saved >= 1
            assert report.reconcile.checkpoints_restored >= 1

    def test_drain(self, api):
        loop = ControlLoop(api, make_scheduler("optimus"))
        loop.step([view("a"), view("b")])
        loop.drain(progress={"a": 1.0, "b": 2.0})
        assert api.list_pods() == []
        assert loop.controller.load_checkpoint("b") == 2.0

    def test_two_jobs_share_cluster(self, api):
        loop = ControlLoop(api, make_scheduler("optimus"))
        report = loop.step([view("a"), view("b", model="cnn-rand")])
        assert set(report.decision.allocations) == {"a", "b"}
        per_job = {}
        for pod in api.list_pods():
            per_job[pod.job_id] = per_job.get(pod.job_id, 0) + 1
        assert set(per_job) == {"a", "b"}


#: Active jobs per step of the pinned scenario: j1 pauses at step 3 and
#: resumes at step 4, n2 is cordoned before step 6, j0 finishes at step 7,
#: j2 and j4 at step 9.
PINNED_SCHEDULE = (
    ("j0", "j1"),
    ("j0", "j1", "j2"),
    ("j0", "j1", "j2", "j3"),
    ("j0", "j2", "j3"),
    ("j0", "j1", "j2", "j3"),
    ("j0", "j1", "j2", "j3", "j4"),
    ("j0", "j1", "j2", "j3", "j4"),
    ("j1", "j2", "j3", "j4", "j5"),
    ("j1", "j2", "j3", "j4", "j5"),
    ("j1", "j3", "j5"),
)
PINNED_MODELS = ("seq2seq", "cnn-rand", "resnet-50", "rnn-lstm", "inception-bn", "dssm")

#: Per step: (pods_created, pods_deleted, checkpoints_saved,
#: checkpoints_restored, jobs_scaled, progress_updates, jobs_rolled_back,
#: jobs_failed, paused).
PINNED_REPORTS = [
    (16, 0, 0, 0, ("j1", "j0"), 0, (), (), ()),
    (17, 16, 2, 2, ("j1", "j0", "j2"), 0, (), (), ()),
    (7, 17, 3, 2, ("j1", "j2"), 0, ("j3", "j0"), (), ()),
    (8, 9, 2, 1, ("j0",), 1, ("j3",), (), ()),
    (7, 13, 2, 2, ("j1", "j2"), 0, ("j3", "j0"), (), ()),
    (2, 15, 3, 1, ("j1",), 0, ("j0", "j3", "j2", "j4"), (), ()),
    (13, 12, 2, 2, ("j0", "j3", "j2", "j4"), 1, (), (), ()),
    (11, 15, 5, 4, ("j1", "j3", "j2", "j4"), 0, ("j5",), (), ()),
    (5, 0, 0, 0, ("j5",), 4, (), (), ()),
    (8, 16, 5, 2, ("j1", "j5"), 0, ("j3",), (), ()),
]
#: The final ``store.list_prefix("/")``: its keys outside ``/pods/`` and a
#: SHA-256 of every (key, value) pair in listing order.
PINNED_META_KEYS = (
    [f"/checkpoints/j{i}" for i in range(6)]
    + ["/intents/j1", "/intents/j5"]
    + ["/managed/j1", "/managed/j3", "/managed/j5"]
    + [f"/nodes/n{i}" for i in range(8)]
)
PINNED_POD_COUNT = 10
PINNED_STORE_SHA256 = "213f17299672ed33eb1190118b4f1f970493a6404952b658097953387162c3b2"


class TestPinnedReconcileBehaviour:
    """A seeded multi-step loop pinned to reports and store recorded earlier.

    Covers launches, rescales, rollbacks on a full cluster, a pause and a
    resume from checkpoint, finishes and a cordoned node; any change to
    how reconcile reads or writes the store shows up here.
    """

    @staticmethod
    def run_scenario():
        rng = np.random.default_rng(17)
        api = APIServer()
        for i in range(8):
            api.register_node(f"n{i}", cpu_mem(16, 64))
        loop = ControlLoop(api, make_scheduler("optimus"))
        specs = {
            f"j{i}": make_job(model, mode="sync", job_id=f"j{i}")
            for i, model in enumerate(PINNED_MODELS)
        }
        truths = {
            job_id: StepTimeModel(spec.profile, "sync")
            for job_id, spec in specs.items()
        }
        remaining = {job_id: float(rng.integers(20_000, 200_000)) for job_id in specs}
        progress = dict.fromkeys(specs, 0.0)
        reports = []
        for step, active in enumerate(PINNED_SCHEDULE):
            if step == 6:
                api.cordon_node("n2")
            for job_id in active:
                remaining[job_id] = max(
                    remaining[job_id] * float(rng.uniform(0.3, 0.9)), 10.0
                )
            views = [
                JobView(
                    spec=specs[job_id],
                    remaining_steps=remaining[job_id],
                    speed=truths[job_id].speed,
                    observation_count=100,
                )
                for job_id in active
            ]
            report = loop.step(views, progress=dict(progress))
            rec = report.reconcile
            reports.append(
                (
                    rec.pods_created,
                    rec.pods_deleted,
                    rec.checkpoints_saved,
                    rec.checkpoints_restored,
                    rec.jobs_scaled,
                    rec.progress_updates,
                    rec.jobs_rolled_back,
                    rec.jobs_failed,
                    report.paused,
                )
            )
            for job_id in active:
                progress[job_id] += float(rng.integers(100, 1000))
        return reports, api.store.list_prefix("/")

    def test_reports_and_store_match_recording(self):
        reports, store = self.run_scenario()
        assert reports == PINNED_REPORTS
        assert [k for k in store if not k.startswith("/pods/")] == PINNED_META_KEYS
        assert sum(k.startswith("/pods/") for k in store) == PINNED_POD_COUNT
        digest = hashlib.sha256(json.dumps(list(store.items())).encode()).hexdigest()
        assert digest == PINNED_STORE_SHA256
