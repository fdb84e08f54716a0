"""Recovery behaviour of the deployment layer under injected failures:
reconcile rollback, control-loop graceful degradation, restart recovery,
node re-registration and watcher isolation."""

import pytest

from repro.cluster import cpu_mem
from repro.common.errors import KVStoreError
from repro.core.allocation import TaskAllocation
from repro.deploy import ControlLoop
from repro.k8s import APIServer, JobController, JobTarget, PodSpec
from repro.k8s.kvstore import KVStore
from repro.obs import (
    EVENT_CHECKPOINT_MISSING,
    EVENT_RESCALE_ROLLED_BACK,
    MetricsRegistry,
    RecordingTracer,
)
from repro.schedulers import JobView, Scheduler, SchedulingDecision
from repro.workloads import StepTimeModel, make_job


@pytest.fixture
def api():
    server = APIServer()
    server.register_node("n0", cpu_mem(16, 64))
    server.register_node("n1", cpu_mem(16, 64))
    return server


def view(job_id, model="seq2seq"):
    spec = make_job(model, mode="sync", job_id=job_id)
    truth = StepTimeModel(spec.profile, "sync")
    return JobView(
        spec=spec,
        remaining_steps=50_000,
        speed=lambda p, w, t=truth: t.speed(p, w),
        observation_count=100,
    )


def target(job_id, layout, demand=cpu_mem(2, 4)):
    return JobTarget(
        job_id=job_id, worker_demand=demand, ps_demand=demand, layout=layout
    )


class TestReconcileRollback:
    def test_failed_rescale_restores_previous_pods(self, api):
        controller = JobController(api)
        controller.reconcile([target("a", {"n0": (1, 1)})])
        before = {
            p.name: p.node for p in api.list_pods(job_id="a") if p.bound
        }
        assert len(before) == 2

        report = controller.reconcile([target("a", {"ghost-node": (1, 1)})])
        assert report.jobs_rolled_back == ("a",)
        assert report.jobs_scaled == ()

        after = {p.name: p.node for p in api.list_pods(job_id="a") if p.bound}
        assert after == before
        # The containers really did restart during the rollback.
        assert all(p.restarts == 1 for p in api.list_pods(job_id="a"))
        # Node accounting is consistent with exactly those pods.
        assert api.node("n0").allocatable == cpu_mem(16 - 4, 64 - 8)

    def test_failed_rescale_does_not_stop_the_pass(self, api):
        controller = JobController(api)
        controller.reconcile([target("a", {"n0": (1, 1)})])

        report = controller.reconcile(
            [
                target("a", {"ghost-node": (2, 1)}),
                target("b", {"n1": (1, 1)}),
            ]
        )
        assert report.jobs_rolled_back == ("a",)
        assert "b" in report.jobs_scaled
        assert len(api.list_pods(job_id="a")) == 2  # restored
        assert len(api.list_pods(job_id="b")) == 2  # still launched

    def test_overcommitting_rescale_rolls_back(self, api):
        controller = JobController(api)
        controller.reconcile([target("a", {"n0": (1, 1)})])
        report = controller.reconcile([target("a", {"n0": (40, 40)})])
        assert report.jobs_rolled_back == ("a",)
        # The job is back on its feet on its previous pods.
        assert len([p for p in api.list_pods(job_id="a") if p.bound]) == 2
        assert api.node("n0").allocatable == cpu_mem(16 - 4, 64 - 8)

    def test_rollback_reads_pods_fresh(self, api):
        # The relaunch creates and binds worker-0 on n1, then creates
        # worker-1 and fails to bind it: the rollback must see both new
        # pods (they are not in the pass's pod snapshot) and remove them.
        controller = JobController(api)
        controller.reconcile([target("a", {"n0": (1, 1)})])
        before = {p.name: p.node for p in api.list_pods(job_id="a")}

        report = controller.reconcile(
            [target("a", {"n1": (1, 0), "ghost-node": (1, 0)})]
        )
        assert report.jobs_rolled_back == ("a",)
        pods = api.list_pods(job_id="a")
        assert {p.name: p.node for p in pods} == before
        assert all(p.restarts == 1 for p in pods)
        assert api.node("n1").allocated == cpu_mem(0, 0)
        assert api.node("n0").allocatable == cpu_mem(16 - 4, 64 - 8)


class FlipFlopScheduler(Scheduler):
    """First decision fits; every later one overcommits the same job."""

    name = "flipflop"

    def __init__(self):
        self.calls = 0

    def schedule(self, cluster, jobs):
        self.calls += 1
        job_id = jobs[0].job_id
        if self.calls == 1:
            layout = {"n0": (1, 1)}
            alloc = TaskAllocation(1, 1)
        else:
            layout = {"n0": (60, 60)}  # cannot possibly bind
            alloc = TaskAllocation(60, 60)
        return SchedulingDecision(
            allocations={job_id: alloc}, layouts={job_id: layout}
        )


class TestControlLoopDegradation:
    def test_failed_rescale_traced_and_counted(self, api):
        tracer = RecordingTracer()
        metrics = MetricsRegistry()
        loop = ControlLoop(
            api, FlipFlopScheduler(), tracer=tracer, metrics=metrics
        )
        views = [view("a")]

        first = loop.step(views, progress={"a": 0.0})
        assert first.reconcile.pods_created == 2
        assert first.reconcile.jobs_rolled_back == ()

        # The overcommitting decision must not blow up the loop.
        second = loop.step(views, progress={"a": 500.0})
        assert second.reconcile.jobs_rolled_back == ("a",)
        assert second.reconcile.pods_created == 0

        events = tracer.of_type(EVENT_RESCALE_ROLLED_BACK)
        assert [e["job_id"] for e in events] == ["a"]
        counters = metrics.snapshot()["counters"]
        assert counters["loop.rescale_rollbacks"] == 1
        # The job still runs on its previous pods.
        assert len([p for p in api.list_pods(job_id="a") if p.bound]) == 2
        # Progress made it into the checkpoint before the failed teardown.
        assert loop.controller.load_checkpoint("a") == 500.0


class TestRecover:
    def test_missing_checkpoint_traced_and_counted(self, api):
        tracer = RecordingTracer()
        metrics = MetricsRegistry()
        loop = ControlLoop(
            api, FlipFlopScheduler(), tracer=tracer, metrics=metrics
        )
        loop.controller.save_checkpoint("a", 1234.0)

        adopted = loop.recover(["a", "b"])
        assert adopted == {"a": 1234.0, "b": 0.0}
        events = tracer.of_type(EVENT_CHECKPOINT_MISSING)
        assert [e["job_id"] for e in events] == ["b"]
        assert metrics.snapshot()["counters"]["loop.checkpoints_missing"] == 1

    def test_no_events_when_all_checkpoints_present(self, api):
        tracer = RecordingTracer()
        loop = ControlLoop(api, FlipFlopScheduler(), tracer=tracer)
        loop.controller.save_checkpoint("a", 10.0)
        assert loop.recover(["a"]) == {"a": 10.0}
        assert tracer.of_type(EVENT_CHECKPOINT_MISSING) == []


class TestNodeReRegistration:
    def test_identical_reregistration_is_idempotent(self, api):
        api.create_pod(
            PodSpec(
                name="j/worker-0",
                job_id="j",
                role="worker",
                index=0,
                demand=cpu_mem(4, 8),
            )
        )
        api.bind_pod("j/worker-0", "n0")
        before = api.node("n0").allocatable

        node = api.register_node("n0", cpu_mem(16, 64))
        # Allocation record survived the re-announce.
        assert node.allocatable == before == cpu_mem(12, 56)

    def test_conflicting_capacity_rejected(self, api):
        with pytest.raises(KVStoreError):
            api.register_node("n0", cpu_mem(8, 32))
        # The original record is untouched.
        assert api.node("n0").capacity == cpu_mem(16, 64)


class TestWatcherIsolation:
    def test_one_bad_watcher_does_not_starve_the_rest(self):
        store = KVStore()
        seen = []

        def bad(event):
            raise RuntimeError("watcher bug")

        store.watch("/k", bad)
        store.watch("/k", seen.append)

        with pytest.raises(KVStoreError) as excinfo:
            store.put("/k1", "v")
        # The mutation landed and the healthy watcher heard about it.
        assert store.get("/k1") == "v"
        assert store.revision == 1
        assert [e.key for e in seen] == ["/k1"]
        assert "watcher callback(s) failed" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_all_failures_aggregated(self):
        store = KVStore()

        def bad(event):
            raise RuntimeError("boom")

        store.watch("/k", bad)
        store.watch("/k", bad)
        with pytest.raises(KVStoreError, match="2 watcher"):
            store.put("/k1", "v")
