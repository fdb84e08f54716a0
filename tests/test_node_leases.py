"""Lease-based node health: heartbeats, cordoning, and the dead-node drill
(§5.5 -- a machine that goes silent costs at most one scheduling interval)."""

import pytest

from repro.cluster import cpu_mem
from repro.common.errors import KVStoreError, SchedulingError
from repro.deploy import ControlLoop, cluster_from_api
from repro.k8s import PHASE_FAILED, APIServer, PodSpec
from repro.obs import EVENT_NODE_CORDONED, MetricsRegistry, RecordingTracer
from repro.schedulers import JobView, make_scheduler
from repro.workloads import StepTimeModel, make_job

TTL = 2.0


def leased_api(n=3, ttl=TTL):
    api = APIServer()
    for i in range(n):
        api.register_node(f"n{i}", cpu_mem(16, 64), lease_ttl=ttl, now=0.0)
    return api


def view(job_id, model="seq2seq"):
    spec = make_job(model, mode="sync", job_id=job_id)
    truth = StepTimeModel(spec.profile, "sync")
    return JobView(
        spec=spec,
        remaining_steps=50_000,
        speed=lambda p, w, t=truth: t.speed(p, w),
        observation_count=100,
    )


class TestNodeHeartbeats:
    def test_heartbeat_keeps_node_alive(self):
        api = leased_api(1)
        api.heartbeat_node("n0", now=1.5)
        assert api.sweep_expired(now=3.0) == []
        assert not api.node("n0").cordoned

    def test_silent_node_is_cordoned(self):
        api = leased_api(2)
        api.heartbeat_node("n1", now=1.5)
        assert api.sweep_expired(now=3.0) == ["n0"]
        assert api.node("n0").cordoned
        assert not api.node("n1").cordoned

    def test_heartbeat_without_lease_raises(self):
        api = APIServer()
        api.register_node("n0", cpu_mem(16, 64))
        with pytest.raises(KVStoreError):
            api.heartbeat_node("n0", now=1.0)

    def test_late_heartbeat_after_expiry_raises(self):
        api = leased_api(1)
        api.sweep_expired(now=5.0)
        with pytest.raises(KVStoreError):
            api.heartbeat_node("n0", now=5.0)

    def test_lapsed_unswept_heartbeat_regrants_a_fresh_lease(self):
        # The lease expired on the wall clock but no sweep has run yet:
        # the node is NOT cordoned, so the late ping re-grants instead of
        # punishing the node for the control plane's lazy clock.
        api = leased_api(1)
        old_lease = api.node("n0").lease_id
        node = api.heartbeat_node("n0", now=5.0)
        assert node.lease_id != old_lease
        assert not node.cordoned
        # The regrant keeps the original TTL: alive at 5+ttl/2, lapsed after.
        assert api.sweep_expired(now=5.0 + TTL / 2) == []
        assert api.sweep_expired(now=5.0 + TTL) == ["n0"]

    def test_regrant_does_not_leak_the_old_lease(self):
        api = leased_api(1)
        old_lease = api.node("n0").lease_id
        api.heartbeat_node("n0", now=5.0)
        assert not api.store.has_lease(old_lease)

    def test_loop_heartbeat_traces_the_regrant(self):
        tracer = RecordingTracer()
        api = leased_api(1)
        metrics = MetricsRegistry()
        loop = ControlLoop(api, make_scheduler("optimus"), tracer=tracer, metrics=metrics)
        loop.heartbeat("n0", now=1.0)  # plain renewal
        loop.heartbeat("n0", now=9.0)  # lapsed-unswept: regrant
        renewed = [e["event"] for e in tracer.events]
        assert renewed == ["node_lease_renewed", "node_lease_regrant"]
        assert metrics.counter("lease.renewals").value == 1
        assert metrics.counter("lease.regrants").value == 1

    def test_reregister_revives_cordoned_node(self):
        api = leased_api(1)
        api.sweep_expired(now=5.0)
        node = api.register_node("n0", cpu_mem(16, 64), lease_ttl=TTL, now=5.0)
        assert not node.cordoned
        api.heartbeat_node("n0", now=6.0)  # the fresh lease renews fine
        assert api.sweep_expired(now=6.5) == []

    def test_cordon_marks_bound_pods_failed(self):
        api = leased_api(2)
        api.create_pod(
            PodSpec(
                name="a-worker-0",
                job_id="a",
                role="worker",
                index=0,
                demand=cpu_mem(2, 4),
            )
        )
        api.bind_pod("a-worker-0", "n0")
        api.sweep_expired(now=5.0)
        assert api.pod("a-worker-0").phase == PHASE_FAILED

    def test_bind_to_cordoned_node_rejected(self):
        api = leased_api(1)
        api.sweep_expired(now=5.0)
        api.create_pod(
            PodSpec(
                name="a-worker-0",
                job_id="a",
                role="worker",
                index=0,
                demand=cpu_mem(2, 4),
            )
        )
        with pytest.raises(KVStoreError):
            api.bind_pod("a-worker-0", "n0")


class TestClusterSnapshot:
    def test_cordoned_nodes_excluded(self):
        api = leased_api(3)
        api.sweep_expired(now=5.0)  # all silent -> all cordoned... but
        # revive two so a snapshot exists.
        api.register_node("n0", cpu_mem(16, 64), lease_ttl=TTL, now=5.0)
        api.register_node("n1", cpu_mem(16, 64), lease_ttl=TTL, now=5.0)
        cluster = cluster_from_api(api)
        assert {s.name for s in cluster.servers} == {"n0", "n1"}

    def test_all_nodes_dead_raises(self):
        api = leased_api(2)
        api.sweep_expired(now=5.0)
        with pytest.raises(SchedulingError):
            cluster_from_api(api)


class TestDeadNodeDrill:
    """A node stops heartbeating mid-run; its jobs relaunch from checkpoint
    on live nodes within one scheduling interval."""

    def _run_drill(self):
        api = leased_api(3)
        tracer = RecordingTracer()
        metrics = MetricsRegistry()
        loop = ControlLoop(api, make_scheduler("optimus"), tracer=tracer, metrics=metrics)
        views = [view("a")]

        loop.step(views, progress={"a": 0.0})  # step 0: placed somewhere
        for name in ("n0", "n1", "n2"):
            loop.heartbeat(name, now=0.5)
        loop.step(views, progress={"a": 1_000.0})  # step 1: all healthy

        victim = {p.node for p in api.list_pods(job_id="a")}.pop()
        survivors = [n for n in ("n0", "n1", "n2") if n != victim]
        # Steps 2..3: the victim goes silent, the rest keep pinging. The
        # TTL (2 steps) lapses before step 3's sweep.
        for step_progress in (2_000.0, 3_000.0):
            for name in survivors:
                loop.heartbeat(name)
            loop.step(views, progress={"a": step_progress})
        return api, tracer, metrics, victim

    def test_dead_node_is_cordoned_and_traced(self):
        api, tracer, metrics, victim = self._run_drill()
        assert api.node(victim).cordoned
        cordons = tracer.of_type(EVENT_NODE_CORDONED)
        assert [e["server"] for e in cordons] == [victim]
        counters = metrics.snapshot()["counters"]
        assert counters["loop.nodes_cordoned"] == 1
        assert counters["lease.expirations"] == 1

    def test_job_relaunched_on_live_nodes(self):
        api, _, _, victim = self._run_drill()
        pods = api.list_pods(job_id="a")
        assert pods, "job must still be running"
        assert all(p.node != victim for p in pods)

    def test_progress_loss_bounded_by_one_interval(self):
        api, _, _, _ = self._run_drill()
        from repro.k8s import JobController

        saved = JobController(api).load_checkpoint("a")
        # The last progress reading handed to the loop was 3000; the
        # relaunch checkpointed at worst the prior interval's value.
        assert saved is not None and saved >= 2_000.0

    def test_capacity_accounting_survives_the_drill(self):
        api, _, _, _ = self._run_drill()
        for node in api.list_nodes():
            bound = sum(
                (p.demand for p in api.list_pods() if p.node == node.name),
                start=cpu_mem(0, 0),
            )
            assert dict(node.allocated.items()) == dict(bound.items())


class TestLeaselessDefaultUnchanged:
    """Clusters registered without lease_ttl behave bit-identically to the
    pre-lease control plane: no store mutations from sweeps, no cordons."""

    def test_sweep_mutates_nothing(self):
        api = APIServer()
        api.register_node("n0", cpu_mem(16, 64))
        api.register_node("n1", cpu_mem(16, 64))
        revision = api.store.revision
        loop = ControlLoop(api, make_scheduler("optimus"))
        assert loop.sweep_node_leases() == ()
        assert api.store.revision == revision

    def test_steps_produce_identical_store_state(self):
        def run(lease_free_steps):
            api = APIServer()
            for i in range(3):
                api.register_node(f"n{i}", cpu_mem(16, 64))
            loop = ControlLoop(api, make_scheduler("optimus"))
            for step in range(lease_free_steps):
                loop.step([view("a")], progress={"a": step * 500.0})
            return api.store.list_prefix("/")

        assert run(3) == run(3)

    def test_node_records_roundtrip_without_lease_fields(self):
        api = APIServer()
        node = api.register_node("n0", cpu_mem(16, 64))
        assert node.lease_id is None
        assert not node.cordoned
        assert api.store.get("/heartbeats/n0") is None
