"""Tests for scheduler-restart recovery (§5.5 fault tolerance)."""

import pytest

from repro.cluster import cpu_mem
from repro.deploy import ControlLoop
from repro.k8s import APIServer
from repro.schedulers import JobView, make_scheduler
from repro.workloads import StepTimeModel, make_job


@pytest.fixture
def api():
    server = APIServer()
    for i in range(8):
        server.register_node(f"n{i}", cpu_mem(16, 64))
    return server


def view(job_id, remaining=50_000):
    spec = make_job("seq2seq", mode="sync", job_id=job_id)
    truth = StepTimeModel(spec.profile, "sync")
    return JobView(
        spec=spec,
        remaining_steps=remaining,
        speed=lambda p, w, t=truth: t.speed(p, w),
        observation_count=100,
    )


class TestRecovery:
    def test_recover_reads_checkpoints(self, api):
        loop = ControlLoop(api, make_scheduler("optimus"))
        loop.step([view("a")], progress={"a": 100.0})
        # Even without a rescale, progress checkpoints are refreshed every
        # interval, so a crash loses at most one interval of training.
        loop.step([view("a")], progress={"a": 4_000.0})

        # The scheduler "crashes"; a new instance starts over the same etcd.
        fresh = ControlLoop(api, make_scheduler("optimus"))
        recovered = fresh.recover(["a"])
        assert recovered["a"] == 4_000.0

    def test_recover_unknown_job_starts_from_zero(self, api):
        fresh = ControlLoop(api, make_scheduler("optimus"))
        assert fresh.recover(["ghost"]) == {"ghost": 0.0}

    def test_recovered_loop_manages_existing_pods(self, api):
        loop = ControlLoop(api, make_scheduler("optimus"))
        loop.step([view("a")], progress={"a": 0.0})
        pods_before = len(api.list_pods(job_id="a"))
        assert pods_before > 0

        fresh = ControlLoop(api, make_scheduler("optimus"))
        fresh.recover(["a"])
        # The recovered loop may now reshape or tear down job "a".
        report = fresh.step([], progress={"a": 7_000.0})
        assert report.reconcile.pods_deleted == pods_before
        assert fresh.controller.load_checkpoint("a") == 7_000.0

    def test_without_recover_foreign_pods_are_safe(self, api):
        loop = ControlLoop(api, make_scheduler("optimus"))
        loop.step([view("a")], progress={"a": 0.0})

        fresh = ControlLoop(api, make_scheduler("optimus"))
        # No recover(): the fresh loop does not own job "a" and must not
        # touch its pods even when scheduling new work.
        report = fresh.step([view("b")], progress={"b": 0.0})
        assert len(api.list_pods(job_id="a")) > 0
        assert "b" in report.decision.allocations

    def test_recovery_roundtrip_preserves_capacity_accounting(self, api):
        loop = ControlLoop(api, make_scheduler("optimus"))
        loop.step([view("a")], progress={"a": 0.0})
        fresh = ControlLoop(api, make_scheduler("optimus"))
        fresh.recover(["a"])
        fresh.step([view("a", remaining=20_000)], progress={"a": 1_000.0})
        for node in api.list_nodes():
            assert node.allocated.fits_within(node.capacity)
