"""Tests for the miniature API server."""

import dataclasses

import pytest

from repro.cluster.resources import cpu_mem
from repro.common.errors import KVStoreError
from repro.k8s import APIServer, PodSpec, pod_name
from repro.k8s.objects import PHASE_PENDING, PHASE_RUNNING


@pytest.fixture
def api():
    server = APIServer()
    server.register_node("n0", cpu_mem(16, 64))
    server.register_node("n1", cpu_mem(16, 64))
    return server


def pod(job="j1", role="worker", index=0):
    return PodSpec(
        name=pod_name(job, role, index),
        job_id=job,
        role=role,
        index=index,
        demand=cpu_mem(5, 10),
    )


class TestNodes:
    def test_register_and_get(self, api):
        node = api.node("n0")
        assert node.capacity == cpu_mem(16, 64)
        assert node.allocatable == cpu_mem(16, 64)

    def test_duplicate_rejected(self, api):
        with pytest.raises(KVStoreError):
            api.register_node("n0", cpu_mem(1, 1))

    def test_unknown_node(self, api):
        with pytest.raises(KVStoreError):
            api.node("n9")

    def test_list_nodes(self, api):
        assert {n.name for n in api.list_nodes()} == {"n0", "n1"}


class TestPods:
    def test_create_and_get(self, api):
        api.create_pod(pod())
        fetched = api.pod("j1/worker-0")
        assert fetched.phase == PHASE_PENDING
        assert not fetched.bound

    def test_duplicate_rejected(self, api):
        api.create_pod(pod())
        with pytest.raises(KVStoreError):
            api.create_pod(pod())

    def test_create_bound_rejected(self, api):
        bad = dataclasses.replace(pod(), node="n0")
        with pytest.raises(KVStoreError):
            api.create_pod(bad)

    def test_bind_allocates_capacity(self, api):
        api.create_pod(pod())
        bound = api.bind_pod("j1/worker-0", "n0")
        assert bound.phase == PHASE_RUNNING
        assert api.node("n0").allocatable == cpu_mem(11, 54)

    def test_bind_over_capacity_rejected(self, api):
        for i in range(3):
            api.create_pod(pod(index=i))
            api.bind_pod(pod_name("j1", "worker", i), "n0")
        api.create_pod(pod(index=3))
        with pytest.raises(KVStoreError):
            api.bind_pod("j1/worker-3", "n0")

    def test_double_bind_rejected(self, api):
        api.create_pod(pod())
        api.bind_pod("j1/worker-0", "n0")
        with pytest.raises(KVStoreError):
            api.bind_pod("j1/worker-0", "n1")

    def test_delete_releases_capacity(self, api):
        api.create_pod(pod())
        api.bind_pod("j1/worker-0", "n0")
        assert api.delete_pod("j1/worker-0")
        assert api.node("n0").allocatable == cpu_mem(16, 64)
        assert not api.delete_pod("j1/worker-0")

    def test_delete_unbound(self, api):
        api.create_pod(pod())
        assert api.delete_pod("j1/worker-0")

    def test_list_pods_filters(self, api):
        api.create_pod(pod("j1", "worker", 0))
        api.create_pod(pod("j1", "ps", 0))
        api.create_pod(pod("j2", "worker", 0))
        api.bind_pod("j1/worker-0", "n0")
        assert len(api.list_pods()) == 3
        assert len(api.list_pods(job_id="j1")) == 2
        assert len(api.list_pods(node="n0")) == 1

    def test_restart_pod_counts(self, api):
        api.create_pod(pod())
        api.bind_pod("j1/worker-0", "n0")
        restarted = api.restart_pod("j1/worker-0")
        assert restarted.restarts == 1
        assert restarted.phase == PHASE_RUNNING


class TestAggregates:
    def test_cluster_allocated(self, api):
        api.create_pod(pod("j1", "worker", 0))
        api.create_pod(pod("j1", "ps", 0))
        api.bind_pod("j1/worker-0", "n0")
        api.bind_pod("j1/ps-0", "n1")
        assert api.cluster_allocated() == cpu_mem(10, 20)

    def test_pods_per_job(self, api):
        api.create_pod(pod("j1", "worker", 0))
        api.create_pod(pod("j2", "worker", 0))
        api.create_pod(pod("j2", "ps", 0))
        assert api.pods_per_job() == {"j1": 1, "j2": 2}


class TestSerialisation:
    def test_pod_roundtrip(self):
        original = pod()
        restored = PodSpec.from_json(original.to_json())
        assert restored == original

    def test_persisted_in_store(self, api):
        api.create_pod(pod())
        assert "/pods/j1/worker-0" in api.store
        assert "/nodes/n0" in api.store
