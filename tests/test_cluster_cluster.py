"""Tests for cluster-level bookkeeping."""

import copy
import random

import pytest

from repro.cluster import Cluster, ResourceVector, Server, cpu_mem
from repro.cluster.resources import ZERO
from repro.cluster.server import ROLE_PS, ROLE_WORKER
from repro.common.errors import ConfigurationError

DEMAND = cpu_mem(5, 10)


class TestConstruction:
    def test_homogeneous(self):
        cluster = Cluster.homogeneous(3, cpu_mem(16, 64))
        assert len(cluster) == 3
        assert cluster.total_capacity == cpu_mem(48, 192)

    def test_homogeneous_requires_positive_count(self):
        with pytest.raises(ConfigurationError):
            Cluster.homogeneous(0, cpu_mem(16, 64))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster([Server("a", cpu_mem(1, 1)), Server("a", cpu_mem(1, 1))])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster([])

    def test_testbed_shape(self):
        cluster = Cluster.testbed()
        assert len(cluster) == 13
        assert cluster.total_capacity["gpu"] == 12  # 6 GPU servers x 2 GPUs
        assert cluster.total_capacity["cpu"] == 7 * 16 + 6 * 8

    def test_unknown_server_lookup(self):
        cluster = Cluster.homogeneous(2, cpu_mem(4, 4))
        with pytest.raises(ConfigurationError):
            cluster.server("nope")


class TestAggregates:
    @pytest.fixture
    def cluster(self):
        return Cluster.homogeneous(3, cpu_mem(16, 64))

    def test_used_and_available(self, cluster):
        cluster.place("node-0", ("j1", ROLE_WORKER, 0), DEMAND)
        assert cluster.total_used == DEMAND
        assert cluster.total_available == cluster.total_capacity - DEMAND

    def test_utilization(self, cluster):
        cluster.place("node-0", ("j1", ROLE_WORKER, 0), cpu_mem(16, 10))
        assert cluster.utilization("cpu") == pytest.approx(16 / 48)

    def test_fits_in_total_ignores_fragmentation(self, cluster):
        # 17 CPUs fit in aggregate even though no single server has 17.
        assert cluster.fits_in_total(cpu_mem(17, 10))

    def test_dominant_resource(self, cluster):
        assert cluster.dominant_resource(cpu_mem(16, 10)) == "cpu"


class TestJobPlacementQueries:
    @pytest.fixture
    def cluster(self):
        cluster = Cluster.homogeneous(3, cpu_mem(16, 64))
        cluster.place("node-0", ("j1", ROLE_WORKER, 0), DEMAND)
        cluster.place("node-0", ("j1", ROLE_PS, 0), DEMAND)
        cluster.place("node-1", ("j1", ROLE_WORKER, 1), DEMAND)
        cluster.place("node-1", ("j2", ROLE_WORKER, 0), DEMAND)
        return cluster

    def test_job_placement_layout(self, cluster):
        layout = cluster.job_placement("j1")
        assert layout == {
            "node-0": {"worker": 1, "ps": 1},
            "node-1": {"worker": 1, "ps": 0},
        }

    def test_placed_task_count(self, cluster):
        assert cluster.placed_task_count() == 4
        assert cluster.placed_task_count("j1") == 3

    def test_release_job_across_servers(self, cluster):
        assert cluster.release_job("j1") == 3
        assert cluster.placed_task_count() == 1

    def test_clear(self, cluster):
        cluster.clear()
        assert cluster.placed_task_count() == 0
        assert cluster.total_used.is_zero()


class TestSnapshot:
    def test_snapshot_is_independent(self):
        cluster = Cluster.homogeneous(2, cpu_mem(16, 64))
        snap = cluster.snapshot()
        snap.place("node-0", ("j1", ROLE_WORKER, 0), DEMAND)
        assert cluster.placed_task_count() == 0
        assert snap.placed_task_count() == 1

    def test_snapshot_preserves_existing_placements(self):
        cluster = Cluster.homogeneous(2, cpu_mem(16, 64))
        cluster.place("node-1", ("j1", ROLE_PS, 0), DEMAND)
        snap = cluster.snapshot()
        assert snap.job_placement("j1") == {"node-1": {"worker": 0, "ps": 1}}


def exact(vector):
    """A vector's amounts as a plain dict: compares floats bit for bit."""
    return dict(vector.items())


def fractional_cluster():
    """The testbed shape, filled with seeded fractional CPU/memory/GPU tasks."""
    cluster = Cluster.testbed()
    rng = random.Random(7)
    for i in range(60):
        demand = ResourceVector(
            {
                "cpu": round(rng.uniform(0.1, 2.5), 3),
                "memory": rng.uniform(0.3, 6.0),
                "gpu": rng.choice([0.0, 0.25, 0.5]),
            }
        )
        fits = [s.name for s in cluster if s.can_fit(demand)]
        if fits:
            role = ROLE_WORKER if i % 3 else ROLE_PS
            cluster.place(rng.choice(fits), (f"j{i % 9}", role, i), demand)
    return cluster


class TestShallowSnapshot:
    def test_clone_matches_deepcopy(self):
        cluster = fractional_cluster()
        deep, snap = copy.deepcopy(cluster), cluster.snapshot()
        assert cluster.placed_task_count() > 40
        for expected, server in zip(deep, snap):
            assert server.name == expected.name
            assert server.network_bandwidth == expected.network_bandwidth
            assert exact(server.capacity) == exact(expected.capacity)
            assert exact(server.used) == exact(expected.used)
            assert exact(server.available) == exact(expected.available)
            assert {k: exact(v) for k, v in server._tasks.items()} == {
                k: exact(v) for k, v in expected._tasks.items()
            }

    def test_clone_and_original_are_independent(self):
        cluster = fractional_cluster()
        before = copy.deepcopy(cluster)
        snap = cluster.snapshot()
        victim = next(s for s in snap if s.task_keys)
        snap.release(victim.name, victim.task_keys[0])
        snap.release_job("j1")
        target = max(snap, key=lambda s: s.available.get("cpu"))
        snap.place(target.name, ("new", ROLE_WORKER, 0), cpu_mem(0.5, 0.5))
        for expected, server in zip(before, cluster):
            assert exact(server.used) == exact(expected.used)
            assert server.task_keys == expected.task_keys
        # ... and the other way round.
        frozen = [(exact(s.used), s.task_keys) for s in snap]
        cluster.release_job("j2")
        cluster.place(target.name, ("other", ROLE_PS, 0), cpu_mem(0.25, 0.25))
        assert [(exact(s.used), s.task_keys) for s in snap] == frozen

    def test_totals_are_bit_identical(self):
        cluster = fractional_cluster()
        for view in (cluster, cluster.snapshot()):
            capacity, used = ZERO, ZERO
            for server in view:
                capacity = capacity + server.capacity
                used = used + server.used
            assert exact(view.total_capacity) == exact(capacity)
            assert exact(view.total_used) == exact(used)
            assert exact(view.total_available) == exact(capacity - used)
