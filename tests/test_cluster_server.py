"""Tests for Server capacity bookkeeping."""

import pytest

from repro.cluster.resources import cpu_mem
from repro.cluster.server import ROLE_PS, ROLE_WORKER, Server
from repro.common.errors import CapacityError


@pytest.fixture
def server():
    return Server("node-0", cpu_mem(16, 64))


DEMAND = cpu_mem(5, 10)


class TestPlacement:
    def test_place_updates_used(self, server):
        server.place(("j1", ROLE_WORKER, 0), DEMAND)
        assert server.used == DEMAND
        assert server.available == cpu_mem(11, 54)

    def test_place_duplicate_rejected(self, server):
        server.place(("j1", ROLE_WORKER, 0), DEMAND)
        with pytest.raises(CapacityError):
            server.place(("j1", ROLE_WORKER, 0), DEMAND)

    def test_place_beyond_capacity_rejected(self, server):
        for i in range(3):
            server.place(("j1", ROLE_WORKER, i), DEMAND)
        with pytest.raises(CapacityError):
            server.place(("j1", ROLE_WORKER, 3), DEMAND)

    def test_can_fit(self, server):
        assert server.can_fit(cpu_mem(16, 64))
        assert not server.can_fit(cpu_mem(17, 64))

    def test_release_returns_demand(self, server):
        server.place(("j1", ROLE_PS, 0), DEMAND)
        released = server.release(("j1", ROLE_PS, 0))
        assert released == DEMAND
        assert server.used.is_zero()

    def test_release_unknown_rejected(self, server):
        with pytest.raises(CapacityError):
            server.release(("nope", ROLE_PS, 0))

    def test_release_job_releases_all_roles(self, server):
        server.place(("j1", ROLE_WORKER, 0), DEMAND)
        server.place(("j1", ROLE_PS, 0), DEMAND)
        server.place(("j2", ROLE_WORKER, 0), DEMAND)
        assert server.release_job("j1") == 2
        assert server.task_count() == 1


class TestQueries:
    def test_task_count_filters(self, server):
        server.place(("j1", ROLE_WORKER, 0), DEMAND)
        server.place(("j1", ROLE_WORKER, 1), DEMAND)
        server.place(("j2", ROLE_PS, 0), DEMAND)
        assert server.task_count() == 3
        assert server.task_count(job_id="j1") == 2
        assert server.task_count(role=ROLE_PS) == 1
        assert server.task_count(job_id="j1", role=ROLE_PS) == 0

    def test_utilization(self, server):
        assert server.utilization("cpu") == 0.0
        server.place(("j1", ROLE_WORKER, 0), cpu_mem(8, 10))
        assert server.utilization("cpu") == pytest.approx(0.5)

    def test_utilization_unknown_type(self, server):
        assert server.utilization("gpu") == 0.0

    def test_task_keys(self, server):
        key = ("j1", ROLE_WORKER, 0)
        server.place(key, DEMAND)
        assert server.task_keys == (key,)


def fresh_rank(server):
    available = server.capacity - server.used
    return (-available.get("cpu"), -sum(available.values()), server.name)


class TestAvailabilityRank:
    """The cached most-available-first heap key of §4.2 placement."""

    def test_initial_rank(self, server):
        assert server.availability_rank == (-16.0, -80.0, "node-0")

    def test_reset_by_place_release_and_release_job(self, server):
        server.availability_rank  # warm the cache
        server.place(("j1", ROLE_WORKER, 0), DEMAND)
        assert server.availability_rank == fresh_rank(server) == (-11.0, -65.0, "node-0")
        server.place(("j1", ROLE_PS, 0), DEMAND)
        server.place(("j2", ROLE_WORKER, 0), DEMAND)
        assert server.availability_rank == fresh_rank(server)
        server.release(("j2", ROLE_WORKER, 0))
        assert server.availability_rank == fresh_rank(server) == (-6.0, -50.0, "node-0")
        server.release_job("j1")
        assert server.availability_rank == fresh_rank(server) == (-16.0, -80.0, "node-0")

    def test_copy_is_independent(self, server):
        server.place(("j1", ROLE_WORKER, 0), DEMAND)
        original_rank = server.availability_rank
        clone = server.copy()
        assert clone.availability_rank == original_rank
        clone.place(("j2", ROLE_WORKER, 0), DEMAND)
        assert clone.availability_rank == fresh_rank(clone) == (-6.0, -50.0, "node-0")
        assert server.availability_rank == fresh_rank(server) == original_rank
        server.release(("j1", ROLE_WORKER, 0))
        assert server.availability_rank == (-16.0, -80.0, "node-0")
        assert clone.availability_rank == (-6.0, -50.0, "node-0")
