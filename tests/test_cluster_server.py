"""Tests for Server capacity bookkeeping."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import Cluster
from repro.cluster.resources import ZERO, ResourceVector, cpu_mem
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


class TestPlaceTasks:
    def test_block_matches_single_places(self, server):
        demand = cpu_mem(0.1, 0.3)
        single = Server("node-0", cpu_mem(16, 64))
        for i in range(7):
            single.place(("j1", ROLE_WORKER, 2 + i), demand)
        server.place_tasks("j1", ROLE_WORKER, 2, 7, demand)
        assert list(server.used.items()) == list(single.used.items())
        assert server.task_keys == single.task_keys

    def test_zero_count_is_a_no_op(self, server):
        server.place_tasks("j1", ROLE_PS, 0, 0, DEMAND)
        assert server.task_count() == 0 and server.mutations == 0

    def test_block_that_does_not_fit_leaves_server_unchanged(self, server):
        server.place(("j0", ROLE_WORKER, 0), DEMAND)
        before = (list(server.used.items()), server.task_keys, server.availability_rank)
        with pytest.raises(CapacityError):
            server.place_tasks("j1", ROLE_WORKER, 0, 3, DEMAND)  # room for two
        with pytest.raises(CapacityError):
            server.place_tasks("j0", ROLE_WORKER, 0, 1, cpu_mem(0.1, 0.1))  # duplicate
        assert (list(server.used.items()), server.task_keys, server.availability_rank) == before


# -- the usage table against chained ResourceVector arithmetic ----------------

#: 0.1 added ten times is 0.9999999999999999: a server of capacity 1.0 keeps
#: a room within 1e-9 of zero, which ``__sub__`` drops.
FRACTIONS = (0.1, 0.2, 0.3, 0.25, 0.5, 1.0)
SHAPES = (
    cpu_mem(1.0, 2.0),
    cpu_mem(2.0, 1.0),
    ResourceVector({"cpu": 3.0, "memory": 2.0, "gpu": 1.0}),
)


@st.composite
def demand_vectors(draw):
    amounts = {"cpu": draw(st.sampled_from(FRACTIONS))}
    if draw(st.booleans()):
        amounts["memory"] = draw(st.sampled_from(FRACTIONS))
    if draw(st.integers(0, 3)) == 0:
        amounts["gpu"] = draw(st.sampled_from((0.5, 1.0)))
    return ResourceVector(amounts)


worlds = st.sampled_from(("live", "snap"))
jobs = st.sampled_from(("a", "b", "c"))
roles = st.sampled_from((ROLE_WORKER, ROLE_PS))
operations = st.one_of(
    st.tuples(st.just("place"), worlds, st.integers(0, 2), jobs, roles,
              st.integers(0, 6), demand_vectors()),
    st.tuples(st.just("place_tasks"), worlds, st.integers(0, 2), jobs, roles,
              st.integers(0, 6), st.integers(0, 12), demand_vectors()),
    st.tuples(st.just("release"), worlds, st.integers(0, 2), st.integers(0, 30)),
    st.tuples(st.just("release_job"), worlds, jobs),
    st.tuples(st.just("snapshot"), worlds),
)


class RefWorld:
    """Per-server ``used`` vectors and task tables, kept by vector arithmetic."""

    def __init__(self, cluster, used=None, tasks=None):
        self.cluster = cluster
        self.used = used or {s.name: ZERO for s in cluster}
        self.tasks = tasks or {s.name: {} for s in cluster}

    def copy(self, cluster):
        return RefWorld(cluster, dict(self.used), {n: dict(t) for n, t in self.tasks.items()})

    def admits(self, name, keys, demand):
        """Whether each task in turn fits; the usage after all of them."""
        capacity = self.cluster.server(name).capacity
        used, tasks = self.used[name], self.tasks[name]
        if len(set(keys)) != len(keys) or any(key in tasks for key in keys):
            return None
        for _ in keys:
            if not demand.fits_within(capacity - used):
                return None
            used = used + demand
        return used

    def check(self):
        capacity_total, used_total = ZERO, ZERO
        for server in self.cluster:
            used = self.used[server.name]
            available = server.capacity - used
            assert [(k, v.hex()) for k, v in server.used.items()] == [
                (k, v.hex()) for k, v in used.items()
            ]
            assert [(k, v.hex()) for k, v in server.available.items()] == [
                (k, v.hex()) for k, v in available.items()
            ]
            assert server.availability_rank == (
                -available.get("cpu"), -sum(available.values()), server.name
            )
            assert server.task_keys == tuple(self.tasks[server.name])
            capacity_total = capacity_total + server.capacity
            used_total = used_total + used
        assert [(k, v.hex()) for k, v in self.cluster.total_used.items()] == [
            (k, v.hex()) for k, v in used_total.items()
        ]
        assert [(k, v.hex()) for k, v in self.cluster.total_available.items()] == [
            (k, v.hex()) for k, v in (capacity_total - used_total).items()
        ]


def apply(world, op):
    kind, name = op[0], None
    if kind in ("place", "place_tasks", "release"):
        name = world.cluster.servers[op[2]].name
        server = world.cluster.server(name)
    if kind == "place":
        _, _, _, job, role, index, demand = op
        key = (job, role, index)
        after = world.admits(name, [key], demand)
        if after is None:
            with pytest.raises(CapacityError):
                server.place(key, demand)
        else:
            server.place(key, demand)
            world.used[name], world.tasks[name][key] = after, demand
    elif kind == "place_tasks":
        _, _, _, job, role, first, count, demand = op
        keys = [(job, role, first + i) for i in range(count)]
        after = world.admits(name, keys, demand)
        if after is None:
            with pytest.raises(CapacityError):
                server.place_tasks(job, role, first, count, demand)
        else:
            server.place_tasks(job, role, first, count, demand)
            world.used[name] = after
            world.tasks[name].update(dict.fromkeys(keys, demand))
    elif kind == "release":
        tasks = world.tasks[name]
        if tasks:
            key = list(tasks)[op[3] % len(tasks)]
            assert server.release(key) is tasks[key]
            world.used[name] = world.used[name] - tasks.pop(key)
    elif kind == "release_job":
        world.cluster.release_job(op[2])
        for name, tasks in world.tasks.items():
            for key in [k for k in tasks if k[0] == op[2]]:
                world.used[name] = world.used[name] - tasks.pop(key)


class TestUsageTableMatchesVectorArithmetic:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(shapes=st.lists(st.sampled_from(SHAPES), min_size=3, max_size=3),
           ops=st.lists(operations, max_size=40))
    def test_random_sequences(self, shapes, ops):
        live = RefWorld(Cluster([Server(f"s{i}", shape) for i, shape in enumerate(shapes)]))
        worlds_by_name = {"live": live, "snap": live.copy(live.cluster.snapshot())}
        for op in ops:
            if op[0] == "snapshot":
                source = worlds_by_name[op[1]]
                worlds_by_name["snap"] = source.copy(source.cluster.snapshot())
            else:
                apply(worlds_by_name[op[1]], op)
            for world in worlds_by_name.values():
                world.check()
