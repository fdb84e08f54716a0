"""§4.2 placement against a reference built on the original vector arithmetic.

``_greedy_layout`` and ``place_jobs`` keep their inner state as plain
numbers: each candidate server's remaining room is a dict updated in place,
and the server heap is keyed by a rank cached on :class:`Server`. This
module keeps the earlier formulation as the reference -- every room a
``ResourceVector``, every fit test ``fits_within``, every heap key
recomputed from ``server.available`` -- on a copy of the ``ResourceVector``
arithmetic it relied on (a ``Mapping`` whose ``values()`` fetches each
amount through ``__getitem__``). The round is referenced in its earlier
two stages too: a first pass, then a shrink loop of fresh single-request
calls (:func:`ref_round`). Layouts, final task counts, paused jobs and the
final free capacity of every server must be identical, float for float.

The generated clusters use fractional amounts drawn from a small set, so
rooms often land within 1e-9 of zero (``0.1 * 10 != 1.0``) and identical
servers tie on score; a jitter of +-5e-10 on capacities exercises both
sides of the 1e-9 fit slack and of the drop-near-zero rule.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Mapping

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.cluster.server import Server
from repro.core.placement import PlacementRequest, _greedy_layout, layout_counts, place_jobs

# -- the reference: vector arithmetic as it was ------------------------------


class RefVector(Mapping):
    """The subset of the original ``ResourceVector`` that placement uses."""

    __slots__ = ("_amounts",)

    def __init__(self, amounts=None):
        cleaned = {}
        for name, value in (amounts or {}).items():
            value = float(value)
            if value > 1e-9:
                cleaned[str(name)] = value
        self._amounts = cleaned

    def __getitem__(self, key):
        return self._amounts.get(key, 0.0)

    def get(self, key, default=0.0):
        return self._amounts.get(key, default)

    def __iter__(self):
        return iter(self._amounts)

    def __len__(self):
        return len(self._amounts)

    def items(self):
        return self._amounts.items()

    @classmethod
    def _from_clean(cls, amounts):
        vec = object.__new__(cls)
        vec._amounts = amounts
        return vec

    def __add__(self, other):
        merged = dict(self._amounts)
        for name, value in other._amounts.items():
            merged[name] = merged.get(name, 0.0) + value
        return RefVector._from_clean(merged)

    def __sub__(self, other):
        merged = dict(self._amounts)
        for name, value in other._amounts.items():
            remaining = merged.get(name, 0.0) - value
            assert remaining >= -1e-6
            if remaining > 1e-9:
                merged[name] = remaining
            else:
                merged.pop(name, None)
        return RefVector._from_clean(merged)

    def __mul__(self, factor):
        factor = float(factor)
        return RefVector._from_clean(
            {k: nv for k, v in self._amounts.items() if (nv := v * factor) > 1e-9}
        )

    def fits_within(self, capacity, slack=1e-9):
        cap = capacity._amounts
        return all(
            value <= cap.get(name, 0.0) + slack for name, value in self._amounts.items()
        )

    def __eq__(self, other):
        names = set(self._amounts) | set(other._amounts)
        return all(abs(self.get(n) - other.get(n)) <= 1e-9 for n in names)

    def __hash__(self):
        return hash(tuple(sorted((k, round(v, 9)) for k, v in self._amounts.items())))

    def is_zero(self):
        return not self._amounts

    def dominant_share(self, capacity):
        shares = [
            value / capacity.get(name) if capacity.get(name) > 1e-9 else float("inf")
            for name, value in self.items()
        ]
        return max(shares) if shares else 0.0


class RefServer:
    def __init__(self, name, capacity):
        self.name = name
        self.capacity = capacity
        self.used = RefVector()
        self.tasks = {}

    @property
    def available(self):
        return self.capacity - self.used

    def can_fit(self, demand):
        return demand.fits_within(self.available)

    def place(self, key, demand):
        assert self.can_fit(demand)
        self.tasks[key] = demand
        self.used = self.used + demand

    def release_job(self, job_id):
        for key in [k for k in self.tasks if k[0] == job_id]:
            self.used = self.used - self.tasks.pop(key)


class RefRequest:
    def __init__(self, job_id, workers, ps, worker_demand, ps_demand):
        self.job_id = job_id
        self.workers = workers
        self.ps = ps
        self.worker_demand = worker_demand
        self.ps_demand = ps_demand

    @property
    def total_demand(self):
        return self.worker_demand * self.workers + self.ps_demand * self.ps


def ref_split_evenly(count, buckets):
    base, extra = divmod(count, buckets)
    return [base + (1 if i < extra else 0) for i in range(buckets)]


def ref_even_layout(request, servers):
    k = len(servers)
    worker_counts = ref_split_evenly(request.workers, k)
    ps_counts = list(reversed(ref_split_evenly(request.ps, k)))
    layout = {}
    for server, n_workers, n_ps in zip(servers, worker_counts, ps_counts):
        demand = request.worker_demand * n_workers + request.ps_demand * n_ps
        if not server.can_fit(demand):
            return None
        if n_workers or n_ps:
            layout[server.name] = (n_workers, n_ps)
    return layout


def ref_greedy_layout(request, servers):
    remaining = {s.name: s.available for s in servers}
    counts = {s.name: [0, 0] for s in servers}
    tasks = []
    for i in range(max(request.workers, request.ps)):
        if i < request.workers:
            tasks.append((0, request.worker_demand))
        if i < request.ps:
            tasks.append((1, request.ps_demand))
    for role_idx, demand in tasks:
        best = None
        best_room = -1.0
        for server in servers:
            room = remaining[server.name]
            if demand.fits_within(room):
                score = room.get("cpu") + sum(room.values()) * 1e-6
                if score > best_room:
                    best_room = score
                    best = server.name
        if best is None:
            return None
        remaining[best] = remaining[best] - demand
        counts[best][role_idx] += 1
    return {name: (c[0], c[1]) for name, c in counts.items() if c[0] or c[1]}


def ref_server_rank(server):
    available = server.available
    return (-available.get("cpu"), -sum(available.values()), server.name)


def ref_apply_layout(servers_by_name, request, layout):
    worker_idx = ps_idx = 0
    for name, (n_workers, n_ps) in layout.items():
        for _ in range(n_workers):
            key = (request.job_id, "worker", worker_idx)
            servers_by_name[name].place(key, request.worker_demand)
            worker_idx += 1
        for _ in range(n_ps):
            servers_by_name[name].place((request.job_id, "ps", ps_idx), request.ps_demand)
            ps_idx += 1


def ref_place_jobs(servers, requests):
    """One first pass of the original ``place_jobs``, slots counted with slack."""
    total_capacity = RefVector()
    total_used = RefVector()
    for server in servers:
        total_capacity = total_capacity + server.capacity
        total_used = total_used + server.used
    pending = [(request, request.total_demand) for request in requests]
    pending.sort(key=lambda pair: (pair[1].dominant_share(total_capacity), pair[0].job_id))
    layouts = {}
    unplaced = []
    servers_by_name = {server.name: server for server in servers}
    heap = [(ref_server_rank(server), server.name) for server in servers]
    heapq.heapify(heap)
    remaining_total = total_capacity - total_used
    drain_slots = {}
    for request, total_demand in pending:
        if not total_demand.fits_within(remaining_total):
            unplaced.append(request.job_id)
            continue
        bound_demand = RefVector(
            {
                name: min(request.worker_demand[name], request.ps_demand[name])
                for name in set(request.worker_demand) & set(request.ps_demand)
            }
        )
        total_tasks = request.workers + request.ps
        known_slots = drain_slots.get(bound_demand)
        if known_slots is not None and total_tasks > known_slots:
            unplaced.append(request.job_id)
            continue

        def slot_bound(server):
            if bound_demand.is_zero():
                return total_tasks
            available = server.available
            return int(
                min((available.get(name) + 1e-9) // amount for name, amount in bound_demand.items())
            )

        selected = []
        aggregate = {}
        slots = 0
        layout = None
        next_attempt = 1
        while heap:
            rank, name = heapq.heappop(heap)
            server = servers_by_name[name]
            if rank != ref_server_rank(server):
                heapq.heappush(heap, (ref_server_rank(server), name))
                continue
            selected.append(server)
            for res_name, value in server.available.items():
                aggregate[res_name] = aggregate.get(res_name, 0.0) + value
            slots += slot_bound(server)
            if slots < total_tasks or not all(
                value <= aggregate.get(res_name, 0.0) + 1e-9
                for res_name, value in total_demand.items()
            ):
                continue
            k = len(selected)
            if k < next_attempt and heap:
                continue
            next_attempt = k + 1 if k <= 8 else 2 * k
            layout = ref_even_layout(request, selected)
            if layout is None:
                layout = ref_greedy_layout(request, selected)
            if layout is not None:
                break
        if layout is not None:
            ref_apply_layout(servers_by_name, request, layout)
            layouts[request.job_id] = layout
            remaining_total = remaining_total - total_demand
        else:
            unplaced.append(request.job_id)
            if not heap:
                drain_slots[bound_demand] = slots
        for server in selected:
            heapq.heappush(heap, (ref_server_rank(server), server.name))
    return layouts, tuple(unplaced)


def ref_round(servers, requests):
    """The original two-stage round: ``ref_place_jobs``, then the scheduler's
    shrink loop -- each job it left unplaced retried alone, halving workers
    and PS until it fits or (1, 1) fails, skipping every shape whose (1, 1)
    already failed. Returns layouts, final counts and paused jobs."""
    layouts, unplaced = ref_place_jobs(servers, requests)
    by_id = {request.job_id: request for request in requests}
    counts = {job: (by_id[job].workers, by_id[job].ps) for job in layouts}
    paused = []
    hopeless_shapes = []
    for job in unplaced:
        request = by_id[job]
        shape = (request.worker_demand, request.ps_demand)
        if shape in hopeless_shapes:
            paused.append(job)
            continue
        workers, ps = request.workers, request.ps
        while True:
            retry = RefRequest(job, workers, ps, *shape)
            placed, _ = ref_place_jobs(servers, [retry])
            if job in placed:
                layouts[job] = placed[job]
                counts[job] = (workers, ps)
                break
            if (workers, ps) == (1, 1):
                hopeless_shapes.append(shape)
                paused.append(job)
                break
            workers, ps = max(1, workers // 2), max(1, ps // 2)
    return layouts, counts, tuple(paused)


def check_round(fleet, specs):
    """One ``place_jobs`` round on *fleet* against ``ref_round``."""
    servers, ref_servers = build(fleet)
    requests, ref_requests = requests_for(specs)
    result = place_jobs(Cluster(servers), requests)
    assert_same_round(result, servers, ref_round(ref_servers, ref_requests), ref_servers)
    return result


def assert_same_round(result, servers, expected, ref_servers):
    """``place_jobs``' result against ``ref_round``'s, float for float."""
    layouts, counts, paused = expected
    assert [(job, list(l.items())) for job, l in result.layouts.items()] == [
        (job, list(l.items())) for job, l in layouts.items()
    ]
    assert {job: layout_counts(l) for job, l in result.layouts.items()} == counts
    assert result.unplaced == paused
    assert free_capacity(servers) == free_capacity(ref_servers)


# -- generated inputs ---------------------------------------------------------

#: Fractional amounts whose sums rarely come out exact.
AMOUNTS = (0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0, 1.5, 2.5)
JITTER = (0.0, 0.0, 5e-10, -5e-10)


@st.composite
def demands(draw, gpu=True):
    amounts = {
        "cpu": draw(st.sampled_from(AMOUNTS)),
        "memory": draw(st.sampled_from(AMOUNTS)) * 2,
    }
    if gpu and draw(st.booleans()):
        amounts["gpu"] = draw(st.sampled_from((0.5, 1.0)))
    return amounts


@st.composite
def fleets(draw, min_servers=1, max_servers=6):
    """Server capacities and pre-placed loads, as plain dicts."""
    shapes = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "cpu": st.sampled_from((1.0, 2.0, 3.0, 4.0)),
                    "memory": st.sampled_from((2.0, 4.0, 8.0)),
                    "gpu": st.sampled_from((0.0, 1.0, 2.0)),
                }
            ),
            min_size=1,
            max_size=3,
        )
    )
    count = draw(st.integers(min_servers, max_servers))
    servers = []
    for i in range(count):
        # Few distinct shapes, so identical servers tie on score.
        shape = dict(draw(st.sampled_from(shapes)))
        shape = {k: v + draw(st.sampled_from(JITTER)) if v else v for k, v in shape.items()}
        loads = draw(st.lists(demands(gpu=False), max_size=3))
        servers.append((f"s{i}", shape, loads))
    return servers


def build(fleet):
    """The same fleet as real servers and as reference servers."""
    real, ref = [], []
    for name, shape, loads in fleet:
        server = Server(name, ResourceVector(shape))
        ref_server = RefServer(name, RefVector(shape))
        for index, load in enumerate(loads):
            demand = ResourceVector(load)
            if server.can_fit(demand):
                server.place(("preload", "worker", index), demand)
                ref_server.place(("preload", "worker", index), RefVector(load))
        real.append(server)
        ref.append(ref_server)
    return real, ref


def requests_for(specs):
    real = [
        PlacementRequest(job, w, p, ResourceVector(wd), ResourceVector(pd))
        for job, w, p, wd, pd in specs
    ]
    ref = [RefRequest(job, w, p, RefVector(wd), RefVector(pd)) for job, w, p, wd, pd in specs]
    return real, ref


@st.composite
def request_specs(draw, max_jobs=5, max_tasks=8, prefix="j"):
    count = draw(st.integers(1, max_jobs))
    return [
        (
            f"{prefix}{i}",
            draw(st.integers(1, max_tasks)),
            draw(st.integers(1, max_tasks)),
            draw(demands()),
            draw(demands()),
        )
        for i in range(count)
    ]


def free_capacity(servers):
    return [(server.name, list(server.available.items())) for server in servers]


EQUIVALENCE = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestGreedyLayoutMatchesReference:
    @EQUIVALENCE
    @given(fleet=fleets(), specs=request_specs(max_jobs=1, max_tasks=10))
    def test_same_layout_or_none(self, fleet, specs):
        servers, ref_servers = build(fleet)
        (request,), (ref_request,) = requests_for(specs)
        layout = _greedy_layout(request, servers)
        expected = ref_greedy_layout(ref_request, ref_servers)
        if expected is None:
            assert layout is None
        else:
            assert list(layout.items()) == list(expected.items())

    def test_room_within_1e9_of_zero_is_dropped(self):
        # After the worker, server a keeps 5e-10 CPU: at or below 1e-9, so
        # it is no room at all and the parameter server (1.5e-9 CPU) must
        # go to b, although a's memory gives it the higher score.
        servers, ref_servers = build(
            [
                ("a", {"cpu": 1.0 + 5e-10, "memory": 10.0}, []),
                ("b", {"cpu": 3e-9, "memory": 1.0}, []),
            ]
        )
        (request,), (ref_request,) = requests_for(
            [("j", 1, 1, {"cpu": 1.0, "memory": 1.0}, {"cpu": 1.5e-9, "memory": 1.0})]
        )
        expected = ref_greedy_layout(ref_request, ref_servers)
        assert expected == {"a": (1, 0), "b": (0, 1)}
        assert _greedy_layout(request, servers) == expected

    def test_ties_go_to_the_first_server(self):
        servers, ref_servers = build(
            [(f"s{i}", {"cpu": 2.0, "memory": 4.0}, []) for i in range(3)]
        )
        (request,), (ref_request,) = requests_for(
            [("j", 2, 1, {"cpu": 1.0, "memory": 1.0}, {"cpu": 1.0, "memory": 1.0})]
        )
        expected = ref_greedy_layout(ref_request, ref_servers)
        assert expected == {"s0": (1, 0), "s1": (0, 1), "s2": (1, 0)}
        assert list(_greedy_layout(request, servers).items()) == list(expected.items())


class TestPlaceJobsMatchesReference:
    @EQUIVALENCE
    @given(fleet=fleets(min_servers=2, max_servers=8), specs=request_specs())
    def test_whole_round(self, fleet, specs):
        check_round(fleet, specs)

    @EQUIVALENCE
    @given(
        fleet=fleets(min_servers=2, max_servers=8),
        specs=request_specs(max_jobs=3),
        retries=request_specs(max_jobs=4, max_tasks=40, prefix="retry-"),
    )
    def test_round_then_single_requests(self, fleet, specs, retries):
        # After a round, one request per call. Large task counts make many
        # of them fail the aggregate precheck and shrink.
        servers, ref_servers = build(fleet)
        cluster = Cluster(servers)
        requests, ref_requests = requests_for(specs)
        place_jobs(cluster, requests)
        ref_round(ref_servers, ref_requests)
        singles, ref_singles = requests_for(retries)
        for request, ref_request in zip(singles, ref_singles):
            result = place_jobs(cluster, [request])
            assert_same_round(result, servers, ref_round(ref_servers, [ref_request]), ref_servers)

    @EQUIVALENCE
    @given(
        fleet=fleets(min_servers=2, max_servers=8),
        first=request_specs(),
        second=request_specs(prefix="next-"),
        finished=st.sets(st.integers(0, 4)),
    )
    def test_rounds_with_releases_between(self, fleet, first, second, finished):
        # Finished jobs free their servers between rounds, and the next
        # round must rank those servers by their new availability.
        servers, ref_servers = build(fleet)
        cluster = Cluster(servers)
        requests, ref_requests = requests_for(first)
        place_jobs(cluster, requests)
        ref_round(ref_servers, ref_requests)
        for index in sorted(finished):
            cluster.release_job(f"j{index}")
            for ref_server in ref_servers:
                ref_server.release_job(f"j{index}")
        requests, ref_requests = requests_for(second)
        result = place_jobs(cluster, requests)
        assert_same_round(result, servers, ref_round(ref_servers, ref_requests), ref_servers)

    def test_precheck_failure_leaves_cluster_untouched(self):
        # 20-CPU workers fit no server, whatever the count: every attempt
        # fails the aggregate precheck or the slot check.
        load = [{"cpu": 0.7, "memory": 0.2}]
        servers, ref_servers = build(
            [(f"s{i}", {"cpu": 4.0, "memory": 8.0}, load) for i in range(3)]
        )
        before = free_capacity(servers)
        (request,), (ref_request,) = requests_for(
            [("big", 20, 20, {"cpu": 20.0, "memory": 1.0}, {"cpu": 0.1, "memory": 0.2})]
        )
        result = place_jobs(Cluster(servers), [request])
        assert result.unplaced == ("big",) == ref_round(ref_servers, [ref_request])[2]
        assert free_capacity(servers) == before == free_capacity(ref_servers)


class TestShrinkPassMatchesReference:
    """The one pass against the first pass plus the scheduler's shrink loop."""

    @EQUIVALENCE
    @given(
        fleet=fleets(min_servers=1, max_servers=6),
        specs=request_specs(max_jobs=8, max_tasks=24),
    )
    def test_oversubscribed_round(self, fleet, specs):
        # Up to 8 jobs of up to 48 tasks on at most 6 small servers: most
        # rounds shrink some jobs and pause others, often several of a shape.
        check_round(fleet, specs)

    @settings(EQUIVALENCE, max_examples=150)
    @given(
        fleet=fleets(min_servers=2, max_servers=8),
        shape=st.tuples(demands(), demands()),
        sizes=st.lists(st.tuples(st.integers(1, 30), st.integers(1, 30)), min_size=2, max_size=8),
    )
    def test_one_shape_many_jobs(self, fleet, shape, sizes):
        # Every job shares one shape, so once its (1, 1) fails the rest of
        # the round's jobs are paused without an attempt.
        servers, ref_servers = build(fleet)
        specs = [(f"j{i}", w, p, *shape) for i, (w, p) in enumerate(sizes)]
        requests, ref_requests = requests_for(specs)
        result = place_jobs(Cluster(servers), requests)
        assert_same_round(result, servers, ref_round(ref_servers, ref_requests), ref_servers)

    @settings(EQUIVALENCE, max_examples=50)
    @given(
        fleet=fleets(min_servers=10, max_servers=24),
        specs=request_specs(max_jobs=6, max_tasks=40),
    )
    def test_wide_fleet(self, fleet, specs):
        # Past k = 8 the walk attempts a layout only when k doubles, so
        # which k first has slots enough decides which servers a job gets.
        check_round(fleet, specs)

    def test_walk_waits_for_slots_past_k8(self):
        # Each server holds one 2-CPU task in 3 CPUs: 8 servers have the
        # aggregate for 12 tasks, only 12 have the slots. The one attempt
        # comes at k = 12; attempting from k = 8 would next try k = 18 and
        # spread the job over a different 12 of those servers.
        fleet = [(f"s{i:02d}", {"cpu": 3.0, "memory": 8.0}, []) for i in range(20)]
        shape = {"cpu": 2.0, "memory": 1.0}
        result = check_round(fleet, [("j", 6, 6, shape, shape)])
        assert list(result.layouts["j"]) == [f"s{i:02d}" for i in range(12)]

    def test_exhausted_shape_stays_paused(self):
        # x is the only server with room for a PS and the best one for a
        # worker, but cannot hold both, so a's (1, 1) fails. c's shrunk
        # (1, 1) then takes 2 CPUs of x, after which a worker would go to y
        # and a PS fit on x -- but b shares a's shape and stays paused.
        fleet = [("x", {"cpu": 3.0, "memory": 2.0}, []), ("y", {"cpu": 2.0, "memory": 1.0}, [])]
        worker, ps, cpu = {"cpu": 2.0, "memory": 1.0}, {"cpu": 1.0, "memory": 2.0}, {"cpu": 1.0}
        specs = [("a", 1, 1, worker, ps), ("c", 3, 3, cpu, cpu), ("b", 2, 2, worker, ps)]
        result = check_round(fleet, specs)
        assert result.layouts == {"c": {"x": (1, 1)}}
        assert result.unplaced == ("a", "b")

    def test_slack_counts_the_last_slot(self):
        # 0.9 CPU left holds nine 0.1-CPU tasks (0.9 // 0.1 == 8 without
        # the 1e-9 slack), so the job is placed whole in the first pass.
        shape = {"cpu": 0.1, "memory": 0.1}
        fleet = [("s", {"cpu": 1.0, "memory": 100.0}, [shape])]
        result = check_round(fleet, [("j", 5, 4, shape, shape)])
        assert result.layouts == {"j": {"s": (5, 4)}}
        assert result.retried == ()


@pytest.mark.parametrize("seed", range(3))
def test_reference_agrees_on_the_testbed_shape(seed):
    """A deterministic fleet-sized round on fractional testbed-like nodes."""
    rng = random.Random(seed)
    node = {"cpu": 16.0, "memory": 80.0, "gpu": 4.0}
    fleet = [
        (f"n{i}", node, [{"cpu": 0.3 * rng.randrange(1, 8), "memory": 2.5}])
        for i in range(24)
    ]
    specs = [
        (
            f"job-{i}",
            rng.randrange(1, 12),
            rng.randrange(1, 12),
            {"cpu": rng.choice(AMOUNTS) * 2, "memory": 4.0, "gpu": rng.choice((0.5, 1.0))},
            {"cpu": rng.choice(AMOUNTS), "memory": 2.0},
        )
        for i in range(40)
    ]
    result = check_round(fleet, specs)
    assert result.retried  # the fleet is over-subscribed: some jobs shrink
