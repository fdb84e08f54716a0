"""The API server's watch-fed pod/node index equals the store after every write.

Reads are served from decoded objects kept current by store watches. These
tests keep the store-decoding read path as the reference and check every
API read against it: under random operation sequences over two API servers
sharing one store, a fenced write from a deposed leader, a rescale rolled
back mid-flight, and a server built on an already-populated store.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import cpu_mem
from repro.common.errors import KVStoreError, StaleLeaderError, TransientKVError
from repro.deploy import ControlLoop
from repro.faults import FlakyKVStore
from repro.k8s import APIServer, JobController, JobTarget, LeaderElection, PodSpec
from repro.k8s.api import NODE_PREFIX, POD_PREFIX
from repro.k8s.kvstore import KVStore
from repro.k8s.objects import NodeInfo, pod_name
from repro.schedulers import JobView, make_scheduler
from repro.workloads import StepTimeModel, make_job

NODES = ("n0", "n1", "n2")
JOBS = ("a", "b")
DEMAND = cpu_mem(5, 10)


# -- the reference: decode the store on every read --------------------------------
def reference_pods(store, job_id=None, node=None):
    pods = [
        PodSpec.from_json(payload)
        for payload in store.list_prefix(POD_PREFIX).values()
    ]
    if job_id is not None:
        pods = [p for p in pods if p.job_id == job_id]
    if node is not None:
        pods = [p for p in pods if p.node == node]
    return pods


def reference_nodes(store, include_cordoned=True):
    nodes = [
        NodeInfo.from_json(payload)
        for payload in store.list_prefix(NODE_PREFIX).values()
    ]
    if not include_cordoned:
        nodes = [node for node in nodes if not node.cordoned]
    return nodes


def assert_matches_store(api, store):
    """Every pod and node read of *api* equals a fresh decode of *store*."""
    pods = reference_pods(store)
    nodes = reference_nodes(store)
    assert api.list_pods() == pods
    assert api.list_nodes() == nodes
    assert api.list_nodes(include_cordoned=False) == reference_nodes(store, False)
    for job_id in JOBS:
        assert api.list_pods(job_id=job_id) == reference_pods(store, job_id=job_id)
    for name in NODES:
        assert api.list_pods(node=name) == reference_pods(store, node=name)
    for pod in pods:
        assert api.pod(pod.name) == pod
    for node in nodes:
        assert api.node(node.name) == node
    for name in NODES:
        if all(node.name != name for node in nodes):
            with pytest.raises(KVStoreError):
                api.node(name)


def new_pod(job_id, role, index):
    return PodSpec(
        name=pod_name(job_id, role, index),
        job_id=job_id,
        role=role,
        index=index,
        demand=DEMAND,
    )


# -- random operation sequences -------------------------------------------------
POD_KEYS = st.tuples(
    st.sampled_from(JOBS), st.sampled_from(["worker", "ps"]), st.integers(0, 1)
)
OPS = st.one_of(
    st.tuples(st.just("register"), st.sampled_from(NODES), st.booleans()),
    st.tuples(st.just("heartbeat"), st.sampled_from(NODES)),
    st.tuples(st.just("sweep")),
    st.tuples(st.just("cordon"), st.sampled_from(NODES)),
    st.tuples(st.just("remove"), st.sampled_from(NODES)),
    st.tuples(st.just("create"), POD_KEYS),
    st.tuples(st.just("bind"), POD_KEYS, st.sampled_from(NODES)),
    st.tuples(st.just("delete"), POD_KEYS),
    st.tuples(st.just("restart"), POD_KEYS),
    st.tuples(st.just("recover")),
)


def apply(api, op, now):
    kind = op[0]
    if kind == "register":
        _, name, leased = op
        api.register_node(
            name, cpu_mem(16, 64), lease_ttl=2.0 if leased else None, now=now
        )
    elif kind == "heartbeat":
        api.heartbeat_node(op[1], now)
    elif kind == "sweep":
        api.sweep_expired(now)
    elif kind == "cordon":
        api.cordon_node(op[1])
    elif kind == "remove":
        api.remove_node(op[1])
    elif kind == "create":
        api.create_pod(new_pod(*op[1]))
    elif kind == "bind":
        api.bind_pod(pod_name(*op[1]), op[2])
    elif kind == "delete":
        api.delete_pod(pod_name(*op[1]))
    elif kind == "restart":
        api.restart_pod(pod_name(*op[1]))


class TestIndexEqualsStore:
    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.sampled_from([0, 1, 2]), OPS, st.sampled_from([0.0, 0.5, 1.5])),
            min_size=1,
            max_size=40,
        )
    )
    def test_random_operations(self, steps):
        """Two servers and a deposed, fenced third share one store; each
        operation runs through one of them, and all three keep reading
        exactly what the store holds."""
        store = KVStore()
        apis = [APIServer(store), APIServer(store)]
        apis[0].register_node("n0", cpu_mem(16, 64), lease_ttl=2.0, now=0.0)
        apis[0].register_node("n1", cpu_mem(16, 64))
        for job_id in JOBS:
            apis[1].create_pod(new_pod(job_id, "worker", 0))
        leader = LeaderElection(store, "old", ttl=1.0)
        assert leader.campaign(0.0) == 1
        zombie = APIServer(store)
        zombie.fence_writes(leader)
        assert LeaderElection(store, "new", ttl=100.0).campaign(5.0) == 2
        servers = apis + [zombie]
        now = 5.0
        for who, op, dt in steps:
            now += dt
            if op[0] == "recover":
                # A fresh server seeds itself from the populated store.
                apis[who % 2] = servers[who % 2] = APIServer(store)
                continue
            try:
                apply(servers[who], op, now)
            except StaleLeaderError:
                assert who == 2
            except KVStoreError:
                pass
            for api in servers:
                assert_matches_store(api, store)


class TestFencedAndRolledBack:
    def test_fence_rejected_bind_leaves_index_equal_to_store(self):
        store = KVStore()
        kubelet = APIServer(store)
        kubelet.register_node("n0", cpu_mem(16, 64))
        leader = LeaderElection(store, "a", ttl=2.0)
        assert leader.campaign(0.0) == 1
        api = APIServer(store)
        api.fence_writes(leader)
        api.create_pod(new_pod("a", "worker", 0))
        assert api.pod("a/worker-0").node is None
        # A rival deposes the lapsed reign; the old leader's bind bounces.
        assert LeaderElection(store, "b", ttl=2.0).campaign(3.0) == 2
        with pytest.raises(StaleLeaderError):
            api.bind_pod("a/worker-0", "n0")
        assert api.store.fenced_writes == 1
        for server in (api, kubelet):
            assert_matches_store(server, store)
            assert server.pod("a/worker-0").node is None
            assert server.node("n0").allocated == cpu_mem(0, 0)

    def test_rescale_rolled_back_mid_flight(self):
        store = KVStore()
        api = APIServer(store)
        observer = APIServer(store)
        api.register_node("n0", cpu_mem(16, 64))
        api.register_node("n1", cpu_mem(16, 64))
        controller = JobController(api)
        controller.adopt_job("a")

        def target(layout):
            return JobTarget(
                job_id="a", worker_demand=DEMAND, ps_demand=DEMAND, layout=layout
            )

        controller.reconcile([target({"n0": (1, 1)})])
        before = {p.name: p.node for p in api.list_pods()}
        # n1 holds three 5-cpu pods, not four: the fourth bind fails and the
        # job is rolled back onto its previous pods.
        report = controller.reconcile([target({"n1": (4, 0)})])
        assert report.jobs_rolled_back == ("a",)
        assert {p.name: p.node for p in api.list_pods()} == before
        assert all(p.restarts == 1 for p in api.list_pods())
        assert api.node("n1").allocated == cpu_mem(0, 0)
        for server in (api, observer):
            assert_matches_store(server, store)

    def test_server_on_populated_store(self):
        store = KVStore()
        first = APIServer(store)
        for name in NODES:
            first.register_node(name, cpu_mem(16, 64), lease_ttl=2.0, now=0.0)
        first.create_pod(new_pod("a", "worker", 0))
        first.bind_pod("a/worker-0", "n1")
        first.cordon_node("n2")
        # The recover path: a new incarnation over the same store.
        second = APIServer(store)
        assert_matches_store(second, store)
        second.delete_pod("a/worker-0")
        for server in (first, second):
            assert_matches_store(server, store)

    def test_unreadable_store_fails_first_read_then_seeds(self):
        flaky = FlakyKVStore(KVStore(), error_rate=1.0)
        api = APIServer(flaky)  # registering the watches draws no faults
        with pytest.raises(TransientKVError):
            api.list_pods()
        flaky.error_rate = 0.0
        api.register_node("n0", cpu_mem(16, 64))
        api.create_pod(new_pod("a", "ps", 0))
        assert_matches_store(api, flaky.inner)


class TestFrozenObjects:
    def test_pod_fields_cannot_be_assigned(self):
        pod = new_pod("a", "worker", 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pod.node = "n0"

    def test_node_fields_cannot_be_assigned(self):
        api = APIServer()
        node = api.register_node("n0", cpu_mem(16, 64))
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.cordoned = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            api.node("n0").allocated = cpu_mem(1, 1)


class CountingStore(KVStore):
    def __init__(self):
        super().__init__()
        self.lists = 0
        self.object_puts = 0

    def list_prefix(self, prefix):
        self.lists += 1
        return super().list_prefix(prefix)

    def put(self, key, value, lease=None):
        if key.startswith((POD_PREFIX, NODE_PREFIX)):
            self.object_puts += 1
        return super().put(key, value, lease=lease)


class TestReadCost:
    def test_control_loop_lists_once_and_decodes_each_put_once(self, monkeypatch):
        decodes = []
        for cls in (PodSpec, NodeInfo):
            decode = cls.from_json.__func__

            def counting(owner, payload, decode=decode):
                decodes.append(owner.__name__)
                return decode(owner, payload)

            monkeypatch.setattr(cls, "from_json", classmethod(counting))
        store = CountingStore()
        api = APIServer(store)
        for i in range(4):
            api.register_node(f"n{i}", cpu_mem(16, 64), lease_ttl=3.0, now=0.0)
        loop = ControlLoop(api, make_scheduler("optimus"))
        specs = [
            make_job(model, mode="sync", job_id=f"j{i}")
            for i, model in enumerate(["seq2seq", "resnet-50", "dssm"])
        ]
        views = {}
        for spec in specs:
            truth = StepTimeModel(spec.profile, "sync")
            views[spec.job_id] = JobView(
                spec=spec,
                remaining_steps=50_000,
                speed=truth.speed,
                observation_count=100,
            )
        active_by_step = [["j0"], ["j0", "j1"], ["j0", "j1", "j2"], ["j1", "j2"], ["j2"], []]
        lists = []
        for step, active in enumerate(active_by_step):
            for i in range(4):
                loop.heartbeat(f"n{i}", float(step))
            before = store.lists
            loop.step([views[j] for j in active], progress=dict.fromkeys(active, 1.0))
            lists.append(store.lists - before)
        assert store.object_puts > 0
        assert all(count <= 1 for count in lists[1:]), lists
        assert len(decodes) <= store.object_puts
