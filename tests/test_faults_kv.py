"""Tests for FlakyKVStore (injection) and RetryingKVStore (recovery)."""

import os

import pytest

from repro.cluster.resources import cpu_mem
from repro.common.errors import FaultInjectionError, KVStoreError, TransientKVError
from repro.common.rand import RandomSource
from repro.common.retry import RetryPolicy
from repro.faults import FlakyKVStore, RetryingKVStore
from repro.k8s import APIServer, LeaderElection, PodSpec, pod_name
from repro.k8s.kvstore import KVStore
from repro.obs import MetricsRegistry, RecordingTracer

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def exercise(store, rounds=50):
    """A fixed mixed workload; returns the op-outcome log (True=ok)."""
    log = []
    for i in range(rounds):
        for fn in (
            lambda: store.put(f"k{i % 7}", f"v{i}"),
            lambda: store.get(f"k{i % 7}"),
            lambda: store.delete(f"k{(i + 3) % 7}"),
            lambda: store.list_prefix("k"),
        ):
            try:
                fn()
                log.append(True)
            except TransientKVError:
                log.append(False)
    return log


class TestFlakyKVStore:
    def test_rate_validation(self):
        with pytest.raises(FaultInjectionError):
            FlakyKVStore(error_rate=1.5)
        with pytest.raises(FaultInjectionError):
            FlakyKVStore(error_rate=-0.1)

    def test_zero_rate_is_pure_delegation(self):
        store = FlakyKVStore(error_rate=0.0)
        assert exercise(store) == [True] * 200
        assert store.failures_injected == 0
        assert store.get("k0") is not None

    def test_same_seed_same_failure_sequence(self):
        log_a = exercise(
            FlakyKVStore(error_rate=0.3, seed=RandomSource(CHAOS_SEED))
        )
        log_b = exercise(
            FlakyKVStore(error_rate=0.3, seed=RandomSource(CHAOS_SEED))
        )
        assert log_a == log_b
        assert False in log_a and True in log_a

    def test_failed_put_does_not_mutate(self):
        store = FlakyKVStore(error_rate=1.0)
        with pytest.raises(TransientKVError):
            store.put("key", "value")
        assert len(store) == 0
        assert store.revision == 0

    def test_watch_path_is_reliable(self):
        store = FlakyKVStore(error_rate=1.0)
        events = []
        watch_id = store.watch("k", events.append)
        store.inner.put("k1", "v")  # behind the flaky front
        assert len(events) == 1
        assert store.cancel_watch(watch_id)


class TestRetryingKVStore:
    def test_below_budget_errors_invisible_but_counted(self):
        # error_rate=0.3 with a 12-attempt budget: P(12 consecutive
        # failures) is ~5e-7 per op, so even 200 ops across any seed stay
        # below the budget and no error may escape.
        metrics = MetricsRegistry()
        tracer = RecordingTracer()
        flaky = FlakyKVStore(error_rate=0.3, seed=RandomSource(CHAOS_SEED))
        store = RetryingKVStore(
            flaky, policy=RetryPolicy(max_attempts=12), tracer=tracer, metrics=metrics
        )
        log = exercise(store)
        assert log == [True] * 200
        assert flaky.failures_injected > 0
        retries = metrics.snapshot()["counters"]["kv.retries"]
        assert retries == flaky.failures_injected
        assert len(tracer.of_type("kv_retry")) == retries
        assert tracer.of_type("kv_retry_exhausted") == []

    def test_beyond_budget_raises_kvstore_error_after_max_attempts(self):
        metrics = MetricsRegistry()
        tracer = RecordingTracer()
        flaky = FlakyKVStore(error_rate=1.0)
        policy = RetryPolicy(max_attempts=3)
        store = RetryingKVStore(flaky, policy=policy, tracer=tracer, metrics=metrics)
        with pytest.raises(KVStoreError):
            store.put("key", "value")
        # Documented budget: exactly max_attempts tries, then the error.
        assert flaky.failures_injected == 3
        counters = metrics.snapshot()["counters"]
        assert counters["kv.retry_exhausted"] == 1
        assert counters["kv.retries"] == 2  # attempts 1 and 2 retried
        exhausted = tracer.of_type("kv_retry_exhausted")
        assert len(exhausted) == 1
        assert exhausted[0]["op"] == "put"
        assert exhausted[0]["attempts"] == 3

    def test_retry_events_carry_op_and_attempt(self):
        tracer = RecordingTracer()
        flaky = FlakyKVStore(error_rate=0.5, seed=RandomSource(CHAOS_SEED))
        store = RetryingKVStore(
            flaky, policy=RetryPolicy(max_attempts=10), tracer=tracer
        )
        exercise(store, rounds=20)
        events = tracer.of_type("kv_retry")
        assert events
        for event in events:
            assert event["op"] in {"put", "get", "delete", "list_prefix"}
            assert event["attempt"] >= 1
            assert event["delay"] > 0

    def test_apiserver_workflow_survives_flaky_substrate(self):
        # The §5.5 claim end to end: a full register/create/bind/list cycle
        # on a flaky store completes once retries are in front of it.
        metrics = MetricsRegistry()
        flaky = FlakyKVStore(
            KVStore(), error_rate=0.25, seed=RandomSource(CHAOS_SEED)
        )
        api = APIServer(store=RetryingKVStore(flaky, metrics=metrics))
        api.register_node("n0", cpu_mem(16, 64))
        for index in range(4):
            spec = PodSpec(
                name=pod_name("j1", "worker", index),
                job_id="j1",
                role="worker",
                index=index,
                demand=cpu_mem(2, 4),
            )
            api.create_pod(spec)
            api.bind_pod(spec.name, "n0")
        assert len(api.list_pods(job_id="j1")) == 4
        assert flaky.failures_injected > 0
        assert metrics.snapshot()["counters"]["kv.retries"] > 0

    def test_pass_through_surfaces(self):
        inner = KVStore()
        store = RetryingKVStore(FlakyKVStore(inner, error_rate=0.0))
        store.put("a", "1")
        assert "a" in store
        assert store.get_with_revision("a") == ("1", 1)
        assert store.keys() == ["a"]
        assert len(store) == 1
        assert store.revision == inner.revision
        assert store.compare_and_swap("a", "1", "2")
        assert store.delete("a")


def remote_calls(lease_id):
    """Every round-trip operation of the store interface, by op name."""
    return {
        "put": lambda s: s.put("k", "v"),
        "get": lambda s: s.get("k"),
        "get_with_revision": lambda s: s.get_with_revision("k"),
        "delete": lambda s: s.delete("k"),
        "compare_and_swap": lambda s: s.compare_and_swap("k", None, "v"),
        "list_prefix": lambda s: s.list_prefix("k"),
        "keys": lambda s: s.keys(),
        "contains": lambda s: "k" in s,
        "grant_lease": lambda s: s.grant_lease(5.0),
        "renew_lease": lambda s: s.renew_lease(lease_id, 1.0),
        "revoke_lease": lambda s: s.revoke_lease(lease_id),
    }


def local_calls(lease_id):
    """The store operations that model local state or server bookkeeping."""
    return {
        "revision": lambda s: s.revision,
        "len": lambda s: len(s),
        "watch": lambda s: s.watch("k", lambda event: None),
        "cancel_watch": lambda s: s.cancel_watch(1),
        "expire_leases": lambda s: s.expire_leases(0.0),
        "lease_remaining": lambda s: s.lease_remaining(lease_id, 1.0),
        "lease_ttl": lambda s: s.lease_ttl(lease_id),
        "lease_keys": lambda s: s.lease_keys(lease_id),
        "has_lease": lambda s: s.has_lease(lease_id),
    }


REMOTE_OP_NAMES = sorted(remote_calls(0))
LOCAL_OP_NAMES = sorted(local_calls(0))


def always_failing_store():
    """A flaky front that fails every remote call, over one live lease."""
    inner = KVStore()
    lease_id = inner.grant_lease(10.0, 0.0)
    return FlakyKVStore(inner, error_rate=1.0), lease_id


class TestOperationSets:
    @pytest.mark.parametrize("op", REMOTE_OP_NAMES)
    def test_remote_op_fails_under_injection(self, op):
        store, lease_id = always_failing_store()
        with pytest.raises(TransientKVError, match=f"during {op}$"):
            remote_calls(lease_id)[op](store)
        assert store.failures_injected == 1

    @pytest.mark.parametrize("op", LOCAL_OP_NAMES)
    def test_local_op_never_fails(self, op):
        store, lease_id = always_failing_store()
        local_calls(lease_id)[op](store)
        assert store.failures_injected == 0

    def test_retries_cover_exactly_the_remote_ops(self):
        flaky, lease_id = always_failing_store()
        tracer = RecordingTracer()
        store = RetryingKVStore(
            flaky, policy=RetryPolicy(max_attempts=2), tracer=tracer
        )
        for call in remote_calls(lease_id).values():
            with pytest.raises(KVStoreError):
                call(store)
        for call in local_calls(lease_id).values():
            call(store)
        retried = [event["op"] for event in tracer.of_type("kv_retry")]
        assert retried == list(remote_calls(lease_id))
        assert "contains" in retried
        exhausted = tracer.of_type("kv_retry_exhausted")
        assert [event["op"] for event in exhausted] == retried
        # One sequence number per operation, shared by its retry events.
        assert [event["time"] for event in exhausted] == [
            float(seq) for seq in range(1, len(retried) + 1)
        ]

    def test_fenced_retrying_store_still_retries_writes(self):
        flaky = FlakyKVStore(
            KVStore(), error_rate=0.5, seed=RandomSource(CHAOS_SEED)
        )
        tracer = RecordingTracer()
        api = APIServer(
            store=RetryingKVStore(
                flaky, policy=RetryPolicy(max_attempts=40), tracer=tracer
            )
        )
        election = LeaderElection(api.store, "a", ttl=100.0)
        assert election.campaign(0.0) == 1
        api.fence_writes(election)
        for index in range(20):
            api.register_node(f"n{index}", cpu_mem(16, 64))
        assert len(api.list_nodes()) == 20
        retried = {event["op"] for event in tracer.of_type("kv_retry")}
        assert "put" in retried
        assert len(tracer.of_type("kv_retry")) == flaky.failures_injected
