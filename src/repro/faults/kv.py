"""Flaky and retrying wrappers around the etcd-like KV store.

Two composable decorators with the same duck-type interface as
:class:`repro.k8s.kvstore.KVStore`:

* :class:`FlakyKVStore` -- *injects* faults: each data operation fails
  with a seeded probability, raising
  :class:`~repro.common.errors.TransientKVError` *before* the operation
  runs (a failed put never mutates the store, like a request that never
  reached etcd).
* :class:`RetryingKVStore` -- *recovers* from them: every operation runs
  under :func:`repro.common.retry.call_with_retry`, with each retry traced
  as a ``kv_retry`` event and counted in the metrics registry, and budget
  exhaustion traced as ``kv_retry_exhausted`` before the final error
  escapes.

Stack them (``RetryingKVStore(FlakyKVStore(KVStore(), ...))``) to model the
§5.5 claim that job state survives a flaky etcd hop: errors below the
attempt budget are invisible to callers apart from the metrics.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.common.errors import FaultInjectionError, TransientKVError
from repro.common.rand import RandomSource
from repro.common.retry import RetryPolicy, call_with_retry
from repro.k8s.kvstore import KVStore, WatchCallback

T = TypeVar("T")


class FlakyKVStore:
    """A :class:`KVStore` whose data operations fail with probability *error_rate*.

    Failures are drawn from a dedicated seeded stream (``seed.child("kv")``)
    so a given seed produces the same failure sequence every run. Watch
    registration and ``len()`` are deliberately reliable -- they model local
    client state, not network hops.
    """

    def __init__(
        self,
        inner: Optional[KVStore] = None,
        error_rate: float = 0.0,
        seed: Optional[RandomSource] = None,
    ):
        if not 0.0 <= error_rate <= 1.0:
            raise FaultInjectionError("error_rate must be in [0, 1]")
        self.inner = inner if inner is not None else KVStore()
        self.error_rate = float(error_rate)
        self._rng = (seed or RandomSource(0)).child("kv").rng
        self.failures_injected = 0

    def _maybe_fail(self, op: str) -> None:
        if self.error_rate > 0 and float(self._rng.random()) < self.error_rate:
            self.failures_injected += 1
            raise TransientKVError(f"injected transient failure during {op}")

    # -- flaky data path -----------------------------------------------------------
    def put(self, key: str, value: str, lease: Optional[int] = None) -> int:
        self._maybe_fail("put")
        return self.inner.put(key, value, lease=lease)

    def grant_lease(self, ttl: float, now: float = 0.0) -> int:
        self._maybe_fail("grant_lease")
        return self.inner.grant_lease(ttl, now)

    def renew_lease(self, lease_id: int, now: float) -> float:
        self._maybe_fail("renew_lease")
        return self.inner.renew_lease(lease_id, now)

    def revoke_lease(self, lease_id: int) -> List[str]:
        self._maybe_fail("revoke_lease")
        return self.inner.revoke_lease(lease_id)

    def get(self, key: str) -> Optional[str]:
        self._maybe_fail("get")
        return self.inner.get(key)

    def get_with_revision(self, key: str) -> Tuple[Optional[str], int]:
        self._maybe_fail("get_with_revision")
        return self.inner.get_with_revision(key)

    def delete(self, key: str) -> bool:
        self._maybe_fail("delete")
        return self.inner.delete(key)

    def compare_and_swap(
        self,
        key: str,
        expected: Optional[str],
        value: str,
        lease: Optional[int] = None,
    ) -> bool:
        self._maybe_fail("compare_and_swap")
        return self.inner.compare_and_swap(key, expected, value, lease=lease)

    def list_prefix(self, prefix: str) -> Dict[str, str]:
        self._maybe_fail("list_prefix")
        return self.inner.list_prefix(prefix)

    def keys(self, pattern: str = "*") -> List[str]:
        self._maybe_fail("keys")
        return self.inner.keys(pattern)

    def __contains__(self, key: str) -> bool:
        self._maybe_fail("contains")
        return key in self.inner

    # -- reliable local path -------------------------------------------------------
    @property
    def revision(self) -> int:
        return self.inner.revision

    def __len__(self) -> int:
        return len(self.inner)

    def watch(self, prefix: str, callback: WatchCallback) -> int:
        return self.inner.watch(prefix, callback)

    def cancel_watch(self, watch_id: int) -> bool:
        return self.inner.cancel_watch(watch_id)

    # Lease expiry is server-internal bookkeeping (etcd's lessor runs next
    # to the data), not a network hop -- it stays reliable, like watches.
    def expire_leases(self, now: float) -> List[int]:
        return self.inner.expire_leases(now)

    def lease_remaining(self, lease_id: int, now: float) -> float:
        return self.inner.lease_remaining(lease_id, now)

    def lease_ttl(self, lease_id: int) -> float:
        return self.inner.lease_ttl(lease_id)

    def lease_keys(self, lease_id: int) -> List[str]:
        return self.inner.lease_keys(lease_id)

    def has_lease(self, lease_id: int) -> bool:
        return self.inner.has_lease(lease_id)


class RetryingKVStore:
    """A :class:`KVStore` front that retries transient failures of *inner*.

    Every retry is observable: ``kv.retries`` / ``kv.retry_exhausted``
    counters on *metrics*, and ``kv_retry`` / ``kv_retry_exhausted`` trace
    events on *tracer* (the event time is a monotonically increasing
    operation sequence number -- the store has no notion of sim time).
    """

    def __init__(
        self,
        inner: KVStore,
        policy: Optional[RetryPolicy] = None,
        seed: Optional[RandomSource] = None,
        tracer=None,
        metrics=None,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        from repro.obs import NULL_REGISTRY, NULL_TRACER

        self.inner = inner
        self.policy = policy or RetryPolicy()
        self._rng = seed.child("kv-retry").rng if seed is not None else None
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._sleep = sleep
        self._op_seq = 0

    def _call(self, op: str, fn: Callable[[], T]) -> T:
        self._op_seq += 1
        seq = self._op_seq

        def on_retry(attempt: int, delay: float, exc: BaseException) -> None:
            if self._metrics:
                self._metrics.counter("kv.retries").inc()
            if self._tracer:
                self._tracer.emit(
                    "kv_retry",
                    float(seq),
                    op=op,
                    attempt=attempt,
                    delay=delay,
                    error=str(exc),
                )

        def on_exhausted(attempts: int, exc: BaseException) -> None:
            if self._metrics:
                self._metrics.counter("kv.retry_exhausted").inc()
            if self._tracer:
                self._tracer.emit(
                    "kv_retry_exhausted",
                    float(seq),
                    op=op,
                    attempts=attempts,
                    error=str(exc),
                )

        return call_with_retry(
            fn,
            policy=self.policy,
            rng=self._rng,
            sleep=self._sleep,
            on_retry=on_retry,
            on_exhausted=on_exhausted,
        )

    # -- retried data path ---------------------------------------------------------
    def put(self, key: str, value: str, lease: Optional[int] = None) -> int:
        return self._call("put", lambda: self.inner.put(key, value, lease=lease))

    def grant_lease(self, ttl: float, now: float = 0.0) -> int:
        return self._call("grant_lease", lambda: self.inner.grant_lease(ttl, now))

    def renew_lease(self, lease_id: int, now: float) -> float:
        return self._call(
            "renew_lease", lambda: self.inner.renew_lease(lease_id, now)
        )

    def revoke_lease(self, lease_id: int) -> List[str]:
        return self._call(
            "revoke_lease", lambda: self.inner.revoke_lease(lease_id)
        )

    def get(self, key: str) -> Optional[str]:
        return self._call("get", lambda: self.inner.get(key))

    def get_with_revision(self, key: str) -> Tuple[Optional[str], int]:
        return self._call(
            "get_with_revision", lambda: self.inner.get_with_revision(key)
        )

    def delete(self, key: str) -> bool:
        return self._call("delete", lambda: self.inner.delete(key))

    def compare_and_swap(
        self,
        key: str,
        expected: Optional[str],
        value: str,
        lease: Optional[int] = None,
    ) -> bool:
        return self._call(
            "compare_and_swap",
            lambda: self.inner.compare_and_swap(key, expected, value, lease=lease),
        )

    def list_prefix(self, prefix: str) -> Dict[str, str]:
        return self._call("list_prefix", lambda: self.inner.list_prefix(prefix))

    def keys(self, pattern: str = "*") -> List[str]:
        return self._call("keys", lambda: self.inner.keys(pattern))

    def __contains__(self, key: str) -> bool:
        return self._call("contains", lambda: key in self.inner)

    # -- local pass-through --------------------------------------------------------
    @property
    def revision(self) -> int:
        return self.inner.revision

    def __len__(self) -> int:
        return len(self.inner)

    def watch(self, prefix: str, callback: WatchCallback) -> int:
        return self.inner.watch(prefix, callback)

    def cancel_watch(self, watch_id: int) -> bool:
        return self.inner.cancel_watch(watch_id)

    def expire_leases(self, now: float) -> List[int]:
        return self.inner.expire_leases(now)

    def lease_remaining(self, lease_id: int, now: float) -> float:
        return self.inner.lease_remaining(lease_id, now)

    def lease_ttl(self, lease_id: int) -> float:
        return self.inner.lease_ttl(lease_id)

    def lease_keys(self, lease_id: int) -> List[str]:
        return self.inner.lease_keys(lease_id)

    def has_lease(self, lease_id: int) -> bool:
        return self.inner.has_lease(lease_id)
