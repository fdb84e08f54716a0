"""Flaky and retrying wrappers around the etcd-like KV store.

Two composable :class:`~repro.k8s.kvstore.StoreFront` subclasses, each a
full :class:`repro.k8s.kvstore.KVStore` stand-in that adds one rule to
the round trips in :data:`~repro.k8s.kvstore.REMOTE_OPS`:

* :class:`FlakyKVStore` -- *injects* faults: each round trip fails
  with a seeded probability, raising
  :class:`~repro.common.errors.TransientKVError` *before* the operation
  runs (a failed put never mutates the store, like a request that never
  reached etcd).
* :class:`RetryingKVStore` -- *recovers* from them: every round trip runs
  under :func:`repro.common.retry.call_with_retry`, with each retry traced
  as a ``kv_retry`` event and counted in the metrics registry, and budget
  exhaustion traced as ``kv_retry_exhausted`` before the final error
  escapes.

Stack them (``RetryingKVStore(FlakyKVStore(KVStore(), ...))``) to model the
§5.5 claim that job state survives a flaky etcd hop: errors below the
attempt budget are invisible to callers apart from the metrics.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from repro.common.errors import FaultInjectionError, TransientKVError
from repro.common.rand import RandomSource
from repro.common.retry import RetryPolicy, call_with_retry
from repro.k8s.kvstore import REMOTE_OPS, KVStore, StoreFront

T = TypeVar("T")


class FlakyKVStore(StoreFront):
    """A :class:`KVStore` whose data operations fail with probability *error_rate*.

    Failures are drawn from a dedicated seeded stream (``seed.child("kv")``)
    so a given seed produces the same failure sequence every run. Only the
    round trips in :data:`~repro.k8s.kvstore.REMOTE_OPS` can fail: watch
    registration, ``len()`` and lease expiry/introspection (etcd's lessor
    runs next to the data) are deliberately reliable -- they model local
    client or server state, not network hops.
    """

    def __init__(
        self,
        inner: Optional[KVStore] = None,
        error_rate: float = 0.0,
        seed: Optional[RandomSource] = None,
    ):
        if not 0.0 <= error_rate <= 1.0:
            raise FaultInjectionError("error_rate must be in [0, 1]")
        super().__init__(inner if inner is not None else KVStore())
        self.error_rate = float(error_rate)
        self._rng = (seed or RandomSource(0)).child("kv").rng
        self.failures_injected = 0

    def _call(self, op: str, target: str, run: Callable[[], T]) -> T:
        if (
            op in REMOTE_OPS
            and self.error_rate > 0
            and float(self._rng.random()) < self.error_rate
        ):
            self.failures_injected += 1
            raise TransientKVError(f"injected transient failure during {op}")
        return run()


class RetryingKVStore(StoreFront):
    """A :class:`KVStore` front that retries transient failures of *inner*.

    Every retry is observable: ``kv.retries`` / ``kv.retry_exhausted``
    counters on *metrics*, and ``kv_retry`` / ``kv_retry_exhausted`` trace
    events on *tracer* (the event time is a monotonically increasing
    operation sequence number -- the store has no notion of sim time).
    Only the round trips in :data:`~repro.k8s.kvstore.REMOTE_OPS` are
    retried and numbered; local operations pass straight through.
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

        super().__init__(inner)
        self.policy = policy or RetryPolicy()
        self._rng = seed.child("kv-retry").rng if seed is not None else None
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._sleep = sleep
        self._op_seq = 0

    def _call(self, op: str, target: str, run: Callable[[], T]) -> T:
        if op not in REMOTE_OPS:
            return run()
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
            run,
            policy=self.policy,
            rng=self._rng,
            sleep=self._sleep,
            on_retry=on_retry,
            on_exhausted=on_exhausted,
        )
