"""Structured event tracing for the scheduler pipeline.

A :class:`Tracer` receives *typed* events -- ``job_arrived``,
``allocation_decided``, ``placement_decided``, ``job_rescaled``,
``straggler_detected``, ``job_completed``, ``interval_tick`` -- from the
simulation engine and the deployment control loop. Every event carries a
monotonically increasing ``seq`` number, the simulation (or step) time it
happened at, and event-specific fields.

Three implementations cover every use:

* :data:`NULL_TRACER` -- the default; truthiness-false so hot paths can skip
  building event payloads entirely (``if tracer: tracer.emit(...)``).
* :class:`RecordingTracer` -- keeps events in memory (tests, notebooks).
* :class:`JsonlTracer` -- streams events as JSON Lines to a file, one JSON
  object per line, readable by :mod:`repro.obs.summarize`.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, TextIO, Tuple, Union

from repro.common.errors import ConfigurationError

#: A job entered the system and was admitted by the engine.
EVENT_JOB_ARRIVED = "job_arrived"
#: The allocator granted a job its (workers, ps) counts for one interval.
EVENT_ALLOCATION_DECIDED = "allocation_decided"
#: The placer mapped a job's tasks onto servers for one interval.
EVENT_PLACEMENT_DECIDED = "placement_decided"
#: A running job's (workers, ps) changed and it paid the §5.4 scaling cost.
EVENT_JOB_RESCALED = "job_rescaled"
#: A straggler episode hit one of a job's workers this interval (§5.2).
EVENT_STRAGGLER_DETECTED = "straggler_detected"
#: A job reached its convergence stopping rule.
EVENT_JOB_COMPLETED = "job_completed"
#: One scheduling interval finished; carries the per-phase timings.
EVENT_INTERVAL_TICK = "interval_tick"
#: A server lost all capacity to an injected crash (``repro.faults``).
EVENT_NODE_FAILED = "node_failed"
#: A previously failed server's capacity came back.
EVENT_NODE_RECOVERED = "node_recovered"
#: One or more of a job's tasks died independently of their node.
EVENT_TASK_CRASHED = "task_crashed"
#: A job rolled back to its last checkpoint and pays restart overhead.
EVENT_JOB_RESTARTED = "job_restarted"
#: A transient KV-store failure was retried (``repro.common.retry``).
EVENT_KV_RETRY = "kv_retry"
#: A KV-store operation exhausted its retry budget and the error escaped.
EVENT_KV_RETRY_EXHAUSTED = "kv_retry_exhausted"
#: A mid-flight rescale failed and the job was rolled back to its previous pods.
EVENT_RESCALE_ROLLED_BACK = "rescale_rolled_back"
#: Recovery found no checkpoint for a job (fresh job or lost checkpoint).
EVENT_CHECKPOINT_MISSING = "checkpoint_missing"
#: A node's health lease lapsed and the control loop cordoned it.
EVENT_NODE_CORDONED = "node_cordoned"
#: A node heartbeat renewed its health lease.
EVENT_NODE_LEASE_RENEWED = "node_lease_renewed"
#: Recovery replayed a write-ahead intent left by a dead controller.
EVENT_INTENT_REPLAYED = "intent_replayed"
#: A causal span closed (``repro.obs.spans``): one timed node of the
#: per-interval flame tree, carrying ``span_id``/``parent_id``/``name``.
EVENT_SPAN = "span"
#: One prediction-vs-reality sample from the §3 estimators
#: (``repro.obs.estimators``): predicted, actual and relative error.
EVENT_ESTIMATOR_SAMPLE = "estimator_sample"
#: The windowed estimator error crossed the drift band: the online model
#: is persistently wrong and a refit (or operator attention) is warranted.
EVENT_ESTIMATOR_DRIFT = "estimator_drift"
#: A job's progress was checkpointed (fault runs only): carries ``job_id``
#: and the cumulative ``steps`` saved -- the anchor for the soak checker's
#: monotonic-checkpoint invariant.
EVENT_CHECKPOINT_RECORDED = "checkpoint_recorded"
#: A candidate won the leader election and minted a new fencing epoch.
EVENT_LEADER_ELECTED = "leader_elected"
#: A leader's reign ended (lease lapsed, resignation, or a successor
#: cleaned up its stale record); carries the deposed ``epoch``.
EVENT_LEADER_DEPOSED = "leader_deposed"
#: A deposed leader's write was rejected by its fenced store.
EVENT_WRITE_FENCED = "write_fenced"
#: A late node heartbeat re-granted a lapsed (but unswept) health lease.
EVENT_NODE_LEASE_REGRANT = "node_lease_regrant"
#: One scheduler decision record from the :mod:`repro.obs.ledger`: a
#: marginal-gain grant (with runner-up and gap), a per-job denial with its
#: reason, a placement provenance note (cache replay vs fresh, spill), or
#: a shrink-retry record. ``kind`` discriminates the sub-record.
EVENT_DECISION = "decision"
#: Terminal accounting record emitted once by a soak/simulation runner:
#: which jobs finished, which are legitimately unfinished, and any state
#: (pods, leases, intents) still held after teardown. The soak invariant
#: checker reconciles the whole stream against this event.
EVENT_RUN_COMPLETED = "run_completed"

#: Every event type a tracer accepts.
EVENT_TYPES = frozenset(
    {
        EVENT_JOB_ARRIVED,
        EVENT_ALLOCATION_DECIDED,
        EVENT_PLACEMENT_DECIDED,
        EVENT_JOB_RESCALED,
        EVENT_STRAGGLER_DETECTED,
        EVENT_JOB_COMPLETED,
        EVENT_INTERVAL_TICK,
        EVENT_NODE_FAILED,
        EVENT_NODE_RECOVERED,
        EVENT_TASK_CRASHED,
        EVENT_JOB_RESTARTED,
        EVENT_KV_RETRY,
        EVENT_KV_RETRY_EXHAUSTED,
        EVENT_RESCALE_ROLLED_BACK,
        EVENT_CHECKPOINT_MISSING,
        EVENT_NODE_CORDONED,
        EVENT_NODE_LEASE_RENEWED,
        EVENT_INTENT_REPLAYED,
        EVENT_LEADER_ELECTED,
        EVENT_LEADER_DEPOSED,
        EVENT_WRITE_FENCED,
        EVENT_NODE_LEASE_REGRANT,
        EVENT_SPAN,
        EVENT_ESTIMATOR_SAMPLE,
        EVENT_ESTIMATOR_DRIFT,
        EVENT_CHECKPOINT_RECORDED,
        EVENT_DECISION,
        EVENT_RUN_COMPLETED,
    }
)


class Tracer:
    """Base tracer: validates events and hands them to :meth:`_record`.

    Subclasses implement :meth:`_record`; callers only ever use
    :meth:`emit`. A tracer is truthy exactly when it is enabled, so the
    hot-path guard ``if tracer: tracer.emit(...)`` costs one bool check
    when tracing is off.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._seq = 0

    def emit(self, event: str, time: float, **fields) -> Optional[Dict]:
        """Record one event; returns the event dict (or None when disabled)."""
        if event not in EVENT_TYPES:
            raise ConfigurationError(
                f"unknown trace event {event!r}; known: {sorted(EVENT_TYPES)}"
            )
        payload: Dict = {"seq": self._seq, "time": float(time), "event": event}
        payload.update(fields)
        self._seq += 1
        self._record(payload)
        return payload

    def _record(self, payload: Dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (a no-op by default)."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __bool__(self) -> bool:
        return self.enabled


class NullTracer(Tracer):
    """The disabled tracer: every call is a no-op, truthiness is False."""

    enabled = False

    def emit(self, event: str, time: float, **fields) -> Optional[Dict]:
        return None

    def _record(self, payload: Dict) -> None:  # pragma: no cover - unreachable
        pass


#: Shared default instance -- hot paths compare against this cheaply.
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Keeps every event in an in-memory list (``tracer.events``)."""

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Dict] = []

    def _record(self, payload: Dict) -> None:
        self.events.append(payload)

    def of_type(self, event: str) -> List[Dict]:
        """All recorded events of one type, in emission order."""
        return [e for e in self.events if e["event"] == event]

    def for_job(self, job_id: str) -> List[Dict]:
        """All recorded events carrying this ``job_id``, in emission order."""
        return [e for e in self.events if e.get("job_id") == job_id]


class JsonlTracer(Tracer):
    """Streams events to a JSON-Lines file (one JSON object per line)."""

    def __init__(self, destination: Union[str, TextIO]):
        super().__init__()
        if isinstance(destination, str):
            self._stream: TextIO = open(destination, "w", encoding="utf8")
            self._owns_stream = True
        else:
            self._stream = destination
            self._owns_stream = False

    def _record(self, payload: Dict) -> None:
        self._stream.write(json.dumps(payload, separators=(",", ":")) + "\n")

    def close(self) -> None:
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()


def read_trace(source: Union[str, TextIO]) -> List[Dict]:
    """Parse a JSONL trace back into a list of event dicts.

    Raises :class:`ConfigurationError` on the first malformed line (invalid
    JSON, or JSON that is not an object); use
    :func:`read_trace_tolerant` for traces that may be truncated or
    corrupted (a crashed writer, a partial download).
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf8") as handle:
            return read_trace(handle)
    events = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"trace line {lineno} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(event, dict):
            raise ConfigurationError(f"trace line {lineno} is not a JSON object")
        events.append(event)
    return events


def read_trace_tolerant(
    source: Union[str, TextIO],
) -> Tuple[List[Dict], int]:
    """Parse a JSONL trace, skipping corrupt lines instead of raising.

    Returns ``(events, skipped)`` where ``skipped`` counts the malformed
    lines (invalid JSON, or JSON that is not an object) that were dropped.
    A half-written final line -- the usual result of a writer killed
    mid-flush -- therefore costs one skipped line, not the whole report.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf8") as handle:
            return read_trace_tolerant(handle)
    events: List[Dict] = []
    skipped = 0
    for line in source:
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        if not isinstance(event, dict):
            skipped += 1
            continue
        events.append(event)
    return events, skipped
