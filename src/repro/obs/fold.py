"""One pass over a trace: the per-job and per-run state every reader renders.

``repro trace`` (:func:`~repro.obs.summarize.summarize_trace`), ``repro
top`` (:func:`~repro.obs.export.render_top`), ``repro explain`` and
``repro trace diff`` (:mod:`repro.obs.explain`) all render from the
:class:`TraceFold` that :func:`fold_trace` builds, so each fact about a
run -- a job's allocation, its arrival and completion, its estimator
error, the decision-ledger tallies -- is derived in one place.

Estimator error accumulates in :class:`~repro.obs.estimators.SignalStats`,
the class the live :class:`~repro.obs.estimators.EstimatorTelemetry`
keeps, so the offline MAPE and bias of a trace are the run's own. A
signal with no samples has ``count == 0`` (and ``mape`` 0.0): renderers
test the count before printing a number.

The span views (:func:`~repro.obs.summarize.span_tree`,
:func:`~repro.obs.summarize.phase_breakdown`,
:func:`~repro.obs.summarize.span_flame`) read only ``span`` events and
stay separate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.obs.estimators import SIGNALS, SignalStats
from repro.obs.tracer import (
    EVENT_ALLOCATION_DECIDED,
    EVENT_CHECKPOINT_RECORDED,
    EVENT_DECISION,
    EVENT_ESTIMATOR_DRIFT,
    EVENT_ESTIMATOR_SAMPLE,
    EVENT_INTERVAL_TICK,
    EVENT_JOB_ARRIVED,
    EVENT_JOB_COMPLETED,
    EVENT_JOB_RESTARTED,
    EVENT_LEADER_DEPOSED,
    EVENT_LEADER_ELECTED,
    EVENT_NODE_LEASE_REGRANT,
    EVENT_PLACEMENT_DECIDED,
    EVENT_TYPES,
    EVENT_WRITE_FENCED,
)

#: The HA control-plane events :attr:`TraceFold.control` tallies, in order.
CONTROL_PLANE_EVENTS = (
    EVENT_LEADER_ELECTED,
    EVENT_LEADER_DEPOSED,
    EVENT_WRITE_FENCED,
    EVENT_NODE_LEASE_REGRANT,
    EVENT_CHECKPOINT_RECORDED,
)


def _signal_table() -> Dict[str, SignalStats]:
    return {signal: SignalStats() for signal in SIGNALS}


@dataclass
class JobFold:
    """One job's state at the end of the trace."""

    job_id: str
    model: str = "?"
    mode: str = "?"
    #: ``pending``, then ``active`` on arrival, ``running`` once
    #: allocated, ``done`` on completion.
    state: str = "pending"
    workers: int = 0
    ps: int = 0
    servers: int = 0
    arrival: Optional[float] = None
    completion: Optional[float] = None
    restarts: int = 0
    drift_signals: Set[str] = field(default_factory=set)
    #: Prediction error per signal (``speed`` and ``remaining`` always present).
    estimators: Dict[str, SignalStats] = field(default_factory=_signal_table)
    #: Every event carrying this job's id, in stream order.
    events: List[Dict] = field(default_factory=list)

    def add(self, event: Dict) -> None:
        """Fold one event that carries this job's id."""
        self.events.append(event)
        kind = event.get("event")
        if kind == EVENT_JOB_ARRIVED:
            self.model = event.get("model", "?")
            self.mode = event.get("mode", "?")
            self.state = "active"
            self.arrival = float(
                event.get("arrival_time", event.get("time", 0.0)) or 0.0
            )
        elif kind == EVENT_ALLOCATION_DECIDED:
            self.workers = event.get("workers", 0)
            self.ps = event.get("ps", 0)
            if self.state != "done":
                self.state = "running"
        elif kind == EVENT_PLACEMENT_DECIDED:
            self.servers = event.get("servers", 0)
        elif kind == EVENT_JOB_COMPLETED:
            self.state = "done"
            finish = event.get("completion_time", event.get("time"))
            if isinstance(finish, (int, float)):
                self.completion = float(finish)
        elif kind == EVENT_JOB_RESTARTED:
            self.restarts += 1
        elif kind == EVENT_ESTIMATOR_SAMPLE:
            signal = event.get("signal", "?")
            self.estimators.setdefault(signal, SignalStats()).add(
                float(event.get("error", 0.0))
            )
        elif kind == EVENT_ESTIMATOR_DRIFT:
            self.drift_signals.add(event.get("signal", "?"))


@dataclass
class TraceFold:
    """The whole run: per-job folds plus run-wide tallies."""

    jobs: Dict[str, JobFold] = field(default_factory=dict)
    #: Events per type this build declares, and per type it does not.
    known: Counter = field(default_factory=Counter)
    unknown: Counter = field(default_factory=Counter)
    #: Fleet prediction error per signal (``speed`` and ``remaining`` always present).
    fleet: Dict[str, SignalStats] = field(default_factory=_signal_table)
    drift: List[Dict] = field(default_factory=list)
    last_tick: Dict = field(default_factory=dict)
    last_time: float = 0.0
    #: Decision-ledger tallies: grants by task, denials by reason,
    #: placements by provenance, shrinks, and grants the sampled ledger kept.
    grants: Counter = field(default_factory=Counter)
    denials: Counter = field(default_factory=Counter)
    placements: Counter = field(default_factory=Counter)
    shrinks: int = 0
    sampled_grants: int = 0

    @property
    def ticks(self) -> int:
        """Scheduling intervals (``interval_tick`` events) in the trace."""
        return self.known[EVENT_INTERVAL_TICK]

    @property
    def control(self) -> Dict[str, int]:
        """Count per :data:`CONTROL_PLANE_EVENTS` type, in that order."""
        return {kind: self.known[kind] for kind in CONTROL_PLANE_EVENTS}

    def add(self, event: Dict) -> None:
        """Fold the next event of the stream."""
        kind = event.get("event")
        if kind in EVENT_TYPES:
            self.known[kind] += 1
        else:
            self.unknown[str(kind)] += 1
        time = event.get("time")
        if isinstance(time, (int, float)):
            self.last_time = max(self.last_time, float(time))
        if kind == EVENT_ESTIMATOR_SAMPLE:
            self.fleet.setdefault(event.get("signal", "?"), SignalStats()).add(
                float(event.get("error", 0.0))
            )
        elif kind == EVENT_ESTIMATOR_DRIFT:
            self.drift.append(event)
        elif kind == EVENT_INTERVAL_TICK:
            self.last_tick = event
        elif kind == EVENT_DECISION:
            decision = event.get("kind")
            if decision == "grant":
                self.grants[str(event.get("task", "?"))] += 1
                if event.get("sampled"):
                    self.sampled_grants += 1
            elif decision == "deny":
                self.denials[str(event.get("reason", "?"))] += 1
            elif decision == "placement":
                self.placements[str(event.get("provenance", "?"))] += 1
            elif decision == "shrink":
                self.shrinks += 1
        job_id = event.get("job_id")
        if job_id is not None:
            job = self.jobs.get(job_id)
            if job is None:
                job = self.jobs[job_id] = JobFold(job_id)
            job.add(event)


def fold_trace(events: Sequence[Dict]) -> TraceFold:
    """Fold a trace's events, in stream order, into one :class:`TraceFold`."""
    fold = TraceFold()
    for event in events:
        fold.add(event)
    return fold
