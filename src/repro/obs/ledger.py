"""The scheduler decision ledger: *why* every grant and denial happened.

The §4.1 allocator is a greedy auction -- each worker/PS grant is a
comparison the winning job won against every other job's best marginal
gain -- yet the base trace only records outcomes (``allocation_decided``,
``placement_decided``), never reasons. The :class:`DecisionLedger` closes
that gap: the allocators and the placement pipeline record *decision*
records through it, and it emits them as compact ``decision`` events on
the existing JSONL stream plus ``decision.*`` aggregate counters on the
metrics registry.

Record kinds (the ``kind`` field of every ``decision`` event):

* ``grant`` -- one greedy step: winning job, the task kind granted, its
  marginal gain, the runner-up job and the gap to it, and the grant's
  index within the allocation round.
* ``deny`` -- a job got nothing (or stopped growing) this round, with a
  ``reason``: ``capacity_exhausted`` (not even the anti-starvation
  starter fit, or no further task of either kind fit), ``hopeless_shape``
  (aggregate capacity admitted the job but fragmentation rejected even a
  shrunk-to-(1,1) placement), ``converged_yield`` (the job's marginal
  gain went non-positive -- it yielded the auction voluntarily),
  ``price_rejected`` (the OASiS primal-dual auction priced the job out:
  bundles fit, but no candidate's utility beat its priced cost), or
  ``estimator_fallback`` (a §3 loss or speed fit raised ``FittingError``
  and the job was planned from a fallback estimate; ``stage`` names the
  fit, ``error`` carries the message).
* ``placement`` -- provenance of a job's layout: ``cache`` (replayed by
  the :class:`~repro.core.placement.PlacementCache`) or ``fresh``, plus
  whether the layout spills across servers.
* ``shrink`` -- the placement round's shrink pass cut an unplaceable
  allocation down until it fit.

Budget / sampling knob (``mode``):

* ``"full"`` -- every record becomes an event (smoke scale; this is what
  ``repro explain`` replays into a per-job timeline).
* ``"sampled"`` -- only the top-K grants per round (by gain) become
  events, flagged ``sampled: true``; denials and placement provenance
  fold into the ``decision.*`` counters alone. This keeps the ledger's
  overhead flat at 5000-GPU scale, where full fidelity would dominate
  the trace stream.
* ``"off"`` -- the :data:`NULL_LEDGER`: truthiness-false, so hot paths
  pay one bool check (the same contract as :data:`NULL_TRACER`).

Like the metrics registry, a process-wide *active* ledger lets the leaf
allocators (:func:`repro.core.allocation.allocate`, the OASiS auction) and
the placement round (:func:`repro.core.placement.place_round`) record
decisions without threading a ledger through every policy signature: the
engine installs one with :func:`use_ledger` around its scheduling loop.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracer import EVENT_DECISION, NULL_TRACER, Tracer

#: Ledger fidelity modes (plus ``"auto"`` at the SimConfig level, which
#: resolves to ``full`` when a tracer is attached and ``off`` otherwise).
LEDGER_MODES = ("off", "full", "sampled")

#: The closed set of denial reasons (the ``reason`` field of ``deny``).
DENIAL_REASONS = (
    "capacity_exhausted",
    "hopeless_shape",
    "converged_yield",
    "price_rejected",
    "estimator_fallback",
)

#: Grants kept per allocation round in ``sampled`` mode.
DEFAULT_TOP_K = 8


class DecisionLedger:
    """Collects scheduler decisions; emits events and counters.

    Parameters
    ----------
    tracer:
        Event sink for ``decision`` events (:data:`NULL_TRACER` keeps the
        ledger counters-only, which is how the scale benchmark runs it).
    metrics:
        Counter sink for the ``decision.*`` aggregates.
    mode:
        ``"full"`` or ``"sampled"`` (use :data:`NULL_LEDGER` for off).
    top_k:
        Grants retained per round in ``sampled`` mode.
    """

    enabled: bool = True

    def __init__(
        self,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
        mode: str = "full",
        top_k: int = DEFAULT_TOP_K,
    ) -> None:
        if mode not in ("full", "sampled"):
            raise ConfigurationError(
                f"ledger mode must be 'full' or 'sampled', got {mode!r} "
                "(use NULL_LEDGER for 'off')"
            )
        if top_k < 1:
            raise ConfigurationError("top_k must be >= 1")
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.mode = mode
        self.top_k = top_k
        self._time = 0.0
        self._index = 0
        self._round_grants: List[Tuple[float, dict]] = []

    def __bool__(self) -> bool:
        return self.enabled

    # -- plumbing ----------------------------------------------------------------
    def set_time(self, now: float) -> None:
        """Stamp subsequent records with simulation time *now*."""
        self._time = float(now)

    def begin_round(self, policy: Optional[str] = None) -> None:
        """Start one allocation round: resets the grant index and buffer.

        Called by the allocators themselves (not the engine), so nested
        or repeated policy invocations within one interval each audit as
        their own round.
        """
        self._flush_sampled()
        self._index = 0
        self._round_policy = policy

    def end_round(self) -> None:
        """Close the round; in ``sampled`` mode flushes the top-K grants."""
        self._flush_sampled()

    def _flush_sampled(self) -> None:
        if not self._round_grants:
            return
        grants = sorted(self._round_grants, key=lambda kv: -kv[0])
        dropped = len(grants) - min(len(grants), self.top_k)
        if dropped:
            self.metrics.counter("decision.grants_sampled_out").inc(dropped)
        if self.tracer:
            for _, payload in grants[: self.top_k]:
                self.tracer.emit(EVENT_DECISION, self._time, **payload)
        self._round_grants = []

    # -- records -----------------------------------------------------------------
    def record_grant(
        self,
        job_id: str,
        task: str,
        gain: float,
        workers: int,
        ps: int,
        runner_up: Optional[str] = None,
        runner_up_gap: Optional[float] = None,
    ) -> None:
        """One greedy grant: *job_id* won one *task* at marginal *gain*."""
        self.metrics.counter("decision.grants").inc()
        index = self._index
        self._index += 1
        payload = {
            "kind": "grant",
            "job_id": job_id,
            "task": task,
            "gain": gain,
            "index": index,
            "workers": workers,
            "ps": ps,
        }
        if runner_up is not None:
            payload["runner_up"] = runner_up
        if runner_up_gap is not None:
            payload["runner_up_gap"] = runner_up_gap
        if self.mode == "sampled":
            payload["sampled"] = True
            self._round_grants.append((float(gain), payload))
        elif self.tracer:
            self.tracer.emit(EVENT_DECISION, self._time, **payload)

    def record_denial(self, job_id: str, reason: str, **fields) -> None:
        """Job *job_id* got nothing (or stopped growing) because *reason*."""
        if reason not in DENIAL_REASONS:
            raise ConfigurationError(
                f"unknown denial reason {reason!r}; known: {DENIAL_REASONS}"
            )
        self.metrics.counter(f"decision.deny.{reason}").inc()
        if self.mode == "full" and self.tracer:
            self.tracer.emit(
                EVENT_DECISION,
                self._time,
                kind="deny",
                job_id=job_id,
                reason=reason,
                **fields,
            )

    def record_placement(
        self, job_id: str, provenance: str, servers: int
    ) -> None:
        """Where a job's layout came from: ``cache`` replay or ``fresh``."""
        self.metrics.counter(f"decision.placement.{provenance}").inc()
        spill = servers > 1
        if spill:
            self.metrics.counter("decision.placement.spill").inc()
        if self.mode == "full" and self.tracer:
            self.tracer.emit(
                EVENT_DECISION,
                self._time,
                kind="placement",
                job_id=job_id,
                provenance=provenance,
                servers=servers,
                spill=spill,
            )

    def record_shrink(
        self,
        job_id: str,
        requested: Tuple[int, int],
        granted: Tuple[int, int],
    ) -> None:
        """The shrink pass cut *job_id* from *requested* to *granted*."""
        self.metrics.counter("decision.shrinks").inc()
        if self.mode == "full" and self.tracer:
            self.tracer.emit(
                EVENT_DECISION,
                self._time,
                kind="shrink",
                job_id=job_id,
                requested=list(requested),
                granted=list(granted),
            )


class NullDecisionLedger(DecisionLedger):
    """The disabled ledger: every call is a no-op, truthiness is False."""

    enabled = False

    def __init__(self) -> None:  # noqa: D107 - trivially empty
        self.tracer = NULL_TRACER
        self.metrics = NULL_REGISTRY
        self.mode = "off"
        self.top_k = DEFAULT_TOP_K
        self._time = 0.0
        self._index = 0
        self._round_grants = []

    def set_time(self, now: float) -> None:
        pass

    def begin_round(self, policy: Optional[str] = None) -> None:
        pass

    def end_round(self) -> None:
        pass

    def record_grant(self, *args, **kwargs) -> None:
        pass

    def record_denial(self, *args, **kwargs) -> None:
        pass

    def record_placement(self, *args, **kwargs) -> None:
        pass

    def record_shrink(self, *args, **kwargs) -> None:
        pass


#: Shared default instance -- hot paths compare against this cheaply.
NULL_LEDGER = NullDecisionLedger()

_ACTIVE: DecisionLedger = NULL_LEDGER


def active_ledger() -> DecisionLedger:
    """The currently installed ledger (:data:`NULL_LEDGER` by default)."""
    return _ACTIVE


def install_ledger(ledger: Optional[DecisionLedger]) -> DecisionLedger:
    """Install *ledger* as the active one; returns the previous ledger.

    Passing ``None`` restores the null ledger.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = ledger if ledger is not None else NULL_LEDGER
    return previous


@contextmanager
def use_ledger(ledger: Optional[DecisionLedger]) -> Iterator[DecisionLedger]:
    """Scope *ledger* as the active one for a ``with`` block."""
    previous = install_ledger(ledger)
    try:
        yield active_ledger()
    finally:
        install_ledger(previous)
