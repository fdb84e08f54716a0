"""Causal span tracing: the one timing mechanism of the observability layer.

A :class:`SpanTracer` maintains a stack of open spans; each ``with
spans.span("fit"):`` block becomes one timed node with a ``span_id``, its
parent's ``parent_id`` and a wall-clock ``duration``. Closing a span reads
the clock once and writes that one reading to two sinks:

* the ``phase.<name>`` histogram of the tracer's metrics registry
  ("where does interval time go on average?"), from which
  :func:`phase_timings` reads the run totals that become
  ``SimulationResult.phase_timings``;
* when an event tracer is attached, a ``span`` event on the ordinary JSONL
  trace stream ("what happened inside THIS interval, in what order,
  nested under what?"), from which :func:`repro.obs.summarize.span_tree`
  reconstructs per-interval and per-job flame trees and the per-phase
  breakdown offline.

The simulation engine opens an ``interval`` root span per scheduling
interval with ``fit`` / ``snapshot`` / ``schedule`` (→ ``allocate`` /
``place``) / ``progress`` (→ ``rescale``) children; the deployment control
loop opens a ``step`` root with ``sweep`` / ``snapshot`` / ``schedule``
(→ ``allocate`` / ``place``) / ``reconcile`` (→ per-job ``checkpoint`` /
``teardown`` / ``launch``) children, and recovery wraps ``replay_intents``.
Spans are closed in a ``finally`` clause, so a crash-point firing
mid-reconcile still closes every open span before the exception escapes --
the flame tree of a crashed cycle is exactly what an operator wants to see.

Like every ``repro.obs`` sink, the disabled implementation
(:data:`NULL_SPAN_TRACER`) is falsy and free: ``span()`` returns a shared
no-op context manager and no clock is read. :func:`span_tracer_for` hands
it out whenever neither a tracer nor a metrics registry is attached; a
tracer-only run gets a live span tracer over a run-private registry.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracer import EVENT_SPAN, NULL_TRACER, Tracer

#: Registry name prefix of the per-span-name timing histograms.
PHASE_PREFIX = "phase."


class Span:
    """One open (then closed) node of the causal tree."""

    __slots__ = ("span_id", "parent_id", "name", "attrs", "start", "duration")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        attrs: dict,
        start: float,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start = start
        self.duration: Optional[float] = None  # set on close


class SpanTracer:
    """Stack-scoped span creation and phase timing.

    ``set_time`` pins the logical timestamp (simulation seconds, or the
    deploy loop's step index) stamped on every span event; wall-clock
    durations always come from ``time.perf_counter``. A live tracer is
    truthy; only :class:`NullSpanTracer` is falsy.
    """

    def __init__(
        self, tracer: Tracer = NULL_TRACER, metrics: Optional[MetricsRegistry] = None
    ):
        self._tracer = tracer
        #: The registry whose ``phase.*`` histograms every closed span
        #: feeds: a run-private one when the caller attached none.
        self.metrics = metrics if metrics else MetricsRegistry()
        self._stack: List[Span] = []
        self._next_id = 1
        self.now = 0.0

    def set_time(self, now: float) -> None:
        """Pin the logical time stamped on subsequently closed spans."""
        self.now = float(now)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` at the root."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a child span of the current one for the ``with`` body.

        The span is closed -- and timed and emitted -- even when the body
        raises, so crash-point injections and genuine failures never leak
        open spans or corrupt the stack.
        """
        stack = self._stack
        parent = stack[-1].span_id if stack else None
        span = Span(
            span_id=self._next_id,
            parent_id=parent,
            name=name,
            attrs=attrs,
            start=time.perf_counter(),
        )
        self._next_id += 1
        stack.append(span)
        try:
            yield span
        finally:
            elapsed = span.duration = time.perf_counter() - span.start
            stack.pop()
            self.metrics.histogram(PHASE_PREFIX + name).observe(elapsed)
            if self._tracer:
                self._tracer.emit(
                    EVENT_SPAN,
                    self.now,
                    span_id=span.span_id,
                    parent_id=parent,
                    name=name,
                    duration=elapsed,
                    **attrs,
                )


class _NullSpanContext:
    """Shared no-op ``with`` body for the disabled span tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullSpanTracer(SpanTracer):
    """Span tracing disabled: every call is a shared no-op, truthiness False."""

    def __init__(self) -> None:
        super().__init__()
        self.metrics = NULL_REGISTRY

    def set_time(self, now: float) -> None:
        pass

    def span(self, name: str, **attrs):  # type: ignore[override]
        return _NULL_SPAN_CONTEXT

    def __bool__(self) -> bool:
        return False


#: Shared default instance -- hot paths compare against this cheaply.
NULL_SPAN_TRACER = NullSpanTracer()


def span_tracer_for(
    tracer: Optional[Tracer], metrics: Optional[MetricsRegistry] = None
) -> SpanTracer:
    """A live :class:`SpanTracer` when either sink is attached, else the null one."""
    tracer = tracer if tracer is not None else NULL_TRACER
    if tracer or metrics:
        return SpanTracer(tracer, metrics)
    return NULL_SPAN_TRACER


def phase_timings(metrics: MetricsRegistry) -> Dict[str, Dict[str, float]]:
    """Run totals per span name from the ``phase.*`` histograms of *metrics*.

    ``{name: {count, total, mean, max}}`` (seconds), sorted by name; empty
    for a registry no span ever closed into.
    """
    histograms = metrics.snapshot().get("histograms", {})
    return {
        name[len(PHASE_PREFIX):]: {
            "count": stats["count"],
            "total": stats["sum"],
            "mean": stats["mean"],
            "max": stats["max"],
        }
        for name, stats in histograms.items()
        if name.startswith(PHASE_PREFIX)
    }
