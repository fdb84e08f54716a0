"""Causal span tracing: the one timing mechanism of the observability layer.

A :class:`SpanTracer` maintains a stack of open spans; each ``with
spans.span("fit"):`` block becomes one timed node with a ``span_id``, its
parent's ``parent_id`` and a wall-clock ``duration``. Closing a span reads
the clock once and feeds every timing view from that one reading:

* the ``phase.<name>`` histogram of the attached metrics registry
  ("where does interval time go on average?");
* the current root span's per-interval dict (:meth:`SpanTracer.interval_timings`),
  which the engine and control loop publish as ``interval_tick.phases``;
  the root itself is not part of its own dict;
* the run totals (:meth:`SpanTracer.summary`), which become
  ``SimulationResult.phase_timings``;
* when an event tracer is attached, a ``span`` event on the ordinary JSONL
  trace stream ("what happened inside THIS interval, in what order,
  nested under what?"), from which :func:`repro.obs.summarize.span_tree`
  reconstructs per-interval and per-job flame trees offline.

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
it out whenever neither a tracer nor a metrics registry is attached.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracer import EVENT_SPAN, NULL_TRACER, Tracer


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
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._stack: List[Span] = []
        self._next_id = 1
        self._interval: Dict[str, float] = {}
        self._totals: Dict[str, List[float]] = {}  # name -> [count, total, max]
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

        Opening a root span starts a fresh per-interval dict. The span is
        closed -- and timed and emitted -- even when the body raises, so
        crash-point injections and genuine failures never leak open spans
        or corrupt the stack.
        """
        stack = self._stack
        if stack:
            parent: Optional[int] = stack[-1].span_id
        else:
            parent = None
            self._interval = {}
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
            if parent is not None:
                self._interval[name] = self._interval.get(name, 0.0) + elapsed
            stats = self._totals.get(name)
            if stats is None:
                stats = self._totals[name] = [0, 0.0, 0.0]
            stats[0] += 1
            stats[1] += elapsed
            if elapsed > stats[2]:
                stats[2] = elapsed
            self._metrics.histogram(f"phase.{name}").observe(elapsed)
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

    def interval_timings(self) -> Dict[str, float]:
        """Seconds per span name beneath the latest root span.

        The dict is reset when the next root opens, so it stays readable
        after its root closed (the control loop emits its tick then).
        """
        return dict(self._interval)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Run totals per span name: count, total, mean, max (seconds)."""
        return {
            name: {
                "count": stats[0],
                "total": stats[1],
                "mean": stats[1] / stats[0],
                "max": stats[2],
            }
            for name, stats in sorted(self._totals.items())
        }


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
    metrics = metrics if metrics is not None else NULL_REGISTRY
    if tracer or metrics:
        return SpanTracer(tracer, metrics)
    return NULL_SPAN_TRACER
