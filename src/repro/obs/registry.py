"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the numeric half of the observability layer (the tracer is
the event half). It is deliberately tiny and dependency-free:

* :class:`Counter` -- monotonically increasing totals (jobs admitted,
  allocation grants, pods created, ...).
* :class:`Gauge` -- last-written values (active jobs, leftover CPU, ...).
* :class:`Histogram` -- fixed-bucket distributions; the default buckets are
  tuned for phase timings in seconds (closed spans observe ``phase.<name>``,
  see :mod:`repro.obs.spans`).

A process-wide *active* registry lets leaf algorithms
(:func:`repro.core.allocation.allocate`, :func:`repro.core.placement.place_jobs`)
record into whatever registry the caller installed without threading one
through every signature. The default active registry is
:data:`NULL_REGISTRY`, whose instruments are shared no-ops, so instrumented
hot paths cost one dict lookup and one no-op call when metrics are off.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError

#: Default histogram buckets (seconds): 10 µs .. 30 s, roughly log-spaced.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-5,
    1e-4,
    1e-3,
    5e-3,
    0.025,
    0.1,
    0.5,
    2.0,
    10.0,
    30.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with running count/sum/min/max.

    ``bounds`` are upper bucket edges; one implicit overflow bucket catches
    everything beyond the last edge. ``bucket_counts[i]`` is the number of
    observations ``<= bounds[i]`` but greater than the previous edge.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS):
        edges = tuple(float(b) for b in bounds)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ConfigurationError(
                "histogram bounds must be non-empty and strictly increasing"
            )
        self.bounds = edges
        self.bucket_counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-th quantile by linear interpolation within buckets.

        The rank is located in its bucket, then interpolated between the
        bucket's edges (the overflow bucket interpolates toward the
        observed maximum). Results are clamped to the observed
        ``[min, max]`` range, so degenerate bucket choices stay sane.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("q must be in [0, 1]")
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if not bucket_count:
                continue
            if seen + bucket_count >= rank:
                lower = 0.0 if i == 0 else self.bounds[i - 1]
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                upper = max(upper, lower)
                fraction = (rank - seen) / bucket_count
                value = lower + (upper - lower) * fraction
                return min(max(value, self.min), self.max)
            seen += bucket_count
        return self.max

    def snapshot(self) -> Dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": [
                {"le": bound, "count": count}
                for bound, count in zip(
                    # The overflow edge is the string "inf" so the snapshot
                    # stays strict JSON (json.dumps would emit Infinity).
                    list(self.bounds) + ["inf"],
                    self.bucket_counts,
                )
            ],
        }


def quantile_from_snapshot(histogram_snapshot: Dict, q: float) -> float:
    """:meth:`Histogram.quantile` over a ``snapshot()`` dict.

    Lets the Prometheus exporter (and any offline consumer of a
    ``--metrics-out`` JSON dump) estimate quantiles without the live
    :class:`Histogram` object. Uses the same within-bucket linear
    interpolation, clamped to the recorded ``[min, max]``.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError("q must be in [0, 1]")
    count = histogram_snapshot.get("count", 0)
    if not count:
        return 0.0
    observed_min = histogram_snapshot.get("min")
    observed_max = histogram_snapshot.get("max")
    observed_min = 0.0 if observed_min is None else float(observed_min)
    observed_max = observed_min if observed_max is None else float(observed_max)
    rank = q * count
    seen = 0
    lower = 0.0
    for bucket in histogram_snapshot.get("buckets", []):
        bucket_count = bucket["count"]
        edge = bucket["le"]
        upper = observed_max if edge == "inf" else float(edge)
        if bucket_count:
            if seen + bucket_count >= rank:
                upper = max(upper, lower)
                fraction = (rank - seen) / bucket_count
                value = lower + (upper - lower) * fraction
                return min(max(value, observed_min), observed_max)
            seen += bucket_count
        lower = upper if edge != "inf" else lower
    return observed_max


class MetricsRegistry:
    """Named instruments, created lazily on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(bounds)
        return instrument

    def snapshot(self) -> Dict:
        """A JSON-ready dump of every instrument."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def __bool__(self) -> bool:
        return True


class _NullInstrument:
    """Shared no-op counter/gauge/histogram."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The disabled registry: shared no-op instruments, truthiness False."""

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str) -> Counter:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name, bounds=DEFAULT_TIME_BUCKETS):  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def snapshot(self) -> Dict:
        return {}

    def __bool__(self) -> bool:
        return False


#: Shared default instance.
NULL_REGISTRY = NullRegistry()

#: The process-wide registry leaf algorithms record into.
_ACTIVE: MetricsRegistry = NULL_REGISTRY


def active_registry() -> MetricsRegistry:
    """The currently installed registry (:data:`NULL_REGISTRY` by default)."""
    return _ACTIVE


def install_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install *registry* as the active one; returns the previous registry.

    Passing ``None`` restores the null registry.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry]) -> Iterator[MetricsRegistry]:
    """Scope *registry* as the active one for a ``with`` block."""
    previous = install_registry(registry)
    try:
        yield active_registry()
    finally:
        install_registry(previous)
