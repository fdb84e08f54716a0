"""Straggler injection and handling (§5.2).

Stragglers -- workers running far slower than their peers because of
resource contention or unbalanced load -- hurt synchronous jobs directly
(every step waits for the slowest worker) and asynchronous jobs indirectly
(stale parameters). Optimus monitors per-worker speed, flags workers below
half the median speed and replaces them with fresh ones.

The simulator injects straggler *episodes*: in each scheduling interval each
running worker independently becomes a straggler with a configurable
probability and a random slowdown factor. With handling enabled the episode
lasts only the detection + replacement latency; with handling disabled it
lasts the entire interval. The half-median rule itself is not executed:
detection is modelled as that latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rand import RandomSource
from repro.workloads.speed import MODE_SYNC, StepTimeModel, straggler_step_time

@dataclass(frozen=True)
class StragglerConfig:
    """Straggler behaviour knobs.

    ``rate`` is the per-worker, per-interval episode probability;
    ``slowdown_range`` bounds the uniform slowdown factor; ``detection_time``
    + ``replacement_time`` is how long an episode persists when handling is
    on (monitoring notices the slow worker, then a new one is launched).
    """

    rate: float = 0.0
    slowdown_range: Tuple[float, float] = (2.0, 4.0)
    detection_time: float = 60.0
    replacement_time: float = 30.0
    handling_enabled: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError("rate must be in [0, 1]")
        lo, hi = self.slowdown_range
        if lo < 1.0 or hi < lo:
            raise ConfigurationError("slowdown_range must satisfy 1 <= lo <= hi")
        if self.detection_time < 0 or self.replacement_time < 0:
            raise ConfigurationError("latencies must be non-negative")

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0

    @property
    def episode_duration(self) -> float:
        return self.detection_time + self.replacement_time


@dataclass(frozen=True)
class StragglerEpisode:
    """One injected straggler: which worker, how slow, for how long."""

    worker_index: int
    slowdown: float
    duration: float


class StragglerInjector:
    """Seeded episode sampler used by the simulation engine."""

    def __init__(self, config: StragglerConfig, seed: RandomSource):
        self.config = config
        self._rng = seed.child("stragglers").rng

    def sample(self, num_workers: int, interval: float) -> List[StragglerEpisode]:
        """Sample this interval's episodes for a job with *num_workers*."""
        if not self.config.enabled or num_workers < 1:
            return []
        episodes = []
        lo, hi = self.config.slowdown_range
        for worker in range(num_workers):
            if self._rng.random() < self.config.rate:
                duration = (
                    min(self.config.episode_duration, interval)
                    if self.config.handling_enabled
                    else interval
                )
                episodes.append(
                    StragglerEpisode(
                        worker_index=worker,
                        slowdown=float(self._rng.uniform(lo, hi)),
                        duration=float(duration),
                    )
                )
        return episodes


def degraded_speed(
    model: StepTimeModel,
    p: int,
    w: int,
    episodes: List[StragglerEpisode],
    imbalance: float = 1.0,
) -> float:
    """Training speed while the given episodes are active.

    Synchronous jobs pay the slowest straggler's extra compute time on every
    step; asynchronous jobs lose the stragglers' own throughput only.
    """
    if not episodes:
        return model.speed(p, w, imbalance=imbalance)
    if model.mode == MODE_SYNC:
        worst = max(e.slowdown for e in episodes)
        return 1.0 / straggler_step_time(model, p, w, worst, imbalance=imbalance)
    base_step = model.step_time(p, w, imbalance=imbalance)
    healthy = w - len(episodes)
    slow_throughput = sum(1.0 / e.slowdown for e in episodes)
    return max(healthy + slow_throughput, 0.0) / base_step


def effective_interval_speed(
    model: StepTimeModel,
    p: int,
    w: int,
    episodes: List[StragglerEpisode],
    run_time: float,
    imbalance: float = 1.0,
) -> float:
    """Time-weighted average speed over an interval of *run_time* seconds.

    Episodes degrade the job for their duration (clamped to the interval);
    the remainder of the interval runs at full speed. Episodes are treated
    as concurrent -- a pessimistic but simple composition.
    """
    if run_time <= 0:
        return 0.0
    full = model.speed(p, w, imbalance=imbalance)
    if not episodes:
        return full
    degraded_for = min(max(e.duration for e in episodes), run_time)
    slow = degraded_speed(model, p, w, episodes, imbalance=imbalance)
    return (slow * degraded_for + full * (run_time - degraded_for)) / run_time
