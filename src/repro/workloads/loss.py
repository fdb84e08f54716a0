"""Ground-truth loss emission: what a real training job would report.

The estimator side of the library (:mod:`repro.fitting`,
:mod:`repro.core.convergence`) consumes ``(step, loss)`` observations. This
module produces such observations from a profile's smooth
:class:`~repro.workloads.profiles.LossCurveTruth`, with

* multiplicative measurement noise (mini-batch losses are noisy),
* occasional *outlier spikes* (e.g. a bad mini-batch or a restarted worker),
  which the paper's preprocessing (§3.1) must remove, and
* un-normalised raw values (the scheduler normalises by the max observed
  loss itself, mirroring §3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rand import SeedLike, spawn_rng
from repro.workloads.profiles import LossCurveTruth


@dataclass(frozen=True)
class LossObservation:
    """One training-loss report: global step number and raw loss value."""

    step: int
    loss: float


class LossEmitter:
    """Streams noisy loss observations for one job.

    Parameters
    ----------
    curve:
        The smooth ground-truth loss curve (normalised units).
    steps_per_epoch:
        Conversion between the step counter and the curve's epoch axis.
    initial_loss:
        Raw loss scale; the emitted value is ``initial_loss * l(E) * noise``.
    noise_std:
        Standard deviation of the multiplicative Gaussian noise.
    outlier_rate:
        Probability that any observation is replaced by an outlier spike.
    seed:
        Anything accepted by :func:`repro.common.rand.spawn_rng`.
    """

    def __init__(
        self,
        curve: LossCurveTruth,
        steps_per_epoch: float,
        initial_loss: float = 6.0,
        noise_std: float = 0.015,
        outlier_rate: float = 0.01,
        seed: SeedLike = None,
    ):
        if steps_per_epoch <= 0:
            raise ConfigurationError("steps_per_epoch must be positive")
        if initial_loss <= 0:
            raise ConfigurationError("initial_loss must be positive")
        if noise_std < 0 or not 0 <= outlier_rate <= 1:
            raise ConfigurationError("invalid noise parameters")
        self.curve = curve
        self.steps_per_epoch = float(steps_per_epoch)
        self.initial_loss = float(initial_loss)
        self.noise_std = float(noise_std)
        self.outlier_rate = float(outlier_rate)
        self._seed = seed

    @cached_property
    def _rng(self) -> np.random.Generator:
        """The ``loss-noise`` stream, built at the first noisy observation."""
        return spawn_rng(self._seed, "loss-noise")

    def true_loss(self, step: float) -> float:
        """Smooth raw loss at a (possibly fractional) step count."""
        return self.initial_loss * self.curve.loss(step / self.steps_per_epoch)

    def observe(self, step: int) -> LossObservation:
        """One noisy raw-loss observation at *step*."""
        value = self.true_loss(step)
        if self.outlier_rate > 0 and self._rng.random() < self.outlier_rate:
            # A spike: between 1.5x and 4x the true loss, as happens when a
            # worker restarts or hits a pathological mini-batch.
            value *= 1.5 + 2.5 * self._rng.random()
        elif self.noise_std > 0:
            value *= max(1e-3, 1.0 + self._rng.normal(0.0, self.noise_std))
        return LossObservation(step=int(step), loss=float(value))

    def observe_many(self, steps) -> np.ndarray:
        """Noisy raw losses at every step of *steps*, drawn as arrays.

        Each point has :meth:`observe`'s distribution, but the draws come
        as three arrays of ``len(steps)``: the outlier tests, the spike
        factors and the Gaussian factors. A call therefore consumes the
        generator differently from a loop of :meth:`observe` calls.
        """
        steps = np.asarray(steps, dtype=float)
        values = self.initial_loss * self.curve.losses(steps / self.steps_per_epoch)
        count = values.size
        spike = self._rng.random(count) < self.outlier_rate
        spikes = 1.5 + 2.5 * self._rng.random(count)
        gauss = np.maximum(1e-3, 1.0 + self._rng.normal(0.0, self.noise_std, count))
        return values * np.where(spike, spikes, gauss)

    def observe_range(
        self, start_step: int, end_step: int, stride: int = 1
    ) -> List[LossObservation]:
        """Observations for every ``stride``-th step in ``[start, end)``."""
        if stride < 1:
            raise ConfigurationError("stride must be >= 1")
        return [self.observe(step) for step in range(start_step, end_step, stride)]

    def stream(self, stride: int = 1) -> Iterator[LossObservation]:
        """An endless observation stream starting at step 0."""
        step = 0
        while True:
            yield self.observe(step)
            step += stride


def epoch_averaged(
    observations: Sequence[LossObservation], steps_per_epoch: float
) -> List[LossObservation]:
    """Average raw observations into one data point per epoch.

    §3.1 suggests averaging all losses in an epoch into a single point when
    jobs need hundreds of thousands of steps; the returned observations are
    stamped with the epoch's last step number.
    """
    if steps_per_epoch <= 0:
        raise ConfigurationError("steps_per_epoch must be positive")
    buckets: dict = {}
    for obs in observations:
        buckets.setdefault(int(obs.step // steps_per_epoch), []).append(obs)
    averaged = []
    for epoch in sorted(buckets):
        group = buckets[epoch]
        last_step = max(o.step for o in group)
        mean_loss = float(np.mean([o.loss for o in group]))
        averaged.append(LossObservation(step=last_step, loss=mean_loss))
    return averaged
