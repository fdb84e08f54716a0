"""Fitting the resource→speed functions (§3.2, Eqn 3 and Eqn 4).

Both speed functions are linear in their θ coefficients once the target is
transformed, so plain NNLS applies -- no nonlinear optimiser needed:

* **Asynchronous** (Eqn 3)::

      f(p, w) = w * (θ0 + θ1 * w/p + θ2 * w + θ3 * p)^-1

  With ``g = w / f`` (seconds per step) this is ``g = θ0 + θ1*(w/p) +
  θ2*w + θ3*p``, a 4-term NNLS problem.

* **Synchronous** (Eqn 4)::

      f(p, w) = (θ0 * M/w + θ1 + θ2 * w/p + θ3 * w + θ4 * p)^-1

  With ``g = 1 / f`` this is a 5-term NNLS problem (``M`` is the fixed
  global batch size).

The θ coefficients correspond term-by-term to Eqn 2: θ0 ≈ forward
propagation, θ1 (sync) ≈ backward propagation, the ``w/p`` coefficient ≈
data transfer, and the ``w``/``p`` coefficients ≈ connection overhead.

The θ problem has at most five columns, so it is solved on its normal
equations (``AᵀA``, ``Aᵀb``; :class:`~repro.fitting.nnls.NormalEquations`).
A :class:`SpeedSamples` window keeps them as running sums, so an online
refit costs a ≤5×5 Lawson–Hanson solve, not a pass over the samples.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import FittingError
from repro.fitting.nnls import NormalEquations, nnls
from repro.obs.registry import active_registry
from repro.workloads.speed import MODE_ASYNC, MODE_SYNC, validate_mode

#: Buckets for the per-fit RSS histogram (speed-space squared error).
RSS_BUCKETS = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)

#: One profiling measurement: (num_ps, num_workers, measured speed).
SpeedSample = Tuple[int, int, float]

#: Minimum sample count per mode (must be >= number of coefficients).
MIN_SAMPLES = {MODE_ASYNC: 4, MODE_SYNC: 5}


def _design_row(mode: str, p: float, w: float, global_batch: float) -> List[float]:
    if mode == MODE_ASYNC:
        return [1.0, w / p, w, p]
    return [global_batch / w, 1.0, w / p, w, p]


@dataclass(frozen=True)
class SpeedModelFit:
    """A fitted Eqn-3/Eqn-4 speed function.

    ``thetas`` holds (θ0..θ3) for async or (θ0..θ4) for sync. ``residual``
    is the residual sum of squares in speed space over the fitting samples
    (the quantity Table 2 reports).
    """

    mode: str
    thetas: Tuple[float, ...]
    residual: float
    num_samples: int
    global_batch: float = 0.0

    def step_seconds(self, p: int, w: int) -> float:
        """Predicted seconds per step (the bracketed term of Eqn 3/4).

        Plain floats, summed left to right in the term order of
        :func:`_design_row`.
        """
        if p < 1 or w < 1:
            raise FittingError("p and w must be >= 1")
        th = self.thetas
        if self.mode == MODE_ASYNC:
            value = th[0] + th[1] * (w / p) + th[2] * w + th[3] * p
        else:
            value = (
                th[0] * (self.global_batch / w)
                + th[1]
                + th[2] * (w / p)
                + th[3] * w
                + th[4] * p
            )
        if value <= 0:
            raise FittingError("degenerate speed fit (non-positive step time)")
        return value

    def predict(self, p: int, w: int) -> float:
        """Predicted training speed in steps/second."""
        seconds = self.step_seconds(p, w)
        if self.mode == MODE_ASYNC:
            return w / seconds
        return 1.0 / seconds


class SpeedSamples:
    """A window of ``(p, w, speed)`` samples and its Eqn-3/4 normal equations.

    Every added sample updates the normal equations of the linear θ problem
    (see the module docstring) as running sums; past ``max_samples`` the
    oldest sample is dropped and subtracted again. Per configuration the
    window also sums the speeds and their squares, which gives the
    speed-space residual of a fit from one prediction per configuration.
    """

    def __init__(
        self,
        mode: str,
        global_batch: Optional[float] = None,
        max_samples: Optional[int] = None,
    ):
        validate_mode(mode)
        if mode == MODE_SYNC:
            if global_batch is None or global_batch <= 0:
                raise FittingError("synchronous fits need a positive global_batch")
            global_batch = float(global_batch)
        else:
            global_batch = 0.0
        self.mode = mode
        self.global_batch = global_batch
        self.max_samples = max_samples
        self.normal = NormalEquations(MIN_SAMPLES[mode])
        self._samples: Deque[SpeedSample] = deque()
        #: (p, w) -> [samples, sum of speeds, sum of squared speeds]
        self._configs: Dict[Tuple[int, int], List[float]] = {}

    def _row(self, p: int, w: int, speed: float) -> Tuple[List[float], float]:
        # The linear target is seconds per step.
        target = w / speed if self.mode == MODE_ASYNC else 1.0 / speed
        return _design_row(self.mode, float(p), float(w), self.global_batch), target

    def add(self, p: int, w: int, speed: float) -> None:
        """Add one measured speed; raises :class:`FittingError` when invalid."""
        if p < 1 or w < 1:
            raise FittingError(f"invalid sample configuration (p={p}, w={w})")
        if not (speed > 0 and math.isfinite(speed)):
            raise FittingError(f"invalid measured speed {speed!r}")
        sample = (int(p), int(w), float(speed))
        p, w, speed = sample
        self.normal.add(*self._row(p, w, speed))
        stats = self._configs.get((p, w))
        if stats is None:
            self._configs[(p, w)] = [1, speed, speed * speed]
        else:
            stats[0] += 1
            stats[1] += speed
            stats[2] += speed * speed
        self._samples.append(sample)
        if self.max_samples is not None and len(self._samples) > self.max_samples:
            self._drop_oldest()

    def _drop_oldest(self) -> None:
        p, w, speed = self._samples.popleft()
        self.normal.remove(*self._row(p, w, speed))
        stats = self._configs[(p, w)]
        if stats[0] == 1:
            del self._configs[(p, w)]
        else:
            stats[0] -= 1
            stats[1] -= speed
            stats[2] -= speed * speed

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[SpeedSample]:
        return iter(self._samples)

    @property
    def configs(self):
        """The distinct ``(p, w)`` configurations in the window."""
        return self._configs.keys()

    def speed_rss(self, fit: SpeedModelFit) -> float:
        """``sum((fit.predict(p, w) - speed)^2)`` over the window's samples."""
        rss = 0.0
        for (p, w), (count, total, squares) in self._configs.items():
            f = fit.predict(p, w)
            rss += squares - f * (2.0 * total - count * f)
        return max(rss, 0.0)


def fit_speed_model(
    samples: Union[Sequence[SpeedSample], SpeedSamples],
    mode: str,
    global_batch: Optional[float] = None,
    passive: Optional[np.ndarray] = None,
) -> SpeedModelFit:
    """Fit a speed function from ``(p, w, speed)`` profiling samples.

    Parameters
    ----------
    samples:
        Measurements collected from short sample runs (§3.2) and online
        observation during training: a sequence, or a :class:`SpeedSamples`
        window whose running normal equations are solved as they stand.
    mode:
        ``"sync"`` or ``"async"``.
    global_batch:
        Required for synchronous fits (the ``M`` of Eqn 4).
    passive:
        Optional support hint for the θ solve, passed to :func:`nnls`: a
        refit passes ``θ > 0`` of the previous fit.
    """
    if isinstance(samples, SpeedSamples):
        window = samples
        if window.mode != mode:
            raise FittingError(f"a {window.mode} window cannot fit a {mode} model")
    else:
        window = SpeedSamples(mode, global_batch)
        for p, w, speed in samples:
            window.add(p, w, speed)
    required = MIN_SAMPLES[mode]
    if len(window) < required:
        raise FittingError(
            f"{mode} speed fit needs >= {required} samples, got {len(window)}"
        )
    coeffs, _ = nnls(window.normal, passive=passive)
    fit = SpeedModelFit(
        mode=mode,
        thetas=tuple(coeffs.tolist()),
        residual=0.0,
        num_samples=len(window),
        global_batch=window.global_batch,
    )
    # Residual sum of squares in speed space, as Table 2 reports.
    rss = window.speed_rss(fit)
    metrics = active_registry()
    metrics.counter("est.speed_fits").inc()
    metrics.histogram("est.speed_fit_rss", RSS_BUCKETS).observe(rss)
    return SpeedModelFit(
        mode=mode,
        thetas=fit.thetas,
        residual=rss,
        num_samples=len(window),
        global_batch=window.global_batch,
    )


def sample_configurations(
    max_ps: int,
    max_workers: int,
    num_samples: int,
    seed=None,
) -> List[Tuple[int, int]]:
    """Pick ``(p, w)`` pairs for the initial profiling runs (§3.2).

    The paper pre-runs each job under a handful of configurations (5 by
    default in §6.1) out of the full grid. We spread the picks across the
    grid deterministically-under-seed: always include the corners
    ``(1, 1)`` and ``(max_ps, max_workers)``, then fill with random distinct
    grid points.
    """
    from repro.common.rand import spawn_rng

    if max_ps < 1 or max_workers < 1:
        raise FittingError("grid bounds must be >= 1")
    total = max_ps * max_workers
    if num_samples < 2:
        raise FittingError("need at least 2 sample configurations")
    num_samples = min(num_samples, total)
    rng = spawn_rng(seed, "speed-samples")
    picked = {(1, 1), (max_ps, max_workers)}
    while len(picked) < num_samples:
        p = int(rng.integers(1, max_ps + 1))
        w = int(rng.integers(1, max_workers + 1))
        picked.add((p, w))
    return sorted(picked)
