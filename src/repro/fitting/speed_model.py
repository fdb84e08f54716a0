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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import FittingError
from repro.fitting.nnls import nnls
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


def fit_speed_model(
    samples: Sequence[SpeedSample],
    mode: str,
    global_batch: Optional[float] = None,
    passive: Optional[np.ndarray] = None,
) -> SpeedModelFit:
    """Fit a speed function from ``(p, w, speed)`` profiling samples.

    Parameters
    ----------
    samples:
        Measurements collected from short sample runs (§3.2) and online
        observation during training.
    mode:
        ``"sync"`` or ``"async"``.
    global_batch:
        Required for synchronous fits (the ``M`` of Eqn 4).
    passive:
        Optional support hint for the θ solve, passed to :func:`nnls`: a
        refit passes ``θ > 0`` of the previous fit.
    """
    validate_mode(mode)
    if mode == MODE_SYNC:
        if global_batch is None or global_batch <= 0:
            raise FittingError("synchronous fits need a positive global_batch")
    else:
        global_batch = 0.0
    required = MIN_SAMPLES[mode]
    if len(samples) < required:
        raise FittingError(
            f"{mode} speed fit needs >= {required} samples, got {len(samples)}"
        )
    rows, targets = [], []
    for p, w, speed in samples:
        if p < 1 or w < 1:
            raise FittingError(f"invalid sample configuration (p={p}, w={w})")
        if speed <= 0 or not np.isfinite(speed):
            raise FittingError(f"invalid measured speed {speed!r}")
        rows.append(_design_row(mode, float(p), float(w), float(global_batch)))
        # Transform speed to the linear target: seconds per step.
        targets.append(w / speed if mode == MODE_ASYNC else 1.0 / speed)

    coeffs, _ = nnls(np.asarray(rows), np.asarray(targets), passive=passive)
    fit = SpeedModelFit(
        mode=mode,
        thetas=tuple(float(c) for c in coeffs),
        residual=0.0,
        num_samples=len(samples),
        global_batch=float(global_batch),
    )
    # Residual sum of squares in speed space, as Table 2 reports.
    rss = 0.0
    for p, w, speed in samples:
        rss += (fit.predict(p, w) - speed) ** 2
    metrics = active_registry()
    metrics.counter("est.speed_fits").inc()
    metrics.histogram("est.speed_fit_rss", RSS_BUCKETS).observe(rss)
    return SpeedModelFit(
        mode=mode,
        thetas=fit.thetas,
        residual=float(rss),
        num_samples=len(samples),
        global_batch=float(global_batch),
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
