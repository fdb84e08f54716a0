"""Loss-data preprocessing exactly as described in §3.1.

Two passes before any model fitting:

1. **Outlier removal** -- a data point is an outlier when it does not fall
   within the range spanned by its neighbourhood: between the minimum loss of
   the subsequent ``window`` points and the maximum loss of the previous
   ``window`` points (the paper uses a 5-epoch window). Outliers are replaced
   by the average of their neighbours.
2. **Normalisation** -- divide every raw value by the maximum loss collected
   so far (typically the first value), mapping all jobs' losses into
   ``(0, 1]`` so one fitting configuration works across jobs.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.common.errors import FittingError


def remove_outliers(
    values: Sequence[float], window: int = 5, margin: float = 0.05
) -> np.ndarray:
    """Replace neighbourhood-range violations by the neighbourhood mean.

    The previous-window maximum and next-window minimum of every point are
    computed at once, by up to ``window`` in-place max/min passes over shifted
    slices starting from -inf / +inf, and only the flagged points pay a
    Python step. Each replacement is the mean of
    the *original* neighbours, so one outlier never shifts the range of the
    next. For finite values the result equals the per-point loop over
    ``max(values[i - window:i])`` and ``min(values[i + 1:i + 1 + window])``.

    Parameters
    ----------
    values:
        Raw loss values in collection order.
    window:
        Neighbourhood half-width (the paper's "5 epochs").
    margin:
        Relative slack on the admissible range, so ordinary mini-batch noise
        at the range boundary is not flagged.

    Returns
    -------
    A new float array of the cleaned values.
    """
    if window < 1:
        raise FittingError("window must be >= 1")
    if margin < 0:
        raise FittingError("margin must be non-negative")
    arr = np.array(values, dtype=float)
    n = arr.size
    if n <= 2:
        return arr

    span = min(window, n)  # a wider window sees the same neighbours
    # prev_max[i] = max(arr[i - span:i]); next_min[i] = min(arr[i + 1:i + 1 + span]).
    prev_max = np.full(n, -np.inf)
    next_min = np.full(n, np.inf)
    for shift in range(1, span + 1):
        np.maximum(prev_max[shift:], arr[:-shift], out=prev_max[shift:])
        np.minimum(next_min[:-shift], arr[shift:], out=next_min[:-shift])
    flagged = (arr > prev_max * (1.0 + margin)) | (arr < next_min * (1.0 - margin))
    cleaned = arr.copy()
    for i in np.flatnonzero(flagged[1:-1]) + 1:  # boundary points keep their value
        neighbours = np.concatenate((arr[max(0, i - window) : i], arr[i + 1 : i + 1 + window]))
        cleaned[i] = neighbours.mean()
    return cleaned


def normalize(values: Sequence[float]) -> Tuple[np.ndarray, float]:
    """Divide by the maximum loss collected so far.

    Returns the normalised values (a new float array) and the scale used,
    so predictions can be mapped back to raw units.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise FittingError("cannot normalise an empty sequence")
    scale = float(arr.max())
    if scale <= 0:
        raise FittingError("losses must contain a positive value")
    return arr / scale, scale


def preprocess_losses(
    steps: Sequence[float],
    losses: Sequence[float],
    window: int = 5,
    margin: float = 0.05,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Full §3.1 pipeline: outlier removal then normalisation.

    Returns ``(steps, normalised_losses, scale)`` as arrays sorted by step.
    """
    if len(steps) != len(losses):
        raise FittingError("steps and losses must have equal length")
    if len(steps) == 0:
        raise FittingError("no data points")
    step_array = np.asarray(steps, dtype=float)
    order = np.argsort(step_array)
    cleaned = remove_outliers(np.asarray(losses, dtype=float)[order], window=window, margin=margin)
    normalised, scale = normalize(cleaned)
    return step_array[order], normalised, scale


def subsample(
    steps: Sequence[float], losses: Sequence[float], max_points: int = 500
) -> Tuple[np.ndarray, np.ndarray]:
    """Thin a long observation history to at most *max_points* points.

    §3.1: "in such a case we can sample loss data every few steps ... to
    reduce the number of data points fed into the solver". Keeps the first
    and last points and a uniform stride in between. Returns new float64
    arrays, never views of the inputs.
    """
    if max_points < 2:
        raise FittingError("max_points must be >= 2")
    step_array = np.asarray(steps, dtype=float)
    loss_array = np.asarray(losses, dtype=float)
    n = step_array.size
    if n != loss_array.size:
        raise FittingError("steps and losses must have equal length")
    if n <= max_points:
        return step_array.copy(), loss_array.copy()
    idx = np.unique(np.linspace(0, n - 1, max_points).round().astype(int))
    return step_array[idx], loss_array[idx]
