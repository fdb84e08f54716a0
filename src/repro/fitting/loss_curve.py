"""Online fitting of the convergence curve (§3.1, Eqn 1).

The paper models the normalised training loss at step ``k`` as::

    l(k) = 1 / (b0 * k + b1) + b2          b0, b1, b2 >= 0

and fits the coefficients with an NNLS solver. The model is nonlinear in
``b2``, but *for a fixed* ``b2`` the substitution ``y = 1 / (l - b2)`` makes
it linear: ``y = b0 * k + b1``, an NNLS problem in ``(b0, b1)``. We therefore
search over ``b2``, scoring candidates by the residual in the *original*
loss space, and solve NNLS at each candidate. A 24-point grid over
``[0, min(l))`` picks the best cell pair; Brent's bounded minimiser
(``fminbound``'s parabolic steps with a golden-section fallback) then
narrows it to the bracket width 40 golden-section steps would reach, in
about 18 candidates instead of 42. That NNLS has two variables, so
:class:`LineNNLS` solves it exactly by KKT case analysis, scoring the whole
coarse grid in one vectorized pass; only a degenerate design (every step
equal) falls back to the general Lawson–Hanson :func:`nnls`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import FittingError
from repro.fitting.nnls import LineNNLS, nnls
from repro.fitting.preprocess import preprocess_losses
from repro.obs.registry import active_registry

#: Residual buckets for the fit-quality histograms (normalised loss units).
RESIDUAL_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5)

#: Minimum number of points required before a fit is attempted.
MIN_POINTS = 4

#: Hard cap when scanning for the convergence epoch on a fitted curve.
MAX_PREDICT_EPOCHS = 100_000

#: Coarse-grid resolution of the ``b2`` search.
GRID_SIZE = 24

#: ``1 / phi``: the factor one golden-section step shrinks a bracket by.
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: ``1 - 1 / phi``: where a golden step lands inside the larger segment.
GOLDEN = 1.0 - INV_PHI


@dataclass(frozen=True)
class LossCurveFit:
    """A fitted Eqn-1 convergence curve (normalised loss units).

    ``residual`` is the root-mean-square error between the fitted curve and
    the (preprocessed, normalised) observations.
    """

    beta0: float
    beta1: float
    beta2: float
    residual: float
    num_points: int
    scale: float = 1.0

    def predict(self, step: float) -> float:
        """Predicted normalised loss at *step*."""
        if step < 0:
            raise FittingError("step must be non-negative")
        denom = self.beta0 * step + self.beta1
        if denom <= 0:
            raise FittingError("degenerate fit: b0*k + b1 must be positive")
        return 1.0 / denom + self.beta2

    def predict_raw(self, step: float) -> float:
        """Predicted loss in the job's raw (un-normalised) units."""
        return self.predict(step) * self.scale

    def predict_raw_many(self, steps: np.ndarray) -> np.ndarray:
        """:meth:`predict_raw` at every non-negative step of an array.

        The same floating-point operations as the scalar path, element by
        element; NaN where ``b0*k + b1 <= 0`` (where :meth:`predict` raises).
        """
        denom = self.beta0 * np.asarray(steps, dtype=float) + self.beta1
        valid = denom > 0
        if valid.all():
            return (1.0 / denom + self.beta2) * self.scale
        predicted = (1.0 / np.where(valid, denom, 1.0) + self.beta2) * self.scale
        return np.where(valid, predicted, np.nan)

    def epoch_decrease(self, epoch: int, steps_per_epoch: float) -> float:
        """Predicted loss decrease over epoch number *epoch*."""
        if epoch < 1:
            raise FittingError("epoch numbers start at 1")
        return self.predict((epoch - 1) * steps_per_epoch) - self.predict(
            epoch * steps_per_epoch
        )

    def epochs_to_converge(
        self, threshold: float, steps_per_epoch: float, patience: int = 2
    ) -> int:
        """Total epochs until the §2.1 stopping rule fires on the fitted curve.

        The fitted curve's per-epoch decrease is strictly decreasing in the
        epoch number, so we binary-search the first epoch whose decrease
        falls below *threshold* and add ``patience - 1`` confirmation epochs.
        """
        if threshold <= 0:
            raise FittingError("threshold must be positive")
        if steps_per_epoch <= 0:
            raise FittingError("steps_per_epoch must be positive")
        if patience < 1:
            raise FittingError("patience must be >= 1")
        if self.beta0 <= 0:
            # A flat fit never crosses the threshold from above: with no
            # decay at all, every epoch's decrease is 0 < threshold.
            return patience
        if self.epoch_decrease(1, steps_per_epoch) < threshold:
            return patience
        lo, hi = 1, 2
        while (
            self.epoch_decrease(hi, steps_per_epoch) >= threshold
            and hi < MAX_PREDICT_EPOCHS
        ):
            lo, hi = hi, hi * 2
        hi = min(hi, MAX_PREDICT_EPOCHS)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.epoch_decrease(mid, steps_per_epoch) < threshold:
                hi = mid
            else:
                lo = mid
        return hi + patience - 1

    def steps_to_converge(
        self, threshold: float, steps_per_epoch: float, patience: int = 2
    ) -> float:
        """Total steps (from step 0) until convergence on the fitted curve."""
        return (
            self.epochs_to_converge(threshold, steps_per_epoch, patience)
            * steps_per_epoch
        )

    def remaining_steps(
        self,
        current_step: float,
        threshold: float,
        steps_per_epoch: float,
        patience: int = 2,
    ) -> float:
        """Steps left from *current_step* until predicted convergence (>= 0)."""
        total = self.steps_to_converge(threshold, steps_per_epoch, patience)
        return max(total - current_step, 0.0)


def _nnls_for_beta2(
    steps: np.ndarray,
    losses: np.ndarray,
    beta2: float,
    line: Optional[LineNNLS],
    min_step: float,
    min_loss: float,
) -> Optional[Tuple[float, float, float]]:
    """NNLS solve of ``1/(l - b2) = b0*k + b1``; returns (b0, b1, rmse).

    *line* solves it exactly; without one (a degenerate design, every step
    equal) the general Lawson–Hanson solver does. Both admissibility
    checks run on scalars computed once per fit: rounding is monotone, so
    ``min(l - b2) == min(l) - b2`` and, with ``b0 >= 0``,
    ``min(b0*k + b1) == b0*min(k) + b1``.
    """
    if min_loss - beta2 <= 1e-9:
        return None
    # One scratch array: the targets 1 / (l - b2), then the residuals.
    y = losses - beta2
    np.divide(1.0, y, out=y)
    if line is not None:
        beta0, beta1 = line.solve(y)
    else:
        design = np.column_stack([steps, np.ones_like(steps)])
        try:
            (beta0, beta1), _ = nnls(design, y)
        except FittingError:
            return None
        beta0, beta1 = float(beta0), float(beta1)
    if beta0 * min_step + beta1 <= 1e-12:
        return None
    np.multiply(steps, beta0, out=y)
    y += beta1
    np.divide(1.0, y, out=y)
    y += beta2
    y -= losses
    np.square(y, out=y)
    return beta0, beta1, math.sqrt(y.sum() / losses.size)


def _nnls_for_grid(
    steps: np.ndarray,
    losses: np.ndarray,
    grid: np.ndarray,
    line: Optional[LineNNLS],
    min_step: float,
    min_loss: float,
) -> List[Optional[Tuple[float, float, float]]]:
    """:func:`_nnls_for_beta2` at every ``b2`` in *grid*.

    With a *line* every candidate is solved in one vectorized pass over a
    ``(grid, m)`` matrix.
    """
    if line is None:
        return [
            _nnls_for_beta2(steps, losses, b2, None, min_step, min_loss) for b2 in grid
        ]
    ok = min_loss - grid > 1e-9
    shifted = losses - grid[:, None]
    if not ok.all():
        shifted = np.where(ok[:, None], shifted, 1.0)
    beta0, beta1 = line.solve(1.0 / shifted)
    ok &= beta0 * min_step + beta1 > 1e-12
    denom = beta0[:, None] * steps + beta1[:, None]
    if not ok.all():
        denom = np.where(ok[:, None], denom, 1.0)
    error = 1.0 / denom + grid[:, None] - losses
    rmse = np.sqrt(np.square(error).sum(axis=1) / losses.size)
    return [
        (b0, b1, r) if admissible else None
        for b0, b1, r, admissible in zip(
            beta0.tolist(), beta1.tolist(), rmse.tolist(), ok.tolist()
        )
    ]


def _brent_bounded(
    f: Callable[[float], float], a: float, b: float, width: float, max_evals: int
) -> None:
    """Minimise *f* on ``[a, b]`` by Brent's method (``fminbound``'s steps).

    Each step fits a parabola through the three best points so far and
    takes its vertex when it lies inside the bracket and moves less than
    half the step before last; otherwise it takes a golden-section step
    into the larger segment. No step is shorter than ``width / 4``. The
    search stops once the bracket is no wider than *width* or after
    *max_evals* evaluations of *f*, whichever comes first; *f* records its
    own best point. An inadmissible point scores ``inf``, which makes the
    parabola ``nan`` and so forces a golden step.
    """
    tol1 = width / 4.0
    tol2 = 2.0 * tol1
    x = w = v = a + GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    evals = 1
    while b - a > width and evals < max_evals:
        xm = 0.5 * (a + b)
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if xm >= x else -tol1
        if golden:
            e = (a - x) if x >= xm else (b - x)
            d = GOLDEN * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d >= 0.0 else -tol1))
        fu = f(u)
        evals += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def fit_loss_curve(
    steps: Sequence[float],
    losses: Sequence[float],
    preprocess: bool = True,
    refine_iters: int = 40,
) -> LossCurveFit:
    """Fit Eqn 1 to raw ``(step, loss)`` observations.

    Parameters
    ----------
    steps, losses:
        Observation history (any order; raw loss units).
    preprocess:
        Run the §3.1 outlier-removal + normalisation pipeline first.
    refine_iters:
        Precision of the search around the best cell of the
        :data:`GRID_SIZE`-point coarse grid: it stops at the bracket width
        that many golden-section steps reach, and makes at most
        ``refine_iters + 2`` evaluations.

    Raises
    ------
    FittingError
        With fewer than :data:`MIN_POINTS` observations or when no
        admissible ``b2`` yields a solvable NNLS problem.
    """
    if len(steps) != len(losses):
        raise FittingError("steps and losses must have equal length")
    if len(steps) < MIN_POINTS:
        raise FittingError(
            f"need at least {MIN_POINTS} points to fit, got {len(steps)}"
        )
    if preprocess:
        k, vals, scale = preprocess_losses(steps, losses)
    else:
        k = np.asarray(steps, dtype=float)
        order = np.argsort(k)
        k = k[order]
        vals = np.asarray(losses, dtype=float)[order]
        scale = 1.0
    if not (vals > 0).all():  # also rejects NaN
        raise FittingError("losses must be positive")

    min_loss = float(vals.min())
    min_step = float(k.min())
    upper = min_loss * 0.999

    try:
        line: Optional[LineNNLS] = LineNNLS(k)
    except FittingError:
        line = None

    best: Optional[Tuple[float, float, float, float]] = None  # (rmse, b0, b1, b2)

    def record(beta2: float, result: Optional[Tuple[float, float, float]]) -> float:
        nonlocal best
        if result is None:
            return math.inf
        beta0, beta1, rmse = result
        if best is None or rmse < best[0]:
            best = (rmse, beta0, beta1, float(beta2))
        return rmse

    def consider(beta2: float) -> float:
        return record(beta2, _nnls_for_beta2(k, vals, beta2, line, min_step, min_loss))

    grid = np.linspace(0.0, upper, GRID_SIZE)
    scores = [
        record(b2, result)
        for b2, result in zip(grid, _nnls_for_grid(k, vals, grid, line, min_step, min_loss))
    ]

    # Brent's bounded search of the best coarse cell pair, down to the
    # bracket width a golden-section search of refine_iters steps ends at.
    best_idx = min(range(GRID_SIZE), key=scores.__getitem__)
    lo = float(grid[max(best_idx - 1, 0)])
    hi = float(grid[min(best_idx + 1, GRID_SIZE - 1)])
    if hi > lo:
        _brent_bounded(consider, lo, hi, (hi - lo) * INV_PHI**refine_iters, refine_iters + 2)

    if best is None:
        metrics = active_registry()
        metrics.counter("est.loss_fit_failures").inc()
        raise FittingError("could not fit the loss curve to the data")
    rmse, beta0, beta1, beta2 = best
    metrics = active_registry()
    metrics.counter("est.loss_fits").inc()
    metrics.histogram("est.loss_fit_residual", RESIDUAL_BUCKETS).observe(rmse)
    return LossCurveFit(
        beta0=beta0,
        beta1=beta1,
        beta2=beta2,
        residual=rmse,
        num_points=len(k),
        scale=scale,
    )
