"""Online convergence estimation for one running job (§3.1).

A :class:`ConvergenceEstimator` accumulates ``(step, loss)`` observations as
the job trains, refits the Eqn-1 curve on demand (through
:func:`repro.fitting.fit_loss_curve`, which applies the §3.1 preprocessing),
and answers the scheduler's question: *how many more steps does this job
need before the §2.1 stopping rule fires?*

Its predictions are recorded, and scored against the truth, by the
engine's estimator telemetry (:mod:`repro.obs.estimators`).
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

from repro.common.errors import FittingError
from repro.fitting.loss_curve import MIN_POINTS, LossCurveFit, fit_loss_curve
from repro.fitting.preprocess import subsample

#: Observation histories longer than this are thinned before fitting
#: (§3.1's sampling advice), bounding solver cost.
MAX_FIT_POINTS = 400
#: Precision of the estimator's ``b2`` search: Brent stops at the bracket
#: width this many golden-section steps reach (``fit_loss_curve`` defaults
#: to 40). The fit only has to place the convergence epoch: on the 559
#: fits of ``online-fleet`` seeds 0-2, 20 steps moved no predicted epoch
#: count, at about half the candidate solves (docs/algorithms.md, §3.1).
REFINE_ITERS = 20
#: Refit at most once per this many newly added observations; between
#: refits the cached fit is reused.
REFIT_EVERY = 10
#: Once :data:`REFIT_EVERY` points have arrived, refit only on evidence: a
#: new point lying further than this (relative) from the current fit's
#: ``predict_raw`` counts as out of band, and a refit runs when at least
#: half of the points added since the last fit are out of band ...
LOSS_REFIT_BAND = 0.05
#: ... or when the history has grown by this fraction of the points the
#: last fit saw, so a fit that stays in band is still refreshed as the
#: job's history accumulates.
REFIT_GROWTH = 0.5
#: With ``reset_on_drop``, a loss below this fraction of the fitted curve
#: counts toward a learning-rate drop ...
DROP_RATIO = 0.85
#: ... and this many consecutive such observations restart the fitting.
DROP_PATIENCE = 5


class ConvergenceEstimator:
    """Tracks one job's loss history and predicts steps to convergence.

    Parameters
    ----------
    threshold:
        The job owner's convergence threshold (normalised per-epoch loss
        decrease, §2.1).
    steps_per_epoch:
        Conversion between steps and epochs for this job.
    patience:
        Consecutive below-threshold epochs required.
    reset_on_drop:
        Restart the fitting after a learning-rate drop (see
        :data:`DROP_RATIO` and :data:`DROP_PATIENCE`).
    """

    def __init__(
        self,
        threshold: float,
        steps_per_epoch: float,
        patience: int = 2,
        reset_on_drop: bool = False,
    ):
        if threshold <= 0:
            raise FittingError("threshold must be positive")
        if steps_per_epoch <= 0:
            raise FittingError("steps_per_epoch must be positive")
        self.threshold = float(threshold)
        self.steps_per_epoch = float(steps_per_epoch)
        self.patience = int(patience)
        #: §7 "Convergence estimation": when a learning-rate cut makes the
        #: observed losses fall persistently below the fitted curve, treat
        #: the rest of training as a new job and restart the fitting.
        self.reset_on_drop = bool(reset_on_drop)

        #: The ``(step, loss)`` history as raw float64 buffers: 16 bytes an
        #: observation, where two lists of Python floats would take 64.
        self._steps = array("d")
        self._losses = array("d")
        self._fit: Optional[LossCurveFit] = None
        self._points_since_fit = 0
        #: How many of those points lie outside the fit's LOSS_REFIT_BAND.
        self._out_of_band = 0
        #: History length when the current fit was made.
        self._fit_history = 0
        self._below_fit_streak = 0
        self.reset_count = 0
        #: Step number where the current training phase began: after a
        #: learning-rate drop the post-drop phase is fitted as a fresh job
        #: (its own k = 0), exactly as §7 prescribes.
        self._step_offset = 0.0

    # -- data collection ----------------------------------------------------------
    def add_observation(self, step: float, loss: float) -> None:
        """Record one raw loss observation (see :meth:`add_observations`)."""
        self.add_observations([step], [loss])

    def add_observations(self, steps, losses) -> None:
        """Record raw loss observations, given as two equal-length arrays.

        Each point is compared with the current fit's prediction, counting
        it toward the out-of-band evidence :meth:`fit` refits on. With
        ``reset_on_drop`` enabled, observations persistently far below the
        fitted curve signal a learning-rate cut; the pre-drop history is
        then discarded and fitting restarts on the new training phase (§7).
        A step or loss that is not finite, or a loss that is not positive,
        raises :class:`FittingError` before anything is recorded.
        """
        steps = np.asarray(steps, dtype=float).ravel()
        losses = np.asarray(losses, dtype=float).ravel()
        if steps.shape != losses.shape:
            raise FittingError("steps and losses must have equal length")
        if not (np.isfinite(steps).all() and np.isfinite(losses).all()):
            raise FittingError("loss observations must be finite")
        if not (losses > 0).all():
            raise FittingError("loss observations must be positive")
        cut: Optional[int] = None  # where a learning-rate drop restarts the fit
        if self._fit is not None:
            predicted = self._fit.predict_raw_many(
                np.maximum(steps - self._step_offset, 0.0)
            )
            if self.reset_on_drop:
                cut = self._drop_cut(
                    losses < DROP_RATIO * predicted, ~np.isnan(predicted)
                )
            # Negated, so that a point the fit cannot predict (NaN) counts
            # as out of band too.
            inside = np.abs(losses[:cut] - predicted[:cut]) <= (
                LOSS_REFIT_BAND * predicted[:cut]
            )
            self._out_of_band += inside.size - int(np.count_nonzero(inside))
        self._record(steps[:cut], losses[:cut])
        if cut is not None:
            self._restart_from_drop()
            self._record(steps[cut:], losses[cut:])

    def _record(self, steps: np.ndarray, losses: np.ndarray) -> None:
        # The float64 values append as raw bytes, never as Python floats.
        self._steps.frombytes(steps.tobytes())
        self._losses.frombytes(losses.tobytes())
        self._points_since_fit += steps.size

    def _drop_cut(self, below: np.ndarray, valid: np.ndarray) -> Optional[int]:
        """Update the below-fit streak; the length of the pre-restart prefix.

        Returns the index just past the observation that completes a
        :data:`DROP_PATIENCE` streak, or ``None`` when none does.
        """
        for i, (is_below, ok) in enumerate(zip(below.tolist(), valid.tolist())):
            if not ok:
                continue
            if is_below:
                self._below_fit_streak += 1
                if self._below_fit_streak >= DROP_PATIENCE:
                    return i + 1
            else:
                self._below_fit_streak = 0
        return None

    def _restart_from_drop(self) -> None:
        """Discard pre-drop history; keep only the streak's observations."""
        keep = DROP_PATIENCE
        self._steps = self._steps[-keep:]
        self._losses = self._losses[-keep:]
        self._step_offset = min(self._steps)
        self._fit = None
        self._points_since_fit = len(self._steps)
        self._below_fit_streak = 0
        self.reset_count += 1

    @property
    def observation_count(self) -> int:
        return len(self._steps)

    @property
    def latest_step(self) -> float:
        return self._steps[-1] if self._steps else 0.0

    # -- fitting ----------------------------------------------------------------
    @property
    def can_fit(self) -> bool:
        return len(self._steps) >= MIN_POINTS

    def _refit_due(self) -> bool:
        """Do the points added since the last fit call for a new one?"""
        if self._fit is None:
            return True
        new = self._points_since_fit
        if new < REFIT_EVERY:
            return False
        return 2 * self._out_of_band >= new or new >= REFIT_GROWTH * self._fit_history

    def fit(self, force: bool = False) -> LossCurveFit:
        """The current Eqn-1 fit, refreshing it when new data calls for it.

        A refit runs on ``force``, after a ``reset_on_drop`` restart, or
        once :data:`REFIT_EVERY` new points have arrived and either half of
        them left the fit's :data:`LOSS_REFIT_BAND` or the history grew by
        :data:`REFIT_GROWTH`; otherwise the cached fit is reused.
        """
        if not self.can_fit:
            raise FittingError(
                f"need {MIN_POINTS} observations before fitting, "
                f"have {len(self._steps)}"
            )
        if force or self._refit_due():
            steps, losses = subsample(
                self._steps, self._losses, max_points=MAX_FIT_POINTS
            )
            # The current phase is fitted in its own step frame (k = 0 at
            # the phase start); callers translate back via _step_offset.
            # subsample returns copies, so no view pins the buffers past
            # this call (an append to a pinned array raises BufferError).
            self._fit = fit_loss_curve(
                steps - self._step_offset, losses, refine_iters=REFINE_ITERS
            )
            self._points_since_fit = 0
            self._out_of_band = 0
            self._fit_history = len(self._steps)
        assert self._fit is not None
        return self._fit

    # -- predictions ----------------------------------------------------------------
    def predicted_total_steps(self) -> float:
        """Predicted steps (from step 0) until convergence.

        After a learning-rate reset the fit lives in the post-drop frame;
        the phase offset is added back so callers keep absolute steps.
        """
        fit = self.fit()
        return self._step_offset + fit.steps_to_converge(
            self.threshold, self.steps_per_epoch, self.patience
        )

    def remaining_steps(self, current_step: Optional[float] = None) -> float:
        """Predicted steps left from *current_step* (default: latest seen)."""
        if current_step is None:
            current_step = self.latest_step
        return max(self.predicted_total_steps() - float(current_step), 0.0)

    def marginal_efficiency(self, current_step: Optional[float] = None) -> float:
        """Predicted worth of the job's *next* step, in (0, 1].

        The Eqn-1 curve ``l(k) = 1/(b0*k + b1) + b2`` has marginal loss
        decrease ``|l'(k)| = b0/(b0*k + b1)^2``; dividing by the phase-start
        value ``|l'(0)|`` gives ``(b1/(b0*k + b1))^2`` -- 1.0 at the start
        of the current training phase, decaying as the job converges. This
        is the loss-curve half of a Pollux-style statistical-efficiency
        term (:meth:`repro.schedulers.base.JobView.statistical_efficiency`
        adds the asynchrony discount). Returns 1.0 when no reliable fit is
        available yet, so young jobs are never penalised by missing data.
        """
        if not self.can_fit:
            return 1.0
        try:
            fit = self.fit()
        except FittingError:
            return 1.0
        if current_step is None:
            current_step = self.latest_step
        k = max(float(current_step) - self._step_offset, 0.0)
        denom = fit.beta0 * k + fit.beta1
        if fit.beta0 <= 0 or fit.beta1 <= 0 or denom <= 0:
            return 1.0
        ratio = fit.beta1 / denom
        return min(max(ratio * ratio, 0.0), 1.0)
