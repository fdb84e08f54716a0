"""Prediction-quality telemetry for the §3 online estimators.

Optimus's scheduling loop stands on two online models: the resource→speed
function ``f(p, w)`` (§3.2, Eqn 3/4) and the loss-curve fit that yields
remaining steps to convergence (§3.1). Every allocation is only as good as
those predictions -- yet a drifting estimator is invisible from decision
logs alone, because the scheduler happily keeps acting on wrong numbers.
This module makes *prediction error* a first-class, exportable signal:

* :class:`EstimatorTelemetry` pairs each interval's **prediction** with
  the **observed** value one interval later (speed) or at completion
  (total steps, Fig.-6 style), maintaining per-job and fleet-wide MAPE
  (mean absolute percentage error) and signed bias;
* every resolved pair is emitted as an ``estimator_sample`` trace event,
  so MAPE can be recomputed offline from a trace file alone
  (:func:`repro.obs.fold.fold_trace`, read by ``repro trace`` and
  ``repro top``);
* a windowed **drift detector** watches the recent absolute errors per
  job and signal; when the windowed mean exceeds the configured band it
  emits an ``estimator_drift`` trace event and bumps the
  ``est.refit_suggested`` counter -- the cue that the online model is
  persistently wrong (hardware changed, interference appeared, a
  learning-rate drop broke the curve) and needs a refit or attention.

Signals are named by the :data:`SIGNAL_SPEED` / :data:`SIGNAL_REMAINING`
constants; per-fleet gauges land in the attached registry as
``est.speed_mape``, ``est.speed_bias``, ``est.remaining_mape``, ...
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracer import (
    EVENT_ESTIMATOR_DRIFT,
    EVENT_ESTIMATOR_SAMPLE,
    NULL_TRACER,
    Tracer,
)

#: The resource→speed prediction (Eqn 3/4): resolved every interval
#: against the speed the job actually achieved.
SIGNAL_SPEED = "speed"
#: The loss-curve prediction of *total* steps to convergence (§3.1):
#: every interval's prediction is resolved at completion against the true
#: total, exactly the Fig.-6 error-vs-progress analysis.
SIGNAL_REMAINING = "remaining"

SIGNALS = (SIGNAL_SPEED, SIGNAL_REMAINING)


class SignalStats:
    """Running error statistics for one (signal, job) or fleet stream."""

    __slots__ = ("count", "abs_error_sum", "signed_error_sum")

    def __init__(self) -> None:
        self.count = 0
        self.abs_error_sum = 0.0
        self.signed_error_sum = 0.0

    def add(self, error: float) -> None:
        self.count += 1
        self.abs_error_sum += abs(error)
        self.signed_error_sum += error

    @property
    def mape(self) -> float:
        """Mean absolute percentage error (as a fraction, not percent)."""
        return self.abs_error_sum / self.count if self.count else 0.0

    @property
    def bias(self) -> float:
        """Mean signed relative error: positive = systematic over-prediction."""
        return self.signed_error_sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {"count": self.count, "mape": self.mape, "bias": self.bias}


class EstimatorTelemetry:
    """Predicted-vs-actual tracking with windowed drift detection.

    Parameters
    ----------
    tracer, metrics:
        The ``repro.obs`` sinks; both default to the shared null
        implementations, making an unattached telemetry object free.
    drift_window:
        Number of recent resolutions per (signal, job) the drift detector
        averages over.
    drift_threshold:
        Windowed MAPE band (fraction): a full window whose mean absolute
        error exceeds this fires one ``estimator_drift`` event, then the
        window restarts (a persistent drift re-fires every *window*
        resolutions, not every sample).
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        drift_window: int = 6,
        drift_threshold: float = 0.5,
    ):
        if drift_window < 2:
            raise ConfigurationError("drift_window must be >= 2")
        if drift_threshold <= 0:
            raise ConfigurationError("drift_threshold must be positive")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.drift_window = int(drift_window)
        self.drift_threshold = float(drift_threshold)
        #: One pending speed prediction per job (the decision just made).
        self._pending_speed: Dict[str, float] = {}
        #: Every unresolved total-steps prediction per job, in order.
        self._pending_totals: Dict[str, List[float]] = {}
        self._job_stats: Dict[Tuple[str, str], SignalStats] = {}
        self._fleet_stats: Dict[str, SignalStats] = {
            signal: SignalStats() for signal in SIGNALS
        }
        self._windows: Dict[Tuple[str, str], Deque[float]] = {}
        self.drift_events = 0

    # -- recording predictions ------------------------------------------------
    def record_speed_prediction(self, job_id: str, predicted: float) -> None:
        """Note the speed the model promised for the interval starting now.

        An unresolved previous prediction (the job was descheduled before
        running) is overwritten: only run intervals produce samples.
        """
        if predicted > 0:
            self._pending_speed[job_id] = float(predicted)

    def record_total_prediction(self, job_id: str, predicted_total: float) -> None:
        """Note this interval's predicted total steps to convergence."""
        if predicted_total > 0:
            self._pending_totals.setdefault(job_id, []).append(
                float(predicted_total)
            )

    # -- resolving against reality --------------------------------------------
    def resolve_speed(
        self, job_id: str, actual: float, time: float
    ) -> Optional[float]:
        """Pair the pending speed prediction with the achieved speed.

        Returns the signed relative error, or ``None`` when there was no
        pending prediction (or the observation is unusable).
        """
        predicted = self._pending_speed.pop(job_id, None)
        if predicted is None or actual <= 0:
            return None
        return self._resolve(SIGNAL_SPEED, job_id, predicted, actual, time)

    def resolve_totals(
        self, job_id: str, actual_total: float, time: float
    ) -> int:
        """Resolve every recorded total-steps prediction at completion.

        Returns the number of predictions resolved. This is the Fig.-6
        replay: each prediction the estimator made over the job's lifetime
        is scored against the total the job actually needed.
        """
        predictions = self._pending_totals.pop(job_id, [])
        if actual_total <= 0:
            return 0
        for predicted in predictions:
            self._resolve(SIGNAL_REMAINING, job_id, predicted, actual_total, time)
        return len(predictions)

    def discard_job(self, job_id: str) -> None:
        """Forget a finished job's pending predictions and drift windows.

        Nothing resolves against the job again, so only its per-job
        :class:`SignalStats` stay (for :meth:`job_stats` and
        :meth:`snapshot`).
        """
        self._pending_speed.pop(job_id, None)
        self._pending_totals.pop(job_id, None)
        for signal in SIGNALS:
            self._windows.pop((signal, job_id), None)

    def _resolve(
        self, signal: str, job_id: str, predicted: float, actual: float, time: float
    ) -> float:
        error = (predicted - actual) / actual
        key = (signal, job_id)
        stats = self._job_stats.get(key)
        if stats is None:
            stats = self._job_stats[key] = SignalStats()
        stats.add(error)
        fleet = self._fleet_stats[signal]
        fleet.add(error)
        metrics = self.metrics
        metrics.counter(f"est.{signal}_samples").inc()
        metrics.gauge(f"est.{signal}_mape").set(fleet.mape)
        metrics.gauge(f"est.{signal}_bias").set(fleet.bias)
        if self.tracer:
            self.tracer.emit(
                EVENT_ESTIMATOR_SAMPLE,
                time,
                job_id=job_id,
                signal=signal,
                predicted=predicted,
                actual=actual,
                error=error,
            )
        self._check_drift(signal, job_id, error, time)
        return error

    # -- drift detection -------------------------------------------------------
    def _check_drift(
        self, signal: str, job_id: str, error: float, time: float
    ) -> None:
        key = (signal, job_id)
        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = deque(maxlen=self.drift_window)
        window.append(abs(error))
        if len(window) < self.drift_window:
            return
        window_mape = sum(window) / len(window)
        if window_mape <= self.drift_threshold:
            return
        window.clear()  # restart: one event per full drifting window
        self.drift_events += 1
        self.metrics.counter("est.refit_suggested").inc()
        self.metrics.counter(f"est.{signal}_drift_events").inc()
        if self.tracer:
            self.tracer.emit(
                EVENT_ESTIMATOR_DRIFT,
                time,
                job_id=job_id,
                signal=signal,
                window_mape=window_mape,
                window=self.drift_window,
                threshold=self.drift_threshold,
            )

    # -- reporting -------------------------------------------------------------
    def job_stats(self, job_id: str, signal: str) -> SignalStats:
        """Error statistics for one job and signal (zeros if unseen)."""
        return self._job_stats.get((signal, job_id), SignalStats())

    def fleet_stats(self, signal: str) -> SignalStats:
        if signal not in self._fleet_stats:
            raise ConfigurationError(
                f"unknown signal {signal!r}; known: {SIGNALS}"
            )
        return self._fleet_stats[signal]

    def snapshot(self) -> Dict:
        """A JSON-ready dump: fleet and per-job stats plus drift count."""
        jobs: Dict[str, Dict[str, Dict[str, float]]] = {}
        for (signal, job_id), stats in sorted(self._job_stats.items()):
            jobs.setdefault(job_id, {})[signal] = stats.snapshot()
        return {
            "fleet": {
                signal: stats.snapshot()
                for signal, stats in sorted(self._fleet_stats.items())
            },
            "jobs": jobs,
            "drift_events": self.drift_events,
        }

    def __bool__(self) -> bool:
        return True


class NullEstimatorTelemetry(EstimatorTelemetry):
    """Telemetry disabled: every call is a no-op, truthiness False."""

    def __init__(self) -> None:
        super().__init__()

    def record_speed_prediction(self, job_id: str, predicted: float) -> None:
        pass

    def record_total_prediction(self, job_id: str, predicted_total: float) -> None:
        pass

    def resolve_speed(self, job_id, actual, time):  # type: ignore[override]
        return None

    def resolve_totals(self, job_id, actual_total, time) -> int:  # type: ignore[override]
        return 0

    def discard_job(self, job_id: str) -> None:
        pass

    def __bool__(self) -> bool:
        return False


#: Shared default instance.
NULL_ESTIMATOR_TELEMETRY = NullEstimatorTelemetry()


def estimator_telemetry_for(
    tracer: Optional[Tracer], metrics: Optional[MetricsRegistry]
) -> EstimatorTelemetry:
    """A live :class:`EstimatorTelemetry` when either sink is attached, else the null one."""
    if tracer or metrics:
        return EstimatorTelemetry(tracer, metrics)
    return NULL_ESTIMATOR_TELEMETRY
