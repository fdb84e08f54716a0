"""Tests for the online convergence estimator (§3.1)."""

from dataclasses import astuple

import numpy as np
import pytest

from repro.common.errors import FittingError
from repro.core.convergence import (
    DROP_PATIENCE,
    LOSS_REFIT_BAND,
    MAX_FIT_POINTS,
    REFINE_ITERS,
    REFIT_EVERY,
    REFIT_GROWTH,
    ConvergenceEstimator,
)
from repro.fitting.loss_curve import LossCurveFit, fit_loss_curve
from repro.workloads import MODEL_ZOO, LossEmitter


def feed(estimator, emitter, start_epoch, end_epoch, spe, stride=25):
    obs = emitter.observe_range(int(start_epoch * spe), int(end_epoch * spe), stride)
    estimator.add_observations([o.step for o in obs], [o.loss for o in obs])


@pytest.fixture
def setup():
    profile = MODEL_ZOO["seq2seq"]
    spe = profile.steps_per_epoch("sync")
    emitter = LossEmitter(profile.loss, spe, seed=13)
    estimator = ConvergenceEstimator(threshold=0.002, steps_per_epoch=spe)
    return profile, spe, emitter, estimator


class TestDataCollection:
    def test_counts(self, setup):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 2, spe)
        assert estimator.observation_count > 0
        assert estimator.latest_step > 0

    def test_cannot_fit_too_early(self, setup):
        *_, estimator = setup
        assert not estimator.can_fit
        with pytest.raises(FittingError):
            estimator.fit()

    def test_nonpositive_loss_rejected(self, setup):
        *_, estimator = setup
        with pytest.raises(FittingError):
            estimator.add_observation(1, 0.0)


class TestNonFiniteInputs:
    """A NaN or infinite observation is refused before anything is kept:
    one NaN in the history would fail every later refit of the job."""

    @pytest.mark.parametrize(
        "step, loss",
        [(100.0, float("nan")), (100.0, float("inf")), (float("nan"), 1.0), (float("inf"), 1.0)],
    )
    def test_rejected(self, setup, step, loss):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 2, spe)
        count = estimator.observation_count
        with pytest.raises(FittingError):
            estimator.add_observation(step, loss)
        assert estimator.observation_count == count

    def test_array_with_one_nan_records_nothing(self, setup):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 2, spe)
        count = estimator.observation_count
        with pytest.raises(FittingError):
            estimator.add_observations([5000.0, 5010.0, 5020.0], [1.0, float("nan"), 1.0])
        assert estimator.observation_count == count

    def test_fits_continue_after_a_rejected_nan(self, setup):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 2, spe)
        with pytest.raises(FittingError):
            estimator.add_observation(estimator.latest_step + 1, float("nan"))
        feed(estimator, emitter, 2, 4, spe)
        fit = estimator.fit(force=True)
        assert fit.residual == fit.residual  # not NaN


class TestArrayIngestion:
    """One array per interval leaves the estimator exactly as the same
    points added one at a time do."""

    @staticmethod
    def state(estimator):
        return (
            list(estimator._steps),
            list(estimator._losses),
            estimator._points_since_fit,
            estimator._out_of_band,
            estimator._below_fit_streak,
            estimator.reset_count,
            estimator._step_offset,
        )

    @pytest.mark.parametrize("reset_on_drop", [False, True])
    def test_matches_point_by_point(self, reset_on_drop):
        one, many = (
            ConvergenceEstimator(
                threshold=0.002, steps_per_epoch=100.0, reset_on_drop=reset_on_drop
            )
            for _ in range(2)
        )
        start = [curve(10.0 * i) for i in range(40)]
        for estimator in (one, many):
            estimator.add_observations([10.0 * i for i in range(40)], start)
            estimator.fit()
        # In-band points, out-of-band points, then a drop below the curve.
        factors = [1.0, 1.2, 0.99, 1.0] * 3 + [0.5] * (DROP_PATIENCE + 2) + [1.0] * 4
        steps = [400.0 + 10.0 * i for i in range(len(factors))]
        losses = [f * curve(s) for f, s in zip(factors, steps)]
        for step, loss in zip(steps, losses):
            one.add_observation(step, loss)
        many.add_observations(steps, losses)
        assert self.state(many) == self.state(one)
        assert many.fit() == one.fit()

    def test_unpredictable_points_count_out_of_band(self):
        estimator = ConvergenceEstimator(threshold=0.002, steps_per_epoch=100.0)
        # b1 = 0: the curve has no value at k = 0, where b0*k + b1 = 0.
        estimator._fit = LossCurveFit(
            beta0=0.01, beta1=0.0, beta2=0.1, residual=0.0, num_points=10
        )
        on_curve = estimator._fit.predict_raw(100.0)
        estimator.add_observations([0.0, 100.0], [1.0, on_curve])
        assert estimator._out_of_band == 1


class TestFitting:
    def test_fit_caches_between_refits(self, setup):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 3, spe)
        first = estimator.fit()
        assert estimator.fit() is first  # no new data: cached
        feed(estimator, emitter, 3, 6, spe)
        assert estimator.fit() is not first  # enough new data: refit

    def test_force_refit(self, setup):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 3, spe)
        first = estimator.fit()
        assert estimator.fit(force=True) is not first


def curve(step):
    """A noise-free Eqn-1 loss curve the fit reproduces almost exactly."""
    return 1.0 / (0.002 * step + 0.5) + 0.1


class ListHistoryEstimator(ConvergenceEstimator):
    """The estimator with its history kept as two lists of Python floats,
    thinned by an index list and shifted one element at a time: the
    reference the float64 buffers must match bit for bit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._steps, self._losses = [], []

    def _record(self, steps, losses):
        self._steps.extend(steps.tolist())
        self._losses.extend(losses.tolist())
        self._points_since_fit += steps.size

    def fit(self, force=False):
        if force or self._refit_due():
            steps, losses = self._steps, self._losses
            if len(steps) > MAX_FIT_POINTS:
                idx = np.unique(
                    np.linspace(0, len(steps) - 1, MAX_FIT_POINTS).round().astype(int)
                )
                steps, losses = [steps[i] for i in idx], [losses[i] for i in idx]
            shifted = [s - self._step_offset for s in steps]
            self._fit = fit_loss_curve(shifted, list(losses), refine_iters=REFINE_ITERS)
            self._points_since_fit = 0
            self._out_of_band = 0
            self._fit_history = len(self._steps)
        return self._fit


class TestTypedHistory:
    """The history is two float64 buffers, 16 bytes an observation."""

    @staticmethod
    def history_bytes(estimator):
        # memoryview rejects a list, so a history of Python floats fails here.
        return sum(memoryview(buf).nbytes for buf in (estimator._steps, estimator._losses))

    @staticmethod
    def stream(seed, intervals, per_interval=30, stride=10.0, drop_at=None):
        """Seeded noisy Eqn-1 losses, one array pair per interval; from
        step *drop_at* on, the loss falls to half the curve."""
        rng = np.random.default_rng(seed)
        for i in range(intervals):
            steps = stride * np.arange(i * per_interval, (i + 1) * per_interval)
            losses = curve(steps) * rng.normal(1.0, 0.02, steps.size)
            if drop_at is not None:
                losses[steps >= drop_at] *= 0.5
            yield steps, losses

    @pytest.mark.parametrize(
        "seed, intervals, drop_at",
        # 300 points stay unthinned; 1,200 exceed MAX_FIT_POINTS.
        [(1, 10, None), (2, 40, None), (3, 30, 5_000.0)],
        ids=["short", "long", "drop-restart"],
    )
    def test_fits_match_the_list_history_bit_for_bit(self, seed, intervals, drop_at):
        typed, listed = (
            cls(threshold=0.002, steps_per_epoch=100.0, reset_on_drop=drop_at is not None)
            for cls in (ConvergenceEstimator, ListHistoryEstimator)
        )
        for steps, losses in self.stream(seed, intervals, drop_at=drop_at):
            typed.add_observations(steps, losses)
            listed.add_observations(steps, losses)
            assert list(typed._steps) == listed._steps
            assert list(typed._losses) == listed._losses
            # repr round-trips a float exactly, so equal reprs are equal bits.
            assert [repr(x) for x in astuple(typed.fit())] == [
                repr(x) for x in astuple(listed.fit())
            ]
        assert typed.reset_count == listed.reset_count == (drop_at is not None)

    def test_sixteen_bytes_per_observation(self):
        estimator = ConvergenceEstimator(threshold=0.002, steps_per_epoch=100.0)
        assert self.history_bytes(estimator) == 0
        for steps, losses in self.stream(4, 5):
            before = self.history_bytes(estimator)
            estimator.add_observations(steps, losses)
            assert self.history_bytes(estimator) - before == 16 * steps.size
        assert self.history_bytes(estimator) == 16 * estimator.observation_count

    @pytest.mark.parametrize("intervals", [3, 20])  # without and with thinning
    def test_append_after_fit(self, intervals):
        estimator = ConvergenceEstimator(threshold=0.002, steps_per_epoch=100.0)
        for steps, losses in self.stream(5, intervals):
            estimator.add_observations(steps, losses)
        fit = estimator.fit(force=True)
        # A NumPy view of a buffer outliving fit() would raise BufferError.
        count = estimator.observation_count
        estimator.add_observation(estimator.latest_step + 10.0, fit.predict_raw(1.0))
        assert estimator.observation_count == count + 1


class TestRefitGate:
    """A cached loss fit is refreshed only when new points call for it."""

    STRIDE = 10.0

    def fitted(self, points=40, reset_on_drop=False):
        estimator = ConvergenceEstimator(
            threshold=0.002, steps_per_epoch=100.0, reset_on_drop=reset_on_drop
        )
        for i in range(points):
            estimator.add_observation(i * self.STRIDE, curve(i * self.STRIDE))
        return estimator, estimator.fit()

    def extend(self, estimator, factors):
        """Add one point per factor, at that multiple of the curve."""
        start = estimator.latest_step + self.STRIDE
        for i, factor in enumerate(factors):
            step = start + i * self.STRIDE
            estimator.add_observation(step, factor * curve(step))

    def test_in_band_history_keeps_the_cached_fit(self):
        estimator, fit = self.fitted(points=40)
        # 10 new points (25% growth), one a 5x spike, the rest on the curve.
        self.extend(estimator, [1.0] * 4 + [5.0] + [1.0] * 5)
        assert estimator.fit() is fit

    def test_half_the_new_points_out_of_band_refits(self):
        out = 1.0 + 2 * LOSS_REFIT_BAND
        estimator, fit = self.fitted(points=40)
        self.extend(estimator, [1.0, out] * (REFIT_EVERY // 2))
        refit = estimator.fit()
        assert refit is not fit
        # The refit starts a fresh count: points on it keep it.
        start = estimator.latest_step + self.STRIDE
        for i in range(REFIT_EVERY):
            step = start + i * self.STRIDE
            estimator.add_observation(step, refit.predict_raw(step))
        assert estimator.fit() is refit

    def test_fewer_than_half_out_of_band_keeps_the_fit(self):
        out = 1.0 + 2 * LOSS_REFIT_BAND
        estimator, fit = self.fitted(points=40)
        self.extend(estimator, [out] * (REFIT_EVERY // 2 - 1) + [1.0] * (REFIT_EVERY // 2 + 1))
        assert estimator.fit() is fit

    def test_too_few_new_points_never_refit(self):
        estimator, fit = self.fitted(points=40)
        self.extend(estimator, [2.0] * (REFIT_EVERY - 1))
        assert estimator.fit() is fit

    def test_growth_refits_an_in_band_history(self):
        points = 2 * REFIT_EVERY
        estimator, fit = self.fitted(points=points)
        self.extend(estimator, [1.0] * (int(REFIT_GROWTH * points) - 1))
        assert estimator.fit() is fit
        self.extend(estimator, [1.0])
        refit = estimator.fit()
        assert refit is not fit
        assert refit.num_points == points + int(REFIT_GROWTH * points)

    def test_force_always_refits(self):
        estimator, fit = self.fitted()
        assert estimator.fit(force=True) is not fit

    def test_drop_restart_always_refits(self):
        estimator, fit = self.fitted(reset_on_drop=True)
        self.extend(estimator, [0.5] * DROP_PATIENCE)
        assert estimator.reset_count == 1
        refit = estimator.fit()
        assert refit is not fit
        assert refit.num_points == DROP_PATIENCE


class TestPrediction:
    def test_prediction_improves_with_progress(self, setup):
        """The Fig-6 property: more data, smaller prediction error."""
        profile, spe, emitter, estimator = setup
        truth_epochs = profile.loss.epochs_to_converge(0.002)
        truth_steps = truth_epochs * spe

        errors = []
        start = 0
        for end in (3, 10, 25, 45):
            feed(estimator, emitter, start, end, spe)
            start = end
            estimator.fit(force=True)
            predicted = estimator.predicted_total_steps()
            errors.append(abs(predicted - truth_steps) / truth_steps)
        # Late predictions must be decent and no worse than the worst
        # early prediction (strict monotonicity is not guaranteed: the
        # generator is deliberately outside the Eqn-1 family).
        assert errors[-1] < 0.35
        assert errors[-1] <= max(errors[0], errors[1]) + 1e-9

    def test_remaining_steps_decrease_with_progress(self, setup):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 20, spe)
        early = estimator.remaining_steps(current_step=5 * spe)
        late = estimator.remaining_steps(current_step=15 * spe)
        assert late < early

    def test_remaining_steps_nonnegative(self, setup):
        _, spe, emitter, estimator = setup
        feed(estimator, emitter, 0, 20, spe)
        assert estimator.remaining_steps(current_step=1e9) == 0.0


class TestValidation:
    def test_constructor_guards(self):
        with pytest.raises(FittingError):
            ConvergenceEstimator(threshold=0, steps_per_epoch=10)
        with pytest.raises(FittingError):
            ConvergenceEstimator(threshold=0.01, steps_per_epoch=0)
