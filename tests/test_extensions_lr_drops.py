"""Tests for learning-rate-drop handling (§7 "Convergence estimation")."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.convergence import ConvergenceEstimator
from repro.workloads import MODEL_ZOO, LossEmitter
from repro.workloads.lr_schedule import SteppedLossCurve, with_lr_drops


@pytest.fixture
def base():
    return MODEL_ZOO["seq2seq"].loss


@pytest.fixture
def stepped(base):
    return with_lr_drops(base, [30])


class TestSteppedLossCurve:
    def test_starts_at_one(self, stepped):
        assert stepped.loss(0) == pytest.approx(1.0)

    def test_matches_base_before_drop(self, base, stepped):
        for epoch in (0, 5, 15, 29):
            assert stepped.loss(epoch) == pytest.approx(base.loss(epoch))

    def test_continuous_at_drop(self, base, stepped):
        assert stepped.loss(30) == pytest.approx(base.loss(30))

    def test_fast_descent_after_drop(self, base, stepped):
        """The post-drop decrease spikes above the tired pre-drop tail."""
        pre_drop_decrease = stepped.epoch_decrease(30)
        post_drop_decrease = stepped.epoch_decrease(31)
        assert post_drop_decrease > 3 * pre_drop_decrease
        assert stepped.loss(35) < base.loss(35)

    def test_monotone_overall(self, stepped):
        values = [stepped.loss(e) for e in range(0, 80)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_stopping_rule_rearmed_by_drop(self, base):
        """A drop after the base would have converged defers convergence."""
        base_epochs = base.epochs_to_converge(0.002)
        curve = with_lr_drops(base, [base_epochs - 10])
        assert curve.epochs_to_converge(0.002) > base_epochs - 10

    def test_multiple_drops(self, base):
        curve = with_lr_drops(base, [20, 35])
        assert curve.loss(50) < with_lr_drops(base, [20]).loss(50)

    def test_validation(self, base):
        with pytest.raises(ConfigurationError):
            SteppedLossCurve(segments=())
        with pytest.raises(ConfigurationError):
            SteppedLossCurve(segments=((5.0, base),))  # must start at 0
        with pytest.raises(ConfigurationError):
            SteppedLossCurve(segments=((0.0, base), (10.0, base), (10.0, base)))
        with pytest.raises(ConfigurationError):
            with_lr_drops(base, [10], descent_fraction=1.5)
        with pytest.raises(ConfigurationError):
            with_lr_drops(base, [-3])
        with pytest.raises(ConfigurationError):
            stepped_curve = with_lr_drops(base, [10])
            stepped_curve.loss(-1)


def feed_in_intervals(estimator, emitter, spe, upto_epoch, chunk=2, stride=40):
    fed = 0
    for end in range(chunk, upto_epoch + 1, chunk):
        for obs in emitter.observe_range(fed, int(end * spe), stride):
            estimator.add_observation(obs.step, obs.loss)
        fed = int(end * spe)
        if estimator.can_fit:
            estimator.fit(force=True)


class TestEstimatorReset:
    SPE = 300.0

    def run_estimator(self, curve, reset):
        emitter = LossEmitter(curve, self.SPE, seed=4)
        estimator = ConvergenceEstimator(
            0.002, self.SPE, reset_on_drop=reset
        )
        feed_in_intervals(estimator, emitter, self.SPE, upto_epoch=38)
        return estimator

    def test_reset_fires_on_drop(self, stepped):
        estimator = self.run_estimator(stepped, reset=True)
        assert estimator.reset_count == 1

    def test_no_reset_without_drop(self, base):
        estimator = self.run_estimator(base, reset=True)
        assert estimator.reset_count == 0

    def test_reset_improves_prediction(self, stepped):
        true_total = stepped.epochs_to_converge(0.002) * self.SPE
        plain = self.run_estimator(stepped, reset=False)
        resetting = self.run_estimator(stepped, reset=True)
        err_plain = abs(plain.predicted_total_steps() - true_total) / true_total
        err_reset = abs(resetting.predicted_total_steps() - true_total) / true_total
        assert err_reset < err_plain
        assert err_reset < 0.5

    def test_disabled_by_default(self, stepped):
        emitter = LossEmitter(stepped, self.SPE, seed=4)
        estimator = ConvergenceEstimator(0.002, self.SPE)
        feed_in_intervals(estimator, emitter, self.SPE, upto_epoch=38)
        assert estimator.reset_count == 0

    def test_predictions_stay_in_absolute_steps(self, stepped):
        estimator = self.run_estimator(stepped, reset=True)
        # The phase offset must be folded back: the prediction exceeds the
        # drop step (epoch 30).
        assert estimator.predicted_total_steps() > 30 * self.SPE
