"""Tests for the noisy loss-observation emitter."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.workloads import MODEL_ZOO
from repro.workloads.loss import LossEmitter, LossObservation, epoch_averaged


@pytest.fixture
def curve():
    return MODEL_ZOO["seq2seq"].loss


@pytest.fixture
def emitter(curve):
    return LossEmitter(curve, steps_per_epoch=100, seed=3)


class TestTrueLoss:
    def test_scales_by_initial_loss(self, curve):
        emitter = LossEmitter(curve, steps_per_epoch=100, initial_loss=6.0, seed=1)
        assert emitter.true_loss(0) == pytest.approx(6.0)

    def test_decreasing(self, emitter):
        assert emitter.true_loss(0) > emitter.true_loss(5000)


class TestLazyNoiseStream:
    def test_same_draws_as_an_eager_generator(self, curve):
        from repro.common.rand import spawn_rng

        lazy = LossEmitter(curve, steps_per_epoch=100, seed=3)
        eager = LossEmitter(
            curve, steps_per_epoch=100, seed=spawn_rng(3, "loss-noise")
        )
        steps = np.arange(0, 3000, 7)
        assert np.array_equal(lazy.observe_many(steps), eager.observe_many(steps))


class TestObserve:
    def test_observation_fields(self, emitter):
        obs = emitter.observe(42)
        assert isinstance(obs, LossObservation)
        assert obs.step == 42
        assert obs.loss > 0

    def test_noise_reproducible_under_seed(self, curve):
        a = LossEmitter(curve, 100, seed=9).observe_range(0, 50)
        b = LossEmitter(curve, 100, seed=9).observe_range(0, 50)
        assert [o.loss for o in a] == [o.loss for o in b]

    def test_noise_close_to_truth_on_average(self, curve):
        emitter = LossEmitter(curve, 100, noise_std=0.01, outlier_rate=0.0, seed=5)
        observed = [emitter.observe(10).loss for _ in range(300)]
        assert np.mean(observed) == pytest.approx(emitter.true_loss(10), rel=0.01)

    def test_outliers_are_spikes(self, curve):
        emitter = LossEmitter(curve, 100, noise_std=0.0, outlier_rate=1.0, seed=5)
        obs = emitter.observe(10)
        assert obs.loss > emitter.true_loss(10) * 1.4

    def test_no_noise_mode_is_exact(self, curve):
        emitter = LossEmitter(curve, 100, noise_std=0.0, outlier_rate=0.0, seed=5)
        assert emitter.observe(10).loss == pytest.approx(emitter.true_loss(10))

    def test_observe_range_stride(self, emitter):
        obs = emitter.observe_range(0, 100, stride=10)
        assert [o.step for o in obs] == list(range(0, 100, 10))

    def test_stream(self, emitter):
        stream = emitter.stream(stride=7)
        first = next(stream)
        second = next(stream)
        assert (first.step, second.step) == (0, 7)

    def test_invalid_params(self, curve):
        with pytest.raises(ConfigurationError):
            LossEmitter(curve, steps_per_epoch=0)
        with pytest.raises(ConfigurationError):
            LossEmitter(curve, 100, initial_loss=0)
        with pytest.raises(ConfigurationError):
            LossEmitter(curve, 100, outlier_rate=1.5)
        with pytest.raises(ConfigurationError):
            emitter = LossEmitter(curve, 100)
            emitter.observe_range(0, 10, stride=0)


class TestEpochAveraged:
    def test_one_point_per_epoch(self):
        observations = [LossObservation(s, 10.0 - s * 0.01) for s in range(0, 300)]
        averaged = epoch_averaged(observations, steps_per_epoch=100)
        assert len(averaged) == 3

    def test_average_value(self):
        observations = [
            LossObservation(0, 4.0),
            LossObservation(1, 6.0),
            LossObservation(100, 2.0),
        ]
        averaged = epoch_averaged(observations, steps_per_epoch=100)
        assert averaged[0].loss == pytest.approx(5.0)
        assert averaged[1].loss == pytest.approx(2.0)

    def test_stamped_with_last_step(self):
        observations = [LossObservation(s, 1.0) for s in (0, 40, 99)]
        averaged = epoch_averaged(observations, steps_per_epoch=100)
        assert averaged[0].step == 99

    def test_invalid_steps_per_epoch(self):
        with pytest.raises(ConfigurationError):
            epoch_averaged([], steps_per_epoch=0)
