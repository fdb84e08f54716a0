"""Tests for the Eqn-1 convergence-curve fitter."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.fitting.loss_curve as loss_curve
from repro.common.errors import FittingError
from repro.fitting.loss_curve import LossCurveFit, fit_loss_curve
from repro.workloads import MODEL_ZOO, LossEmitter


def eqn1(steps, b0, b1, b2):
    return [1.0 / (b0 * k + b1) + b2 for k in steps]


class TestFitOnExactEqn1Data:
    def test_recovers_coefficients(self):
        steps = list(range(0, 2000, 20))
        losses = eqn1(steps, 2e-3, 1.0, 0.1)
        fit = fit_loss_curve(steps, losses, preprocess=False)
        assert fit.beta0 == pytest.approx(2e-3, rel=0.05)
        assert fit.beta1 == pytest.approx(1.0, rel=0.05)
        assert fit.beta2 == pytest.approx(0.1, abs=0.02)
        assert fit.residual < 1e-3

    def test_predict_matches_truth(self):
        steps = list(range(0, 1000, 10))
        losses = eqn1(steps, 1e-3, 1.0, 0.05)
        fit = fit_loss_curve(steps, losses, preprocess=False)
        for k in (0, 100, 500, 2000):
            assert fit.predict(k) == pytest.approx(eqn1([k], 1e-3, 1.0, 0.05)[0], rel=0.02)

    @settings(max_examples=20, deadline=None)
    @given(
        b0=st.floats(1e-4, 1e-2),
        b2=st.floats(0.0, 0.4),
    )
    def test_low_residual_across_family(self, b0, b2):
        steps = list(range(0, 3000, 30))
        losses = eqn1(steps, b0, 1.0, b2)
        fit = fit_loss_curve(steps, losses, preprocess=False)
        assert fit.residual < 5e-3


class TestFitOnNoisyGroundTruth:
    def test_fits_model_zoo_curves(self):
        """Fits against the mixture generator stay reasonably tight (Fig 7)."""
        profile = MODEL_ZOO["seq2seq"]
        spe = profile.steps_per_epoch("sync")
        emitter = LossEmitter(profile.loss, spe, seed=11)
        obs = emitter.observe_range(0, int(30 * spe), stride=100)
        fit = fit_loss_curve([o.step for o in obs], [o.loss for o in obs])
        assert fit.residual < 0.05
        assert fit.num_points == len(obs)

    def test_scale_roundtrip(self):
        profile = MODEL_ZOO["seq2seq"]
        spe = profile.steps_per_epoch("sync")
        emitter = LossEmitter(profile.loss, spe, initial_loss=6.0, seed=11)
        obs = emitter.observe_range(0, int(20 * spe), stride=100)
        fit = fit_loss_curve([o.step for o in obs], [o.loss for o in obs])
        # predict_raw is in the emitter's raw units.
        assert fit.predict_raw(0) == pytest.approx(6.0, rel=0.15)


class TestConvergencePrediction:
    @pytest.fixture
    def fit(self):
        steps = list(range(0, 5000, 25))
        losses = eqn1(steps, 1e-3, 1.0, 0.05)
        return fit_loss_curve(steps, losses, preprocess=False)

    def test_epoch_decrease_positive_decreasing(self, fit):
        d = [fit.epoch_decrease(e, steps_per_epoch=100) for e in range(1, 30)]
        assert all(x > 0 for x in d)
        assert d[0] > d[-1]

    def test_epochs_to_converge_monotone_in_threshold(self, fit):
        assert fit.epochs_to_converge(0.0001, 100) >= fit.epochs_to_converge(0.01, 100)

    def test_epochs_to_converge_is_first_crossing(self, fit):
        epochs = fit.epochs_to_converge(0.001, 100, patience=1)
        assert fit.epoch_decrease(epochs, 100) < 0.001
        assert fit.epoch_decrease(epochs - 1, 100) >= 0.001

    def test_patience_shifts_convergence(self, fit):
        assert fit.epochs_to_converge(0.001, 100, patience=3) == (
            fit.epochs_to_converge(0.001, 100, patience=1) + 2
        )

    def test_steps_and_remaining(self, fit):
        total = fit.steps_to_converge(0.001, 100)
        assert fit.remaining_steps(0, 0.001, 100) == pytest.approx(total)
        assert fit.remaining_steps(total + 50, 0.001, 100) == 0.0

    def test_flat_fit_converges_immediately(self):
        flat = LossCurveFit(beta0=0.0, beta1=2.0, beta2=0.0, residual=0.0, num_points=5)
        assert flat.epochs_to_converge(0.001, 100, patience=2) == 2

    def test_validation(self, fit):
        with pytest.raises(FittingError):
            fit.epochs_to_converge(0, 100)
        with pytest.raises(FittingError):
            fit.epochs_to_converge(0.01, 0)
        with pytest.raises(FittingError):
            fit.predict(-1)


class TestFitValidation:
    def test_too_few_points(self):
        with pytest.raises(FittingError):
            fit_loss_curve([1, 2, 3], [3.0, 2.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(FittingError):
            fit_loss_curve([1, 2, 3, 4], [1.0, 2.0])

    def test_nonpositive_losses(self):
        with pytest.raises(FittingError):
            fit_loss_curve([1, 2, 3, 4, 5], [5.0, 4.0, 3.0, -1.0, 2.0], preprocess=False)

    def test_nan_loss_rejected(self):
        losses = [5.0, 4.0, float("nan"), 3.0, 2.0]
        with pytest.raises(FittingError):
            fit_loss_curve([1, 2, 3, 4, 5], losses, preprocess=False)

    def test_unsorted_input_accepted(self):
        steps = [300, 100, 0, 200, 400]
        losses = eqn1(steps, 1e-3, 1.0, 0.1)
        fit = fit_loss_curve(steps, losses, preprocess=False)
        assert fit.residual < 0.01

    def test_outliers_handled_by_preprocessing(self):
        steps = list(range(0, 1200, 10))
        losses = eqn1(steps, 1e-3, 1.0, 0.1)
        losses[40] *= 10  # a big spike mid-run
        with_pre = fit_loss_curve(steps, losses, preprocess=True)
        assert with_pre.residual < 0.02


def noisy_eqn1(seed, n, kmax, b0, b1, b2, noise, outliers=0):
    """Seeded Eqn-1 observations with multiplicative noise and spikes."""
    rng = np.random.default_rng(seed)
    k = np.linspace(0.0, kmax, n)
    loss = (1.0 / (b0 * k + b1) + b2) * (1.0 + rng.normal(0.0, noise, n))
    if outliers:
        loss[rng.choice(n, outliers, replace=False)] *= 3.0
    return k.tolist(), loss.tolist()


PINNED_CURVES = {
    "smooth": (0, 60, 3000.0, 2e-3, 1.0, 0.1, 0.01),
    "outliers": (1, 80, 5000.0, 1e-3, 0.5, 0.2, 0.02, 4),
    "long": (2, 120, 1e5, 5e-5, 1.0, 0.05, 0.01),
    "flat": (3, 40, 2000.0, 1e-6, 1.0, 0.5, 0.005),
}

#: ``(beta0, beta1, beta2, residual)`` from the per-candidate Lawson-Hanson
#: fitter, keyed by ``(curve, preprocess)``.
PINNED_FITS = {
    ("smooth", True): (
        0.0022223526757970723,
        1.1006042367647857,
        0.09243893324789326,
        0.003348083408230313,
    ),
    ("smooth", False): (
        0.002017783652930624,
        0.9992928922345337,
        0.10181067276353588,
        0.0036875222569920612,
    ),
    ("outliers", True): (
        0.0021402945171596854,
        1.1486092169290376,
        0.08010049320306087,
        0.07451682698812682,
    ),
    ("outliers", False): (
        0.0008819158274565459,
        0.5064366474381844,
        0.18095279297775124,
        0.2780881048570274,
    ),
    ("long", True): (
        5.251109041414419e-05,
        1.0531035909793067,
        0.047367430945964815,
        0.004272751593164713,
    ),
    ("long", False): (
        4.991619416791911e-05,
        1.0010632559086932,
        0.04982983005842954,
        0.004494870843274585,
    ),
    ("flat", True): (
        7.000080721734785e-07,
        1.0165228831463708,
        1.1365865353342506e-10,
        0.005705337563160777,
    ),
    ("flat", False): (
        4.5918623906803087e-07,
        0.6668113386784553,
        0.0,
        0.00869752185056051,
    ),
}


class TestClosedFormSearch:
    @pytest.mark.parametrize("curve, preprocess", sorted(PINNED_FITS))
    def test_reproduces_lawson_hanson_fits(self, curve, preprocess):
        beta0, beta1, beta2, residual = PINNED_FITS[curve, preprocess]
        fit = fit_loss_curve(*noisy_eqn1(*PINNED_CURVES[curve]), preprocess=preprocess)
        # The residual is what the b2 search minimises, so it must agree to
        # rounding. Near its minimum the residual is flat below float64
        # resolution across the last golden-section bracket, so rounding
        # alone decides where in that bracket the search stops: the
        # coefficients agree to the bracket's width, not to rounding.
        assert fit.residual == pytest.approx(residual, rel=1e-9)
        assert fit.beta0 == pytest.approx(beta0, rel=1e-7)
        assert fit.beta1 == pytest.approx(beta1, rel=1e-7)
        assert fit.beta2 == pytest.approx(beta2, rel=1e-7, abs=1e-9)

    def test_non_degenerate_fit_never_calls_general_nnls(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("general NNLS called on a 2-column design")

        monkeypatch.setattr(loss_curve, "nnls", refuse)
        for curve in PINNED_CURVES.values():
            fit_loss_curve(*noisy_eqn1(*curve))

    def test_degenerate_design_uses_general_nnls(self, monkeypatch):
        general = loss_curve.nnls
        calls = []

        def counting(A, b):
            calls.append(A.shape)
            return general(A, b)

        monkeypatch.setattr(loss_curve, "nnls", counting)
        losses = np.array([1.0, 1.1, 0.9, 1.0])
        fit = fit_loss_curve([5, 5, 5, 5], losses, preprocess=False)
        assert calls and all(shape == (4, 2) for shape in calls)
        # With every step equal the best b2 is 0 and the line's value at the
        # step is the mean of the transformed targets 1 / l.
        assert fit.beta2 == 0.0
        assert fit.beta0 * 5 + fit.beta1 == pytest.approx(np.mean(1.0 / losses))
