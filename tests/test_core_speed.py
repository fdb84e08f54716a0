"""Tests for the online speed estimator (§3.2)."""

from importlib import import_module

import numpy as np
import pytest

import repro.core.speed as core_speed
import repro.fitting.speed_model as speed_model
from repro.common.errors import FittingError
from repro.core.speed import SPEED_REFIT_BAND, SPEED_REFIT_MAX, SpeedEstimator
from repro.fitting.nnls import NormalEquations, nnls
from repro.fitting.speed_model import MIN_SAMPLES, SpeedModelFit, SpeedSamples, fit_speed_model
from repro.workloads import MODEL_ZOO, StepTimeModel

# ``repro.fitting`` re-exports the function under the module's name.
nnls_module = import_module("repro.fitting.nnls")


@pytest.fixture
def truth():
    return StepTimeModel(MODEL_ZOO["resnet-50"], "sync")


@pytest.fixture
def estimator():
    return SpeedEstimator("sync", global_batch=256)


class TestSampleManagement:
    def test_add_and_count(self, estimator):
        estimator.add_sample(2, 4, 0.5)
        assert estimator.sample_count == 1
        assert estimator.samples == ((2, 4, 0.5),)

    def test_invalid_samples_rejected(self, estimator):
        with pytest.raises(FittingError):
            estimator.add_sample(0, 4, 0.5)
        with pytest.raises(FittingError):
            estimator.add_sample(2, 4, 0.0)

    @pytest.mark.parametrize("speed", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_speed_rejected(self, truth, speed):
        estimator = SpeedEstimator("sync", global_batch=256)
        estimator.bootstrap(measure=lambda p, w: truth.speed(p, w), num_samples=8, seed=2)
        fit = estimator.fit()
        with pytest.raises(FittingError):
            estimator.add_sample(2, 4, speed)
        # The window and its sums are as they were: refits still work.
        assert estimator.sample_count == 8
        estimator.add_sample(3, 3, 1.2 * fit.predict(3, 3))
        assert estimator.fit() is not fit

    def test_window_caps_samples(self):
        estimator = SpeedEstimator("async", max_samples=5)
        for i in range(10):
            estimator.add_sample(1, 1, float(i + 1))
        assert estimator.sample_count == 5
        # Oldest samples dropped first.
        assert estimator.samples[0][2] == 6.0

    def test_sync_requires_global_batch(self):
        with pytest.raises(FittingError):
            SpeedEstimator("sync")


class TestBootstrap:
    def test_bootstrap_profiles_configurations(self, estimator, truth):
        configs = estimator.bootstrap(
            measure=lambda p, w: truth.speed(p, w), num_samples=6, seed=1
        )
        assert len(configs) == 6
        assert estimator.sample_count == 6
        assert estimator.can_fit

    def test_bootstrap_reproducible(self, truth):
        def run():
            est = SpeedEstimator("sync", global_batch=256)
            return est.bootstrap(
                measure=lambda p, w: truth.speed(p, w), num_samples=5, seed=3
            )

        assert run() == run()


class TestFitAndPredict:
    def test_predict_close_to_truth(self, estimator, truth):
        estimator.bootstrap(
            measure=lambda p, w: truth.speed(p, w), num_samples=10, seed=2
        )
        for p, w in ((2, 2), (8, 8), (12, 6)):
            assert estimator.predict(p, w) == pytest.approx(
                truth.speed(p, w), rel=0.15
            )

    def test_fit_caches_until_new_sample(self, estimator, truth):
        estimator.bootstrap(measure=lambda p, w: truth.speed(p, w), seed=2)
        fit = estimator.fit()
        assert estimator.fit() is fit
        estimator.add_sample(3, 3, truth.speed(3, 3))
        assert estimator.fit() is not fit

    def test_cannot_fit_early(self, estimator):
        estimator.add_sample(1, 1, 0.1)
        with pytest.raises(FittingError):
            estimator.fit()

    def test_speed_function_is_frozen(self, estimator, truth):
        estimator.bootstrap(measure=lambda p, w: truth.speed(p, w), seed=2)
        fn = estimator.speed_function()
        before = fn(4, 4)
        # New samples don't change the frozen closure.
        estimator.add_sample(4, 4, 100.0)
        assert fn(4, 4) == before

    def test_online_calibration_improves_fit(self, truth):
        """Feeding live interval measurements refines the bootstrap fit."""
        est = SpeedEstimator("sync", global_batch=256)
        est.bootstrap(
            measure=lambda p, w: truth.measured_speed(p, w, seed=p * 7 + w, noise_std=0.15),
            num_samples=5,
            seed=1,
        )
        err_before = abs(est.predict(10, 10) - truth.speed(10, 10)) / truth.speed(10, 10)
        for _ in range(20):
            est.add_sample(10, 10, truth.speed(10, 10))
        err_after = abs(est.predict(10, 10) - truth.speed(10, 10)) / truth.speed(10, 10)
        assert err_after <= err_before + 1e-9


class TestRefitGate:
    """Every sample joins the window; only informative ones refit."""

    @pytest.fixture
    def fitted(self, truth):
        estimator = SpeedEstimator("sync", global_batch=256)
        configs = estimator.bootstrap(
            measure=lambda p, w: truth.speed(p, w), num_samples=8, seed=2
        )
        return estimator, estimator.fit(), configs[0]

    def test_known_in_band_sample_keeps_the_fit(self, fitted):
        estimator, fit, (p, w) = fitted
        estimator.add_sample(p, w, fit.predict(p, w) * (1.0 + SPEED_REFIT_BAND / 2))
        assert estimator.sample_count == 9
        assert estimator.fit() is fit

    def test_new_configuration_refits(self, fitted):
        estimator, fit, _ = fitted
        p, w = next(
            (p, w)
            for p in range(1, 17)
            for w in range(1, 17)
            if (p, w) not in {(s[0], s[1]) for s in estimator.samples}
        )
        estimator.add_sample(p, w, fit.predict(p, w))
        assert estimator.fit() is not fit

    def test_out_of_band_sample_refits(self, fitted):
        estimator, fit, (p, w) = fitted
        estimator.add_sample(p, w, fit.predict(p, w) * (1.0 + 2 * SPEED_REFIT_BAND))
        assert estimator.fit() is not fit

    def test_max_held_back_sample_refits(self, fitted):
        estimator, fit, (p, w) = fitted
        for _ in range(SPEED_REFIT_MAX - 1):
            estimator.add_sample(p, w, fit.predict(p, w))
            assert estimator.fit() is fit
        estimator.add_sample(p, w, fit.predict(p, w))
        refit = estimator.fit()
        assert refit is not fit
        # The refit starts a fresh count of held-back samples.
        for _ in range(SPEED_REFIT_MAX - 1):
            estimator.add_sample(p, w, refit.predict(p, w))
        assert estimator.fit() is refit

    def test_held_back_samples_join_the_next_fit(self, fitted, monkeypatch):
        estimator, fit, (p, w) = fitted
        held = [(p, w, fit.predict(p, w) * (1.0 + k / 100.0)) for k in range(3)]
        for sample in held:
            estimator.add_sample(*sample)
        assert estimator.fit() is fit
        seen = []
        real = core_speed.fit_speed_model

        def recording(samples, *args, **kwargs):
            seen.append(snapshot(samples.normal))
            return real(samples, *args, **kwargs)

        monkeypatch.setattr(core_speed, "fit_speed_model", recording)
        estimator.add_sample(p, w, fit.predict(p, w) * (1.0 + 2 * SPEED_REFIT_BAND))
        refit = estimator.fit()
        assert refit is not fit and refit.num_samples == 12
        # The refit solved the normal equations of all 12 samples, the
        # held-back ones included ...
        assert len(seen) == 1
        assert_same_sums(seen[0], fresh_normal(estimator.samples, "sync"))
        # ... and differs from the equations without them.
        without = [s for s in estimator.samples if s not in held]
        assert seen[0]["rows"] != fresh_normal(without, "sync").rows


def random_stream(seed, mode, length=40):
    """A seeded ``(p, w, speed)`` stream from a random Eqn-3/4 model whose
    θ has zeros, with 5% multiplicative noise; a few configurations repeat,
    as a running job's do."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.01, 1.0, size=MIN_SAMPLES[mode])
    thetas[rng.random(thetas.size) < 0.3] = 0.0
    thetas[0] += 0.05  # keep every step time positive
    fit = SpeedModelFit(mode, tuple(thetas), 0.0, 0, global_batch=256.0)
    configs = [tuple(int(v) for v in rng.integers(1, 13, size=2)) for _ in range(12)]
    for _ in range(length):
        p, w = configs[int(rng.integers(len(configs)))]
        yield p, w, fit.predict(p, w) * float(rng.uniform(0.95, 1.05))


def dense_problem(samples, mode):
    """The design matrix and targets of the θ problem (Eqn 3 or 4 with the
    target in seconds per step), built from scratch."""
    if mode == "async":
        A = [[1.0, w / p, w, p] for p, w, _ in samples]
        b = [w / v for _, w, v in samples]
    else:
        A = [[256.0 / w, 1.0, w / p, w, p] for p, w, _ in samples]
        b = [1.0 / v for _, _, v in samples]
    return np.array(A, dtype=float), np.array(b)


def fresh_normal(samples, mode):
    """Normal equations built from scratch, one row at a time."""
    A, b = dense_problem(samples, mode)
    normal = NormalEquations(A.shape[1])
    for row, target in zip(A.tolist(), b.tolist()):
        normal.add(row, target)
    return normal


def snapshot(normal):
    return {
        "gram": [list(line) for line in normal.gram],
        "rhs": list(normal.rhs),
        "btb": normal.btb,
        "rows": normal.rows,
        "tolerance": normal.tolerance(),
    }


def assert_same_sums(sums, fresh):
    """Running sums equal freshly built ones: counts and the peaks behind
    the dual tolerance exactly, the float sums up to their rounding."""
    assert sums["rows"] == fresh.rows
    assert sums["tolerance"] == fresh.tolerance()
    np.testing.assert_allclose(sums["gram"], fresh.gram, rtol=1e-12, atol=0)
    np.testing.assert_allclose(sums["rhs"], fresh.rhs, rtol=1e-12, atol=0)
    assert sums["btb"] == pytest.approx(fresh.btb, rel=1e-12)


class TestWarmStartedRefits:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("seed", range(12))
    def test_hinted_solve_equals_cold_solve(self, monkeypatch, mode, seed):
        solves = []

        def checking(normal, passive=None):
            warm = nnls(normal, passive=passive)
            cold = nnls(normal)
            assert warm[0].tobytes() == cold[0].tobytes() and warm[1] == cold[1]
            solves.append(passive is not None)
            return warm

        monkeypatch.setattr(speed_model, "nnls", checking)
        estimator = SpeedEstimator(mode, global_batch=256, max_samples=25)
        for p, w, speed in random_stream(seed, mode):
            estimator.add_sample(p, w, speed)
            if estimator.can_fit:
                estimator.fit()
        assert solves and not solves[0] and all(solves[1:])

    @pytest.mark.parametrize("mode", ["sync", "async"])
    @pytest.mark.parametrize("seed", range(4))
    def test_gram_refits_match_dense_nnls(self, monkeypatch, mode, seed):
        """Every refit's θ and objective match the dense Lawson–Hanson
        solve of the same window within 1e-9 (relative), through window
        drops (260 samples, a 200-sample window)."""
        estimator = SpeedEstimator(mode, global_batch=256)
        checked = []

        def checking(normal, passive=None):
            ours = nnls(normal, passive=passive)
            A, b = dense_problem(estimator.samples, mode)
            # θ is unique only on a full-rank window (the first few
            # samples may repeat a configuration).
            if np.linalg.matrix_rank(A) == A.shape[1]:
                theta, rnorm = nnls(A, b)
                assert np.abs(ours[0] - theta).max() <= 1e-9 * np.abs(theta).max()
                assert ours[1] == pytest.approx(rnorm, rel=1e-9)
                checked.append(normal.rows)
            return ours

        monkeypatch.setattr(speed_model, "nnls", checking)
        for p, w, speed in random_stream(seed, mode, length=260):
            estimator.add_sample(p, w, speed)
            if estimator.can_fit:
                estimator.fit()
        assert len(checked) > 20 and max(checked) == 200

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_running_sums_equal_a_fresh_gram_after_drops(self, mode):
        window = SpeedSamples(mode, 256, max_samples=50)
        for step, (p, w, speed) in enumerate(random_stream(7, mode, length=500)):
            window.add(p, w, speed)
            if step % 50 == 49:
                assert_same_sums(snapshot(window.normal), fresh_normal(window, mode))
        assert len(window) == 50
        fit = fit_speed_model(window, mode, global_batch=256)
        direct = sum((fit.predict(p, w) - v) ** 2 for p, w, v in window)
        assert fit.residual == pytest.approx(direct, rel=1e-9)

    def test_unchanged_support_refits_in_one_solve(self, monkeypatch, truth):
        estimator = SpeedEstimator("sync", global_batch=256)
        estimator.bootstrap(measure=lambda p, w: truth.speed(p, w), num_samples=8, seed=2)
        support = np.array(estimator.fit().thetas) > 0
        calls = []
        solve = nnls_module._solve_passive

        def counting(normal, cols):
            calls.append(list(cols))
            return solve(normal, cols)

        monkeypatch.setattr(nnls_module, "_solve_passive", counting)
        # A sample on the fitted curve leaves the least-squares solution,
        # and so the support, where it was.
        estimator.add_sample(4, 4, estimator.predict(4, 4))
        refit = estimator.fit()
        assert (np.array(refit.thetas) > 0).tolist() == support.tolist()
        assert calls == [np.flatnonzero(support).tolist()]
