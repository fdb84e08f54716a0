"""Tests for the Eqn-1 convergence-curve fitter."""


import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.fitting.loss_curve as loss_curve
from repro.common.errors import FittingError
from repro.fitting.loss_curve import LossCurveFit, fit_loss_curve
from repro.fitting.nnls import LineNNLS
from repro.fitting.preprocess import preprocess_losses
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


def seeded_eqn1(seed, m, k_max, outliers, scale=1.0):
    """``m`` distinct steps in ``[0, k_max]`` of a random Eqn-1 curve with
    2% multiplicative noise, ``outliers`` spikes or dips, times *scale*."""
    rng = random.Random(seed)
    b0 = 10 ** rng.uniform(-5, -2)
    b1 = rng.uniform(0.5, 2.0)
    b2 = rng.uniform(0.0, 0.4)
    steps = sorted(rng.sample(range(0, int(k_max) + 1), m))
    losses = [
        scale * (1.0 / (b0 * k + b1) + b2) * (1.0 + rng.gauss(0.0, 0.02)) for k in steps
    ]
    for _ in range(outliers):
        losses[rng.randrange(m)] *= rng.choice((3.0, 0.2))
    return steps, losses


def superlinear(m, k_max, c, power, offset):
    """``1/(l - offset)`` grows like ``k**power``: the least-squares line has
    a negative intercept, so candidates clamp to ``b1 = 0`` and fail the
    ``b0*k + b1 > 0`` check at ``k = 0``."""
    steps = [k_max * i / (m - 1) for i in range(m)]
    return steps, [1.0 / (c * k**power / k_max ** (power - 2) + 1.0) + offset for k in steps]


def degenerate_design():
    """Every step equal: the general Lawson-Hanson solver handles it."""
    rng = random.Random(12)
    return [250.0] * 9, [0.5 * (1.0 + rng.gauss(0.0, 0.05)) for _ in range(9)]


#: name -> (observations, preprocess).
EXACT_CASES = {
    "m4-pre": (seeded_eqn1(0, 4, 10, 0), True),
    "m4-raw": (seeded_eqn1(1, 4, 10, 0), False),
    "m12-spike-pre": (seeded_eqn1(2, 12, 500, 1), True),
    "m12-spike-raw": (seeded_eqn1(3, 12, 500, 1), False),
    "m40-pre": (seeded_eqn1(4, 40, 5_000, 2), True),
    "m40-raw": (seeded_eqn1(5, 40, 5_000, 0), False),
    "m125-pre": (seeded_eqn1(6, 125, 20_000, 4), True),
    "m125-raw": (seeded_eqn1(7, 125, 20_000, 4), False),
    "m250-pre": (seeded_eqn1(8, 250, 60_000, 6), True),
    "m250-raw": (seeded_eqn1(9, 250, 100_000, 0), False),
    "m400-pre": (seeded_eqn1(10, 400, 100_000, 10), True),
    "m400-raw": (seeded_eqn1(11, 400, 100_000, 10), False),
    # Golden-section candidates fail the ``min(l) - b2 > 1e-9`` check.
    "tiny-losses-raw": (seeded_eqn1(14, 60, 30_000, 2, scale=2e-8), False),
    # Grid candidates, and one golden-section candidate, fail the
    # ``b0*min(k) + b1 > 1e-12`` check.
    "quadratic-pre": (superlinear(50, 1e4, 1e-6, 2, 0.05), True),
    "quadratic-raw": (superlinear(50, 1e4, 1e-6, 2, 0.05), False),
    "cubic-raw": (superlinear(50, 1e4, 1e-4, 3, 0.05), False),
    # Every candidate fails: no fit.
    "quadratic-no-floor-raw": (superlinear(50, 1e4, 1e-6, 2, 0.0), False),
    "degenerate-pre": (degenerate_design(), True),
    "degenerate-raw": (degenerate_design(), False),
}

#: ``(beta0, beta1, beta2, residual)`` as float hex, recorded when every
#: candidate's admissibility was checked with full-array ``min`` reductions.
EXACT_FITS = {
    'cubic-raw': (
        '0x1.ef8f71e134442p-5', '0x1.fcbe9370f5800p-1',
        '0x1.8a37ee279493ap-5', '0x1.34b5cd8cd197ap-3',
    ),
    'degenerate-pre': (
        '0x1.1ee9fa4d2bbc2p-8', '0x0.0p+0',
        '0x0.0p+0', '0x1.4a6bd6f9b9202p-5',
    ),
    'degenerate-raw': (
        '0x1.068034033ae64p-7', '0x0.0p+0',
        '0x0.0p+0', '0x1.687e9e4ccfefcp-6',
    ),
    'm12-spike-pre': (
        '0x0.0p+0', '0x1.adbf15403c630p+0',
        '0x0.0p+0', '0x1.c9e8e3ebd6a34p-3',
    ),
    'm12-spike-raw': (
        '0x1.b52599853e10ap-11', '0x1.ada6aa20fec4ap-1',
        '0x0.0p+0', '0x1.071d5d4e76993p-1',
    ),
    'm125-pre': (
        '0x1.bfb705cf509fep-10', '0x1.4f45869dbc190p+0',
        '0x1.08ace235ede3ap-2', '0x1.c64d9aa7509c9p-8',
    ),
    'm125-raw': (
        '0x1.c59944d3d1dc9p-15', '0x1.51ba54c9860d0p-1',
        '0x0.0p+0', '0x1.152018b7aba02p-2',
    ),
    'm250-pre': (
        '0x1.9554dee108ceap-16', '0x1.14f7921d96642p+0',
        '0x1.daf2b4d383ef8p-5', '0x1.c70ef9b3cf450p-7',
    ),
    'm250-raw': (
        '0x1.ffa201182cfcap-13', '0x1.132af8f6aeee0p+0',
        '0x1.c3ddaa27fe2b9p-5', '0x1.40a7038a5356ap-8',
    ),
    'm4-pre': (
        '0x1.9e4a8b99ed165p-3', '0x1.f8bb8d5e0e642p+1',
        '0x1.8e2398ef11e6cp-1', '0x1.0669934c4779dp-6',
    ),
    'm4-raw': (
        '0x0.0p+0', '0x1.25639e5b65af9p+0',
        '0x0.0p+0', '0x1.a6180a2325d96p-7',
    ),
    'm40-pre': (
        '0x1.1e8dbdf6f67eap-14', '0x1.0115b3136913ep+0',
        '0x0.0p+0', '0x1.2ac2eb334e04bp-6',
    ),
    'm40-raw': (
        '0x1.82edefda430dcp-11', '0x1.9359a946e4f35p+0',
        '0x1.4223fd02e24bcp-2', '0x1.906e83da2053cp-7',
    ),
    'm400-pre': (
        '0x1.04decfe265e8cp-11', '0x1.2633b6126bfd0p+0',
        '0x1.d7a071a1d4d79p-3', '0x1.d08d0893c67fdp-8',
    ),
    'm400-raw': (
        '0x1.d6018dc35d96cp-17', '0x1.894513e0d4792p+0',
        '0x0.0p+0', '0x1.f6a4107a6acf6p-4',
    ),
    'quadratic-no-floor-raw': None,
    'quadratic-pre': (
        '0x1.20402b553e98ap-9', '0x1.baf9d17a0ba80p-1',
        '0x1.11993101019a3p-7', '0x1.59c1d09d0029fp-4',
    ),
    'quadratic-raw': (
        '0x1.1286417eb67dap-9', '0x1.a5e1bc111b540p-1',
        '0x1.1f473f60b96d3p-7', '0x1.6b0b8171a6929p-4',
    ),
    'tiny-losses-raw': (
        '0x1.6a0023205ff10p+14', '0x1.2a34d9306c818p+26',
        '0x1.c72fb429dbd7ap-27', '0x1.990ec9b75c789p-28',
    ),
}


def golden_fit(steps, losses, preprocess, grid_size=24, refine_iters=40):
    """The Eqn-1 fit with the 40-step golden-section ``b2`` search that
    Brent's method replaced: the same grid pass and candidate kernel, then
    exactly ``2 + refine_iters`` candidates. Returns ``(b0, b1, b2, rmse)``
    or ``None`` when no candidate is admissible."""
    if preprocess:
        k, vals, _ = preprocess_losses(steps, losses)
    else:
        order = np.argsort(np.asarray(steps, dtype=float))
        k = np.asarray(steps, dtype=float)[order]
        vals = np.asarray(losses, dtype=float)[order]
    min_loss, min_step = float(vals.min()), float(k.min())
    try:
        line = LineNNLS(k)
    except FittingError:
        line = None
    best = None

    def record(beta2, result):
        nonlocal best
        if result is None:
            return math.inf
        if best is None or result[2] < best[3]:
            best = (result[0], result[1], float(beta2), result[2])
        return result[2]

    def consider(beta2):
        return record(beta2, loss_curve._nnls_for_beta2(k, vals, beta2, line, min_step, min_loss))

    grid = np.linspace(0.0, min_loss * 0.999, grid_size)
    results = loss_curve._nnls_for_grid(k, vals, grid, line, min_step, min_loss)
    scores = [record(b2, result) for b2, result in zip(grid, results)]
    best_idx = int(np.argmin(scores))
    a = grid[max(best_idx - 1, 0)]
    b = grid[min(best_idx + 1, grid_size - 1)]
    if b > a:
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = consider(c), consider(d)
        for _ in range(refine_iters):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = consider(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = consider(d)
    return best


def fit_residual(steps, losses, preprocess):
    """``fit_loss_curve``'s residual, or ``None`` when it cannot fit."""
    try:
        return fit_loss_curve(steps, losses, preprocess=preprocess).residual
    except FittingError:
        return None


def count_candidates(monkeypatch):
    """Count the ``b2`` candidates scored one at a time (the grid is not)."""
    calls = []
    kernel = loss_curve._nnls_for_beta2

    def counting(*args):
        calls.append(args[2])
        return kernel(*args)

    monkeypatch.setattr(loss_curve, "_nnls_for_beta2", counting)
    return calls


class TestScalarCandidateChecks:
    """The b2 candidates' admissibility checks run on per-fit scalars
    (``min(l) - b2`` and ``b0*min(k) + b1``); every fit of the golden-section
    driver must be exactly the one the array reductions chose."""

    @pytest.mark.parametrize("name", sorted(EXACT_CASES))
    def test_fit_is_bit_identical(self, name):
        (steps, losses), preprocess = EXACT_CASES[name]
        fit = golden_fit(steps, losses, preprocess)
        if EXACT_FITS[name] is None:
            assert fit is None
            with pytest.raises(FittingError, match="could not fit"):
                fit_loss_curve(steps, losses, preprocess=preprocess)
            return
        assert tuple(float(v).hex() for v in fit) == EXACT_FITS[name]


def sweep_history(seed):
    """History *seed* of the sweep: m in [4, 400], preprocess alternating."""
    rng = random.Random(10_000 + seed)
    m = rng.randint(4, 400)
    k_max = max(m, rng.choice((10, 500, 5_000, 60_000, 100_000, 1_000_000)))
    steps, losses = seeded_eqn1(seed, m, k_max, rng.randint(0, m // 20))
    return steps, losses, seed % 2 == 0


class TestBrentSearch:
    """Brent's ``b2`` search ends at the golden-section search's bracket
    width, so it finds the same residual with fewer candidates."""

    @pytest.mark.parametrize("name", sorted(EXACT_CASES))
    def test_residual_matches_golden_driver(self, name):
        (steps, losses), preprocess = EXACT_CASES[name]
        golden = golden_fit(steps, losses, preprocess)
        residual = fit_residual(steps, losses, preprocess)
        if golden is None:
            assert residual is None
        else:
            assert residual == pytest.approx(golden[3], rel=1e-12, abs=0.0)

    def test_seeded_sweep_against_golden_driver(self, monkeypatch):
        """Same failures, no residual more than 1e-7 above the golden
        search's, and at most 42 candidates. Both searches assume one
        minimum per cell pair; where a noisy history has two, either may
        settle in the other (about 1 history in 3,000 of this generator,
        either way round, none of them in this sweep)."""
        calls = count_candidates(monkeypatch)
        for seed in range(1_000):
            steps, losses, preprocess = sweep_history(seed)
            del calls[:]
            residual = fit_residual(steps, losses, preprocess)
            assert len(calls) <= 42, seed
            golden = golden_fit(steps, losses, preprocess)
            if golden is None or residual is None:
                assert golden is None and residual is None, seed
            else:
                assert residual <= golden[3] + 1e-7, seed

    def test_smooth_curve_needs_few_candidates(self, monkeypatch):
        calls = count_candidates(monkeypatch)
        fit_loss_curve(*noisy_eqn1(*PINNED_CURVES["smooth"]))
        assert 0 < len(calls) < 24

    @pytest.mark.parametrize("refine_iters", [0, 1, 5, 12])
    def test_refine_iters_caps_candidates(self, monkeypatch, refine_iters):
        calls = count_candidates(monkeypatch)
        for seed in range(20):
            steps, losses, preprocess = sweep_history(seed)
            del calls[:]
            try:
                fit_loss_curve(steps, losses, preprocess=preprocess, refine_iters=refine_iters)
            except FittingError:
                pass
            assert len(calls) <= refine_iters + 2
