"""Tests for the model zoo and loss-curve ground truth."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.workloads.profiles import (
    MODEL_ZOO,
    LossCurveTruth,
    get_profile,
    solve_tail_scale,
    zoo_names,
)


class TestZoo:
    def test_has_nine_table1_models(self):
        assert len(MODEL_ZOO) == 9

    def test_lookup(self):
        assert get_profile("resnet-50").params_million == 25.0

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError):
            get_profile("alexnet")

    def test_zoo_names_stable(self):
        assert zoo_names() == tuple(MODEL_ZOO)

    def test_table1_parameter_counts(self):
        # The public Table-1 metadata must match the paper.
        expected = {
            "resnext-110": 1.7,
            "resnet-50": 25.0,
            "inception-bn": 11.3,
            "kaggle-ndsb": 1.4,
            "cnn-rand": 6.0,
            "dssm": 1.5,
            "rnn-lstm": 4.7,
            "seq2seq": 9.1,
            "deepspeech2": 38.0,
        }
        for name, params in expected.items():
            assert MODEL_ZOO[name].params_million == params

    def test_table1_dataset_sizes(self):
        assert MODEL_ZOO["resnet-50"].dataset_examples == 1_313_788
        assert MODEL_ZOO["cnn-rand"].dataset_examples == 10_662
        assert MODEL_ZOO["deepspeech2"].dataset_examples == 45_000

    def test_network_types(self):
        assert MODEL_ZOO["resnet-50"].network_type == "CNN"
        assert MODEL_ZOO["seq2seq"].network_type == "RNN"

    def test_model_size_bytes(self):
        # 25M float32 parameters = 100 MB.
        assert MODEL_ZOO["resnet-50"].model_size_bytes == pytest.approx(1e8)

    def test_calibration_hits_target_epochs(self):
        for profile in MODEL_ZOO.values():
            actual = profile.loss.epochs_to_converge(0.002)
            assert actual == profile.target_epochs, profile.name

    def test_fig2_span_minutes_to_days(self):
        times = {n: p.single_gpu_training_time() for n, p in MODEL_ZOO.items()}
        assert times["cnn-rand"] < 600  # minutes
        assert times["resnet-50"] > 5 * 86400  # many days
        assert min(times, key=times.get) == "cnn-rand"
        assert max(times, key=times.get) == "resnet-50"

    def test_steps_per_epoch_modes(self):
        profile = MODEL_ZOO["resnet-50"]
        sync = profile.steps_per_epoch("sync")
        async_ = profile.steps_per_epoch("async")
        assert sync == pytest.approx(1_313_788 / 256)
        assert async_ == pytest.approx(1_313_788 / 32)

    def test_steps_per_epoch_scaling(self):
        profile = MODEL_ZOO["resnet-50"]
        assert profile.steps_per_epoch("sync", 0.5) == pytest.approx(
            profile.steps_per_epoch("sync") / 2
        )

    def test_steps_per_epoch_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            MODEL_ZOO["resnet-50"].steps_per_epoch("sync", 0.0)

    def test_with_overrides(self):
        profile = MODEL_ZOO["cnn-rand"].with_overrides(backward_time=9.0)
        assert profile.backward_time == 9.0
        assert MODEL_ZOO["cnn-rand"].backward_time != 9.0


class TestParameterBlocks:
    def test_deterministic(self):
        a = MODEL_ZOO["resnet-50"].parameter_blocks()
        b = MODEL_ZOO["resnet-50"].parameter_blocks()
        assert a == b

    def test_count_and_total(self):
        profile = MODEL_ZOO["resnet-50"]
        blocks = profile.parameter_blocks()
        assert len(blocks) == profile.num_param_blocks
        assert sum(blocks) == pytest.approx(25e6, rel=1e-6)

    def test_large_models_have_slicing_triggers(self):
        # MXNet's default threshold is 1e6 parameters; big models must have
        # at least one block above it so the §5.3 imbalance can manifest.
        for name in ("resnet-50", "deepspeech2", "inception-bn"):
            blocks = MODEL_ZOO[name].parameter_blocks()
            assert max(blocks) > 1e6, name

    def test_all_blocks_positive(self):
        for profile in MODEL_ZOO.values():
            assert all(b > 0 for b in profile.parameter_blocks())


class TestLossCurveTruth:
    @pytest.fixture
    def curve(self):
        return LossCurveTruth(plateau=0.1, exp_weight=0.4, exp_rate=0.3, tail_scale=0.05)

    def test_starts_at_one(self, curve):
        assert curve.loss(0) == pytest.approx(1.0)

    def test_monotone_decreasing(self, curve):
        values = [curve.loss(e) for e in range(0, 200, 5)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bounded_below_by_plateau(self, curve):
        assert curve.loss(10_000) > curve.plateau

    def test_epoch_decrease_positive_and_shrinking(self, curve):
        decreases = [curve.epoch_decrease(e) for e in range(1, 50)]
        assert all(d > 0 for d in decreases)
        assert decreases[0] > decreases[-1]

    def test_convergence_monotone_in_threshold(self, curve):
        tight = curve.epochs_to_converge(0.0005)
        loose = curve.epochs_to_converge(0.01)
        assert tight >= loose

    def test_patience_delays_convergence(self, curve):
        assert curve.epochs_to_converge(0.002, patience=5) >= curve.epochs_to_converge(
            0.002, patience=1
        )

    def test_invalid_inputs(self, curve):
        with pytest.raises(ConfigurationError):
            curve.loss(-1)
        with pytest.raises(ConfigurationError):
            curve.epoch_decrease(0)
        with pytest.raises(ConfigurationError):
            curve.epochs_to_converge(0)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            LossCurveTruth(plateau=1.5, exp_weight=0.1, exp_rate=1, tail_scale=1)
        with pytest.raises(ConfigurationError):
            LossCurveTruth(plateau=0.5, exp_weight=0.6, exp_rate=1, tail_scale=1)
        with pytest.raises(ConfigurationError):
            LossCurveTruth(plateau=0.1, exp_weight=0.1, exp_rate=0, tail_scale=1)


class TestSolveTailScale:
    @settings(max_examples=25, deadline=None)
    @given(
        plateau=st.floats(0.02, 0.3),
        exp_weight=st.floats(0.1, 0.5),
        target=st.integers(5, 60),
    )
    def test_solution_hits_target_when_feasible(self, plateau, exp_weight, target):
        tail_weight = 1 - plateau - exp_weight
        max_epochs = tail_weight / (4 * 0.002)
        # The exponential component alone sets a floor on the convergence
        # epoch no tail_scale can undercut.
        min_epochs = LossCurveTruth(
            plateau, exp_weight, 0.3, 1e-8
        ).epochs_to_converge(0.002)
        scale = solve_tail_scale(plateau, exp_weight, 0.3, target)
        curve = LossCurveTruth(plateau, exp_weight, 0.3, scale)
        achieved = curve.epochs_to_converge(0.002)
        if min_epochs <= target <= max_epochs * 0.9:
            # Feasible targets are hit within the integer-rounding slack.
            assert abs(achieved - target) <= 2
        else:
            # Infeasible targets saturate at the family's floor/ceiling
            # (the exponential term can stretch the hyperbolic-only
            # ceiling by up to its own floor).
            assert achieved <= max_epochs + min_epochs + 3
            assert achieved >= min(min_epochs, target) - 2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            solve_tail_scale(0.6, 0.5, 0.3, 10)  # weights sum past 1
        with pytest.raises(ConfigurationError):
            solve_tail_scale(0.1, 0.4, 0.3, 0)


class TestPinnedCalibration:
    """The zoo's calibrated ``tail_scale`` (as ``float.hex``) and the
    convergence epochs of each calibrated curve, recorded so that any change
    to the §2.1 stopping-rule scan shows up as a drift."""

    #: name -> (tail_scale hex, epochs_to_converge at THRESHOLDS x PATIENCES).
    PINNED = {
        "resnext-110": ("0x1.785a9b05dcbb4p-7", (20, 21, 24, 49, 50, 53, 168, 169, 172)),
        "resnet-50": ("0x1.5eba876319029p-7", (17, 18, 21, 54, 55, 58, 198, 199, 202)),
        "inception-bn": ("0x1.58ed2308158edp-6", (16, 17, 20, 49, 50, 53, 144, 145, 148)),
        "kaggle-ndsb": ("0x1.534e35484ecf3p-7", (12, 13, 16, 44, 45, 48, 182, 183, 186)),
        "cnn-rand": ("0x1.c98ae39c35a4cp-9", (7, 8, 11, 11, 12, 15, 129, 130, 133)),
        "dssm": ("0x1.8da90a4e1df41p-8", (9, 10, 13, 19, 20, 23, 185, 186, 189)),
        "rnn-lstm": ("0x1.183c1fba26e39p-7", (12, 13, 16, 39, 40, 43, 190, 191, 194)),
        "seq2seq": ("0x1.9ffdac19d271dp-8", (14, 15, 18, 49, 50, 53, 252, 253, 256)),
        "deepspeech2": ("0x1.38a19f8df25a7p-7", (16, 17, 20, 59, 60, 63, 220, 221, 224)),
    }
    THRESHOLDS = (0.01, 0.002, 0.0005)
    PATIENCES = (1, 2, 5)

    def test_tail_scales_and_convergence_epochs(self):
        observed = {
            name: (
                profile.loss.tail_scale.hex(),
                tuple(
                    profile.loss.epochs_to_converge(threshold, patience)
                    for threshold in self.THRESHOLDS
                    for patience in self.PATIENCES
                ),
            )
            for name, profile in MODEL_ZOO.items()
        }
        assert observed == self.PINNED
