"""Tests for the §3.1 preprocessing pipeline."""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import FittingError
from repro.fitting.preprocess import (
    normalize,
    preprocess_losses,
    remove_outliers,
    subsample,
)


class TestRemoveOutliers:
    def test_clean_data_unchanged(self):
        values = [10.0, 9.0, 8.0, 7.5, 7.0, 6.8, 6.5]
        assert remove_outliers(values).tolist() == values

    def test_spike_replaced(self):
        values = [10.0, 9.0, 8.0, 50.0, 7.0, 6.8, 6.5, 6.3, 6.2]
        cleaned = remove_outliers(values).tolist()
        assert cleaned[3] < 15.0
        # Everything else untouched.
        assert cleaned[:3] == values[:3]
        assert cleaned[4:] == values[4:]

    def test_dip_replaced(self):
        values = [10.0, 9.0, 8.0, 0.01, 7.0, 6.8, 6.5, 6.3, 6.2]
        cleaned = remove_outliers(values)
        assert cleaned[3] > 1.0

    def test_boundaries_kept(self):
        values = [100.0, 9.0, 8.0, 7.0, 6.0, 5.0, 0.001]
        cleaned = remove_outliers(values)
        assert cleaned[0] == 100.0  # no preceding window: kept as-is
        assert cleaned[-1] == 0.001  # no following window: kept as-is

    def test_short_sequences_passthrough(self):
        assert remove_outliers([5.0]).tolist() == [5.0]
        assert remove_outliers([5.0, 4.0]).tolist() == [5.0, 4.0]

    def test_window_validation(self):
        with pytest.raises(FittingError):
            remove_outliers([1, 2, 3], window=0)
        with pytest.raises(FittingError):
            remove_outliers([1, 2, 3], margin=-0.1)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.1, 100.0, allow_nan=False), min_size=3, max_size=60)
    )
    def test_output_within_data_envelope(self, values):
        cleaned = remove_outliers(values)
        assert len(cleaned) == len(values)
        assert min(cleaned) >= min(values) - 1e-9
        assert max(cleaned) <= max(values) + 1e-9


def loop_remove_outliers(values, window=5, margin=0.05):
    """The per-point loop that ``remove_outliers`` replaced, kept verbatim
    as its reference."""
    data = [float(v) for v in values]
    n = len(data)
    if n <= 2:
        return data
    cleaned = list(data)
    for i in range(n):
        prev_window = data[max(0, i - window) : i]
        next_window = data[i + 1 : i + 1 + window]
        if not prev_window or not next_window:
            continue
        upper = max(prev_window) * (1.0 + margin)
        lower = min(next_window) * (1.0 - margin)
        if data[i] > upper or data[i] < lower:
            cleaned[i] = float(np.mean(prev_window + next_window))
    return cleaned


@st.composite
def loss_series(draw):
    """Decaying noisy losses, some spiked or dipped, some tied, of length
    0..60; values are drawn from a coarse grid so ties are common."""
    n = draw(st.integers(0, 60))
    base = draw(st.floats(0.5, 10.0))
    noise = st.sampled_from([0.0, 0.01, 0.02, 0.05])
    values = [
        round(base / (1.0 + 0.1 * i) * (1.0 + draw(noise) * draw(st.sampled_from([-1, 1]))), 2)
        for i in range(n)
    ]
    if n > 1:
        for _ in range(draw(st.integers(0, 4))):  # spikes and dips
            i = draw(st.integers(0, n - 1))
            values[i] *= draw(st.sampled_from([5.0, 3.0, 0.2, 0.01]))
        for _ in range(draw(st.integers(0, 3))):  # ties with the previous point
            i = draw(st.integers(1, n - 1))
            values[i] = values[i - 1]
    return values


def windowed_remove_outliers(values, window=5, margin=0.05):
    """The sliding-window pass ``remove_outliers`` used before its shifted
    max/min passes, kept verbatim as their bit-for-bit reference."""
    from numpy.lib.stride_tricks import sliding_window_view

    arr = np.array(values, dtype=float)
    n = arr.size
    if n <= 2:
        return arr
    span = min(window, n)
    pad = np.full(span, np.inf)
    prev_max = sliding_window_view(np.concatenate((-pad, arr)), span).max(axis=1)[:n]
    next_min = sliding_window_view(np.concatenate((arr, pad)), span).min(axis=1)[1:]
    flagged = (arr > prev_max * (1.0 + margin)) | (arr < next_min * (1.0 - margin))
    cleaned = arr.copy()
    for i in np.flatnonzero(flagged[1:-1]) + 1:
        neighbours = np.concatenate((arr[max(0, i - window) : i], arr[i + 1 : i + 1 + window]))
        cleaned[i] = neighbours.mean()
    return cleaned


#: Values from a small pool, so repeats are common, with both infinities.
POOLED_VALUES = st.lists(
    st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.5, 7.0, 1e-3, np.inf, -np.inf])
    | st.floats(-10.0, 10.0, allow_nan=False),
    max_size=40,
)


class TestShiftedPassesMatchWindows:
    """The shifted max/min passes reproduce the sliding-window pass bit for
    bit, ties and infinities included (where the per-point loop's mean is
    not a meaningful reference)."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=POOLED_VALUES | loss_series(),
        window=st.integers(1, 12),
        margin=st.sampled_from([0.0, 0.05, 0.2]),
    )
    def test_bit_identical(self, values, window, margin):
        with np.errstate(invalid="ignore"):  # inf - inf in a neighbour mean
            expected = windowed_remove_outliers(values, window, margin)
            got = remove_outliers(values, window, margin)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


class TestWindowedOutlierPass:
    """The vectorised pass must reproduce the per-point loop exactly."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=loss_series(),
        window=st.integers(1, 8),
        margin=st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.2]) | st.floats(0.0, 0.2),
    )
    def test_matches_loop(self, values, window, margin):
        assert remove_outliers(values, window, margin).tolist() == loop_remove_outliers(
            values, window, margin
        )

    @pytest.mark.parametrize("window", [1, 2, 5, 8, 60])
    def test_edges_and_wide_windows(self, window):
        # A spike right after the first point and a dip right before the
        # last: the ∓inf padding must leave both windows their real values.
        values = [10.0, 40.0, 8.0, 7.0, 7.0, 6.0, 5.5, 0.1, 5.0]
        cleaned = remove_outliers(values, window).tolist()
        assert cleaned == loop_remove_outliers(values, window)
        assert cleaned[1] != 40.0 and cleaned[-2] != 0.1

    def test_all_equal_values_unchanged(self):
        assert remove_outliers([3.0] * 12, window=4, margin=0.0).tolist() == [3.0] * 12


class TestNormalize:
    def test_max_maps_to_one(self):
        normalised, scale = normalize([2.0, 4.0, 1.0])
        assert scale == 4.0
        assert max(normalised) == 1.0

    def test_preserves_ratios(self):
        normalised, _ = normalize([2.0, 4.0])
        assert normalised.tolist() == [0.5, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(FittingError):
            normalize([])

    def test_nonpositive_rejected(self):
        with pytest.raises(FittingError):
            normalize([0.0, -1.0])


class TestPreprocessLosses:
    def test_sorts_by_step(self):
        steps = [30, 10, 20]
        losses = [3.0, 9.0, 6.0]
        sorted_steps, normalised, scale = preprocess_losses(steps, losses)
        assert list(sorted_steps) == [10, 20, 30]
        assert normalised[0] == pytest.approx(1.0)

    def test_scale_returned(self):
        _, normalised, scale = preprocess_losses([0, 1], [8.0, 4.0])
        assert scale == 8.0
        assert normalised[1] == pytest.approx(0.5)

    def test_mismatched_lengths(self):
        with pytest.raises(FittingError):
            preprocess_losses([1, 2], [1.0])

    def test_empty(self):
        with pytest.raises(FittingError):
            preprocess_losses([], [])


class TestSubsample:
    def test_short_input_untouched(self):
        steps, losses = subsample([1, 2, 3], [4.0, 5.0, 6.0], max_points=10)
        assert steps.dtype == losses.dtype == np.float64
        assert steps.tolist() == [1.0, 2.0, 3.0]
        assert losses.tolist() == [4.0, 5.0, 6.0]

    @pytest.mark.parametrize("n", [3, 1000])
    def test_returns_new_arrays_not_views(self, n):
        # The estimator thins its array('d') history through here; a view
        # kept past the call would pin that buffer against appends.
        history = array("d", range(n))
        steps, losses = subsample(history, history, max_points=100)
        assert steps.base is None and losses.base is None
        history.append(float(n))  # raises BufferError while a view exists

    def test_thins_long_input(self):
        steps = list(range(1000))
        losses = [float(s) for s in steps]
        s, thinned = subsample(steps, losses, max_points=100)
        assert len(s) <= 100
        assert s[0] == 0 and s[-1] == 999  # endpoints preserved
        assert thinned.tolist() == s.tolist()  # pairs stay aligned

    def test_validation(self):
        with pytest.raises(FittingError):
            subsample([1], [1.0], max_points=1)
        with pytest.raises(FittingError):
            subsample([1, 2], [1.0], max_points=5)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 500), cap=st.integers(2, 50))
    def test_respects_cap_and_order(self, n, cap):
        steps = list(range(n))
        losses = [float(i) for i in range(n)]
        s, _ = subsample(steps, losses, max_points=cap)
        assert len(s) <= cap
        assert s.tolist() == sorted(s.tolist())
