"""Model fitting: NNLS solver, §3.1 preprocessing, Eqn-1/3/4 fitters."""

from repro.fitting.loss_curve import (
    MIN_POINTS,
    LossCurveFit,
    fit_loss_curve,
)
from repro.fitting.nnls import LineNNLS, nnls, nnls_fit
from repro.fitting.preprocess import (
    normalize,
    preprocess_losses,
    remove_outliers,
    subsample,
)
from repro.fitting.speed_model import (
    MIN_SAMPLES,
    SpeedModelFit,
    SpeedSample,
    fit_speed_model,
    sample_configurations,
)

__all__ = [
    "LineNNLS",
    "nnls",
    "nnls_fit",
    "remove_outliers",
    "normalize",
    "preprocess_losses",
    "subsample",
    "LossCurveFit",
    "fit_loss_curve",
    "MIN_POINTS",
    "SpeedModelFit",
    "SpeedSample",
    "fit_speed_model",
    "sample_configurations",
    "MIN_SAMPLES",
]
