"""Model fitting: NNLS solver, §3.1 preprocessing, Eqn-1/3/4 fitters."""

from repro.common.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".nnls": ("LineNNLS", "nnls", "nnls_fit"),
        ".preprocess": ("remove_outliers", "normalize", "preprocess_losses", "subsample"),
        ".loss_curve": ("LossCurveFit", "fit_loss_curve", "MIN_POINTS"),
        ".speed_model": (
            "SpeedModelFit", "SpeedSample", "fit_speed_model", "sample_configurations",
            "MIN_SAMPLES",
        ),
    },
)
