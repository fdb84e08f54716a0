"""Workload substrate: the Table-1 model zoo and its ground-truth dynamics.

Everything the simulated cluster "runs" comes from here: model profiles with
calibrated loss curves and Eqn-2 timing constants, noisy loss/speed
observation generators, job specifications and arrival processes.
"""

from repro.common.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".profiles": (
            "MODEL_ZOO", "ModelProfile", "LossCurveTruth", "get_profile", "zoo_names",
            "solve_tail_scale",
        ),
        ".loss": ("LossEmitter", "LossObservation", "epoch_averaged"),
        ".lr_schedule": ("SteppedLossCurve", "with_lr_drops"),
        ".trace": (
            "job_to_dict", "job_from_dict", "jobs_to_json", "jobs_from_json", "save_trace",
            "load_trace",
        ),
        ".valmetrics": ("EpochMetrics", "ValidationEmitter", "no_overfitting"),
        ".speed": (
            "StepTimeModel", "StepBreakdown", "straggler_step_time", "MODE_SYNC", "MODE_ASYNC",
            "MODES", "validate_mode",
        ),
        ".job": ("JobSpec", "make_job", "DEFAULT_WORKER_DEMAND", "DEFAULT_PS_DEMAND"),
        ".arrivals": (
            "uniform_arrivals", "poisson_arrivals", "google_trace_arrivals", "diurnal_arrivals",
            "bursty_arrivals",
        ),
        ".csvtrace": ("jobs_from_csv", "load_csv_trace"),
    },
)
