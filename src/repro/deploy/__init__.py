"""Deployment-mode plumbing: the §5.5 poll/schedule/reconcile loop and the
crash and failover drills over it (:mod:`repro.deploy.drill`)."""

from repro.common.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".loop": ("ControlLoop", "StepReport", "cluster_from_api"),
        ".drill": (
            "CrashDrillConfig", "CrashDrillOutcome", "run_crash_drill", "FailoverConfig",
            "FailoverOutcome", "run_failover_drill",
        ),
    },
)
