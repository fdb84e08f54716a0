"""Deployment-mode plumbing: the §5.5 poll/schedule/reconcile loop and the
crash and failover drills over it (:mod:`repro.deploy.drill`)."""

from repro.deploy.drill import (
    CrashDrillConfig,
    CrashDrillOutcome,
    FailoverConfig,
    FailoverOutcome,
    run_crash_drill,
    run_failover_drill,
)
from repro.deploy.loop import ControlLoop, StepReport, cluster_from_api

__all__ = [
    "ControlLoop",
    "StepReport",
    "cluster_from_api",
    "CrashDrillConfig",
    "CrashDrillOutcome",
    "run_crash_drill",
    "FailoverConfig",
    "FailoverOutcome",
    "run_failover_drill",
]
