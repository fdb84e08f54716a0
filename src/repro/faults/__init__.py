"""Seeded fault injection and recovery (§5.4–§5.5 robustness).

Optimus claims fault tolerance through etcd-persisted job state and
checkpoint-based restarts; this package makes that claim testable. It
provides:

* :class:`FaultConfig` -- stochastic fault rates (node MTBF, task crash
  probability, checkpoint loss, KV error rate);
* :class:`FaultPlan` / :class:`NodeCrash` / :class:`TaskCrash` /
  :class:`CheckpointLoss` -- scripted, deterministic fault schedules;
* :class:`FaultInjector` -- turns config + plan + a ``RandomSource`` seed
  into per-interval fault events for the sim engine (falsy when disabled,
  like the ``repro.obs`` null objects, so disabled runs are bit-identical
  to a build without fault code);
* :class:`FlakyKVStore` / :class:`RetryingKVStore` -- KV-substrate fault
  injection and the matching retry/backoff recovery wrapper.

See ``docs/fault_tolerance.md`` for the fault model and recovery
semantics.
"""

from repro.common.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".config": ("FaultConfig",),
        ".plan": ("FaultPlan", "NodeCrash", "TaskCrash", "CheckpointLoss"),
        ".crashpoints": (
            "ControllerCrash", "CrashPointInjector", "CRASH_POINTS", "RECONCILE_CRASH_POINTS",
            "CRASH_AFTER_CHECKPOINT", "CRASH_AFTER_TEARDOWN", "CRASH_MID_LAUNCH",
            "CRASH_AFTER_LAUNCH", "CRASH_BEFORE_CAMPAIGN", "CRASH_AFTER_ELECTED",
            "CRASH_MID_STEP_DEPOSED",
        ),
        ".injector": ("FaultInjector", "IntervalFaults", "NodeOutage"),
        ".kv": ("FlakyKVStore", "RetryingKVStore"),
    },
)
