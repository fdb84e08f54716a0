"""Shared low-level helpers used by every other ``repro`` subpackage.

This package deliberately contains no scheduling logic; it only provides

* :mod:`repro.common.errors` -- the exception hierarchy,
* :mod:`repro.common.rand` -- seeded random-number plumbing,
* :mod:`repro.common.retry` -- bounded retry with exponential backoff,
* :mod:`repro.common.units` -- byte/time unit helpers and formatting.
"""

from repro.common.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".errors": (
            "CapacityError", "ConfigurationError", "FittingError", "PlacementError", "ReproError",
            "SchedulingError", "SimulationError", "KVStoreError", "TransientKVError",
            "FaultInjectionError",
        ),
        ".rand": ("RandomSource", "spawn_rng"),
        ".retry": ("RetryPolicy", "call_with_retry"),
        ".units": ("KB", "MB", "GB", "format_bytes", "format_duration", "hours", "minutes"),
    },
)
