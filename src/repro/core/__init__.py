"""Optimus core: the paper's primary contribution.

* :mod:`repro.core.convergence` -- online convergence estimation (§3.1)
* :mod:`repro.core.speed` -- online resource→speed estimation (§3.2)
* :mod:`repro.core.allocation` -- marginal-gain resource allocation (§4.1)
* :mod:`repro.core.placement` -- fewest-servers even task placement (§4.2)

The scheduler classes assembling these live in :mod:`repro.schedulers`.
"""

from repro.common.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".convergence": ("ConvergenceEstimator",),
        ".speed": ("SpeedEstimator",),
        ".allocation": (
            "AllocationRequest", "AllocationResult", "TaskAllocation", "allocate",
        ),
        ".placement": (
            "PlacementCache", "PlacementRequest", "PlacementResult", "JobLayout", "place_jobs",
            "split_evenly", "transfer_units",
        ),
    },
)
