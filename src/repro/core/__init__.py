"""Optimus core: the paper's primary contribution.

* :mod:`repro.core.convergence` -- online convergence estimation (§3.1)
* :mod:`repro.core.speed` -- online resource→speed estimation (§3.2)
* :mod:`repro.core.allocation` -- marginal-gain resource allocation (§4.1)
* :mod:`repro.core.placement` -- fewest-servers even task placement (§4.2)

The scheduler classes assembling these live in :mod:`repro.schedulers`.
"""

from repro.core.allocation import (
    AllocationRequest,
    AllocationResult,
    TaskAllocation,
    allocate,
    estimated_time,
)
from repro.core.convergence import ConvergenceEstimator
from repro.core.placement import (
    JobLayout,
    PlacementCache,
    PlacementRequest,
    PlacementResult,
    place_jobs,
    split_evenly,
    transfer_units,
)
from repro.core.speed import SpeedEstimator

__all__ = [
    "ConvergenceEstimator",
    "SpeedEstimator",
    "AllocationRequest",
    "AllocationResult",
    "TaskAllocation",
    "allocate",
    "estimated_time",
    "PlacementCache",
    "PlacementRequest",
    "PlacementResult",
    "JobLayout",
    "place_jobs",
    "split_evenly",
    "transfer_units",
]
