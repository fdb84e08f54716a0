"""Job specifications: what a job owner submits to the cluster.

Following §2.3, the owner specifies the *shape* of each task (the resource
composition of one worker and one parameter server) plus the training mode
and a convergence threshold; the number of tasks is Optimus's decision (and a
fixed owner decision under the baseline schedulers).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cluster.resources import ResourceVector, cpu_mem
from repro.common.errors import ConfigurationError
from repro.workloads.profiles import DEFAULT_PATIENCE, ModelProfile, get_profile
from repro.workloads.speed import validate_mode

#: The paper's standard container shape: 5 CPU cores, 10 GB memory (§2.3).
DEFAULT_WORKER_DEMAND = cpu_mem(5, 10)
DEFAULT_PS_DEMAND = cpu_mem(5, 10)

_job_counter = itertools.count()

#: One shared vector per task shape, keyed like ``allocate``'s shape table by
#: the exact ordered ``(resource, amount)`` pairs: a fleet of one shape holds
#: one worker and one PS vector, not two per job. Vectors are immutable, so
#: sharing one is safe; the table grows only with distinct shapes.
_SHAPES: Dict[Tuple[Tuple[str, float], ...], ResourceVector] = {}


def _shared_shape(demand: ResourceVector) -> ResourceVector:
    return _SHAPES.setdefault(tuple(demand.items()), demand)


@dataclass(frozen=True)
class JobSpec:
    """An immutable description of one submitted training job.

    Parameters
    ----------
    job_id:
        Unique identifier within an experiment.
    profile:
        The :class:`~repro.workloads.profiles.ModelProfile` being trained.
    mode:
        ``"sync"`` or ``"async"``.
    threshold:
        Convergence threshold: the job completes once the normalised
        training-loss decrease per epoch stays below this value for
        ``patience`` epochs (§2.1).
    patience:
        Number of consecutive below-threshold epochs required.
    worker_demand / ps_demand:
        Resource composition of one worker / parameter server container.
    dataset_scale:
        Multiplier on the dataset size; the paper downsizes large datasets
        so experiments fit in ~6 hours (§6.1).
    arrival_time:
        Submission time in seconds from experiment start.
    requested_workers / requested_ps:
        The owner's *static* request, used by schedulers that do not resize
        jobs (FIFO) and as an upper-bound hint elsewhere.
    """

    job_id: str
    profile: ModelProfile
    mode: str
    threshold: float = 0.002
    patience: int = DEFAULT_PATIENCE
    worker_demand: ResourceVector = field(default=DEFAULT_WORKER_DEMAND)
    ps_demand: ResourceVector = field(default=DEFAULT_PS_DEMAND)
    dataset_scale: float = 1.0
    arrival_time: float = 0.0
    requested_workers: int = 4
    requested_ps: int = 4

    def __post_init__(self) -> None:
        validate_mode(self.mode)
        if self.threshold <= 0:
            raise ConfigurationError("threshold must be positive")
        if self.patience < 1:
            raise ConfigurationError("patience must be >= 1")
        if self.dataset_scale <= 0:
            raise ConfigurationError("dataset_scale must be positive")
        if self.arrival_time < 0:
            raise ConfigurationError("arrival_time must be non-negative")
        if self.requested_workers < 1 or self.requested_ps < 1:
            raise ConfigurationError("requested task counts must be >= 1")
        if self.worker_demand.is_zero() or self.ps_demand.is_zero():
            raise ConfigurationError("task demands must be non-empty")
        object.__setattr__(self, "worker_demand", _shared_shape(self.worker_demand))
        object.__setattr__(self, "ps_demand", _shared_shape(self.ps_demand))

    # -- derived ----------------------------------------------------------------
    @property
    def model_name(self) -> str:
        return self.profile.name

    def steps_per_epoch(self) -> float:
        return self.profile.steps_per_epoch(self.mode, self.dataset_scale)

    def total_steps_to_converge(self) -> float:
        """Ground-truth steps until the §2.1 stopping rule fires."""
        epochs = self.profile.loss.epochs_to_converge(self.threshold, self.patience)
        return epochs * self.steps_per_epoch()

    def task_demand(self, workers: int, ps: int) -> ResourceVector:
        """Aggregate demand of a ``(workers, ps)`` allocation."""
        return self.worker_demand * workers + self.ps_demand * ps


def make_job(
    model: str,
    mode: str = "sync",
    job_id: Optional[str] = None,
    **kwargs,
) -> JobSpec:
    """Convenience constructor looking the model up in the zoo.

    Examples
    --------
    >>> job = make_job("resnet-50", mode="async", threshold=0.003)
    >>> job.profile.params_million
    25.0
    """
    profile = get_profile(model)
    if job_id is None:
        job_id = f"{model}-{next(_job_counter)}"
    return JobSpec(job_id=job_id, profile=profile, mode=mode, **kwargs)
