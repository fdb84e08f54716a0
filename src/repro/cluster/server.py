"""A physical server (cluster node) with capacity bookkeeping.

Servers track which tasks currently occupy them. A *task* here is identified
by an opaque ``(job_id, role, index)`` triple -- the cluster layer does not
know anything about training; it only does the resource accounting that the
placement algorithms (:mod:`repro.core.placement`) and baseline schedulers
need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.cluster.resources import ZERO, ResourceVector
from repro.common.errors import CapacityError

#: Role names used throughout the library.
ROLE_WORKER = "worker"
ROLE_PS = "ps"

TaskKey = Tuple[str, str, int]  # (job_id, role, index)


@dataclass
class Server:
    """One homogeneous-or-not cluster node.

    Parameters
    ----------
    name:
        Unique node name, e.g. ``"node-3"``.
    capacity:
        Total resource capacity of the node.
    network_bandwidth:
        NIC bandwidth in bytes/second, used by the communication model; it is
        *not* part of the allocatable capacity vector by default (the paper's
        testbed shares a 1 GbE NIC among all containers of a node).
    """

    name: str
    capacity: ResourceVector
    network_bandwidth: float = 125e6  # 1 GbE in bytes/s
    _used: ResourceVector = field(default_factory=lambda: ZERO, repr=False)
    _tasks: Dict[TaskKey, ResourceVector] = field(default_factory=dict, repr=False)
    #: Cached ``capacity - used``; recomputed lazily after place/release.
    #: ResourceVector is immutable, so sharing the cached instance is safe.
    _available: ResourceVector = field(default=None, repr=False, compare=False)
    #: Cached :attr:`availability_rank`, reset together with ``_available``.
    _rank: Tuple[float, float, str] = field(default=None, repr=False, compare=False)

    def copy(self) -> "Server":
        """An independent clone: the immutable vectors are shared and only
        the task table is copied."""
        return Server(
            self.name,
            self.capacity,
            self.network_bandwidth,
            self._used,
            dict(self._tasks),
            self._available,
            self._rank,
        )

    @property
    def used(self) -> ResourceVector:
        """Resources currently occupied by placed tasks."""
        return self._used

    @property
    def available(self) -> ResourceVector:
        """Remaining free capacity."""
        if self._available is None:
            self._available = self.capacity - self._used
        return self._available

    @property
    def availability_rank(self) -> Tuple[float, float, str]:
        """Sort key putting the most-available servers first (§4.2).

        ``(-available CPU, -sum of available amounts, name)``: the heap key
        of :func:`repro.core.placement.place_jobs`.
        """
        if self._rank is None:
            available = self.available
            self._rank = (-available.get("cpu"), -sum(available.values()), self.name)
        return self._rank

    @property
    def task_keys(self) -> Tuple[TaskKey, ...]:
        return tuple(self._tasks)

    def task_count(self, job_id: str = None, role: str = None) -> int:
        """Number of placed tasks, optionally filtered by job and/or role."""
        count = 0
        for jid, r, _ in self._tasks:
            if job_id is not None and jid != job_id:
                continue
            if role is not None and r != role:
                continue
            count += 1
        return count

    def can_fit(self, demand: ResourceVector) -> bool:
        """True when *demand* fits in the currently available capacity."""
        return demand.fits_within(self.available)

    def place(self, key: TaskKey, demand: ResourceVector) -> None:
        """Occupy *demand* resources for the task *key*.

        Raises
        ------
        CapacityError
            If the task is already placed here or the demand does not fit.
        """
        if key in self._tasks:
            raise CapacityError(f"task {key} already placed on {self.name}")
        if not self.can_fit(demand):
            raise CapacityError(
                f"task {key} with demand {demand} does not fit on {self.name} "
                f"(available {self.available})"
            )
        self._tasks[key] = demand
        self._used = self._used + demand
        self._available = None
        self._rank = None

    def release(self, key: TaskKey) -> ResourceVector:
        """Free the resources of task *key* and return its demand."""
        try:
            demand = self._tasks.pop(key)
        except KeyError:
            raise CapacityError(f"task {key} is not placed on {self.name}") from None
        self._used = self._used - demand
        self._available = None
        self._rank = None
        return demand

    def release_job(self, job_id: str) -> int:
        """Release every task of *job_id*; returns how many were released."""
        keys = [k for k in self._tasks if k[0] == job_id]
        for key in keys:
            self.release(key)
        return len(keys)

    def utilization(self, resource_type: str = "cpu") -> float:
        """Fraction of one resource type in use (0 when the type is absent)."""
        cap = self.capacity.get(resource_type)
        if cap <= 0:
            return 0.0
        return self._used.get(resource_type) / cap
