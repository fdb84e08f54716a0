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

from repro.cluster.resources import _EPS, ResourceVector
from repro.common.errors import CapacityError, ConfigurationError

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
    #: Usage per resource type, updated in place by the rules of
    #: ``ResourceVector.__add__``/``__sub__`` (same additions in task order,
    #: same key order, amounts at or below 1e-9 dropped on release), so it
    #: holds exactly the floats that chained vector arithmetic would.
    _usage: Dict[str, float] = field(default_factory=dict, repr=False)
    _tasks: Dict[TaskKey, ResourceVector] = field(default_factory=dict, repr=False)
    #: Vectors derived lazily from ``_usage``; every mutation resets them.
    #: ResourceVector is immutable, so sharing a cached instance is safe.
    _used: ResourceVector = field(default=None, repr=False, compare=False)
    _available: ResourceVector = field(default=None, repr=False, compare=False)
    _rank: Tuple[float, float, str] = field(default=None, repr=False, compare=False)
    #: Bumped by every place and release; :attr:`Cluster.total_used` sums
    #: these to know whether its cached total is still current.
    mutations: int = field(default=0, repr=False, compare=False)

    def copy(self) -> "Server":
        """An independent clone: the usage and task tables are copied, the
        immutable vectors shared."""
        return Server(
            self.name,
            self.capacity,
            self.network_bandwidth,
            dict(self._usage),
            dict(self._tasks),
            self._used,
            self._available,
            self._rank,
            self.mutations,
        )

    def _changed(self) -> None:
        self._used = None
        self._available = None
        self._rank = None
        self.mutations += 1

    @property
    def used(self) -> ResourceVector:
        """Resources currently occupied by placed tasks."""
        if self._used is None:
            self._used = ResourceVector._from_clean(dict(self._usage))
        return self._used

    @property
    def available(self) -> ResourceVector:
        """Remaining free capacity: ``capacity - used``, read off the usage
        table by the rule of ``ResourceVector.__sub__``."""
        if self._available is None:
            room = dict(self.capacity._amounts)
            for name, value in self._usage.items():
                remaining = room.get(name, 0.0) - value
                if remaining > _EPS:
                    room[name] = remaining
                else:
                    room.pop(name, None)
            self._available = ResourceVector._from_clean(room)
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
        """True when *demand* fits in the currently available capacity.

        ``demand.fits_within(self.available)``, read off the usage table:
        the same subtraction, the same drop of a room at or below 1e-9.
        """
        capacity = self.capacity._amounts
        usage = self._usage
        for name, value in demand._amounts.items():
            room = capacity.get(name, 0.0) - usage.get(name, 0.0)
            if value > (room if room > _EPS else 0.0) + 1e-9:
                return False
        return True

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
        usage = self._usage
        for name, value in demand._amounts.items():
            usage[name] = usage.get(name, 0.0) + value
        self._changed()

    def place_tasks(
        self, job_id: str, role: str, first_index: int, count: int, demand: ResourceVector
    ) -> None:
        """Place *count* tasks ``(job_id, role, first_index + i)`` of one shape.

        The same usage as *count* :meth:`place` calls, with one capacity
        check: usage only grows inside the block, so the last task's check
        is the tightest. The block is atomic -- on a :class:`CapacityError`
        the server is unchanged.
        """
        tasks = self._tasks
        indices = range(first_index, first_index + count)
        for i in indices:
            if (job_id, role, i) in tasks:
                raise CapacityError(f"task {(job_id, role, i)} already placed on {self.name}")
        if not indices:
            return
        capacity = self.capacity._amounts
        usage = self._usage
        grown: Dict[str, float] = {}
        others = indices[1:]
        for name, value in demand._amounts.items():
            total = usage.get(name, 0.0)
            for _ in others:
                total += value
            room = capacity.get(name, 0.0) - total
            if value > (room if room > _EPS else 0.0) + 1e-9:
                raise CapacityError(
                    f"{count} tasks {(job_id, role, first_index)}.. with demand {demand} "
                    f"do not fit on {self.name} (available {self.available})"
                )
            grown[name] = total + value
        usage.update(grown)
        for i in indices:
            tasks[job_id, role, i] = demand
        self._changed()

    def release(self, key: TaskKey) -> ResourceVector:
        """Free the resources of task *key* and return its demand."""
        try:
            demand = self._tasks.pop(key)
        except KeyError:
            raise CapacityError(f"task {key} is not placed on {self.name}") from None
        usage = self._usage
        for name, value in demand._amounts.items():
            remaining = usage.get(name, 0.0) - value
            if remaining > _EPS:
                usage[name] = remaining
            elif remaining < -1e-6:
                raise ConfigurationError(
                    f"subtraction would make resource {name!r} negative "
                    f"({usage.get(name, 0.0)} - {value})"
                )
            else:
                usage.pop(name, None)
        self._changed()
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
        return self._usage.get(resource_type, 0.0) / cap
