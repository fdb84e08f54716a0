"""API objects of the miniature orchestrator (§5.5).

A faithful-in-spirit subset of the Kubernetes object model: nodes with
allocatable capacity, and pods (one container each -- one worker or one
parameter server of a training job) with the usual phase lifecycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.resources import ResourceVector
from repro.common.errors import ConfigurationError

PHASE_PENDING = "Pending"
PHASE_RUNNING = "Running"
PHASE_SUCCEEDED = "Succeeded"
PHASE_FAILED = "Failed"
PHASES = (PHASE_PENDING, PHASE_RUNNING, PHASE_SUCCEEDED, PHASE_FAILED)


@dataclass(frozen=True)
class PodSpec:
    """One container of a training job (a worker or a parameter server).

    Frozen: the API server hands the same decoded object to every reader,
    so a change is a new object (``dataclasses.replace``) written through
    the store.
    """

    name: str
    job_id: str
    role: str  # "worker" or "ps"
    index: int
    demand: ResourceVector
    node: Optional[str] = None
    phase: str = PHASE_PENDING
    restarts: int = 0

    def __post_init__(self) -> None:
        if self.role not in ("worker", "ps"):
            raise ConfigurationError(f"unknown pod role {self.role!r}")
        if self.phase not in PHASES:
            raise ConfigurationError(f"unknown pod phase {self.phase!r}")
        if self.index < 0:
            raise ConfigurationError("pod index must be non-negative")

    @property
    def bound(self) -> bool:
        return self.node is not None

    # -- (de)serialisation for the kv store --------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "job_id": self.job_id,
                "role": self.role,
                "index": self.index,
                "demand": dict(self.demand.items()),
                "node": self.node,
                "phase": self.phase,
                "restarts": self.restarts,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, payload: str) -> "PodSpec":
        data = json.loads(payload)
        return cls(
            name=data["name"],
            job_id=data["job_id"],
            role=data["role"],
            index=data["index"],
            demand=ResourceVector(data["demand"]),
            node=data.get("node"),
            phase=data.get("phase", PHASE_PENDING),
            restarts=data.get("restarts", 0),
        )


@dataclass(frozen=True)
class NodeInfo:
    """One cluster node as the API server sees it (frozen, like :class:`PodSpec`)."""

    name: str
    capacity: ResourceVector
    #: Resources already promised to bound pods.
    allocated: ResourceVector = field(default_factory=ResourceVector)
    #: A cordoned node keeps its record (and its pods' bindings) but takes
    #: no new pods and is excluded from scheduling snapshots; the health
    #: sweep cordons nodes whose heartbeat lease expired.
    cordoned: bool = False
    #: The KV-store lease backing this node's health; ``None`` when the
    #: node was registered without heartbeats (it then never expires).
    lease_id: Optional[int] = None
    #: The TTL the health lease was granted with; recorded so a late
    #: heartbeat can re-grant an equivalent lease (``None`` pre-lease).
    lease_ttl: Optional[float] = None

    @property
    def allocatable(self) -> ResourceVector:
        return self.capacity - self.allocated

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "capacity": dict(self.capacity.items()),
                "allocated": dict(self.allocated.items()),
                "cordoned": self.cordoned,
                "lease_id": self.lease_id,
                "lease_ttl": self.lease_ttl,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, payload: str) -> "NodeInfo":
        data = json.loads(payload)
        return cls(
            name=data["name"],
            capacity=ResourceVector(data["capacity"]),
            allocated=ResourceVector(data.get("allocated", {})),
            cordoned=data.get("cordoned", False),
            lease_id=data.get("lease_id"),
            lease_ttl=data.get("lease_ttl"),
        )


def pod_name(job_id: str, role: str, index: int) -> str:
    """The canonical pod name for a task, e.g. ``job-3/worker-2``."""
    return f"{job_id}/{role}-{index}"
