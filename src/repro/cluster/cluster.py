"""Cluster-level resource bookkeeping.

A :class:`Cluster` is an ordered collection of :class:`~repro.cluster.server.Server`
objects plus aggregate queries that the schedulers need: total/used/free
capacity, per-job placement lookup, dominant resource of a demand against the
whole cluster, and snapshot/restore so "what-if" placements can be trialled
without mutating live state.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, repeat
from operator import add, attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.cluster.resources import ZERO, ResourceVector
from repro.cluster.server import ROLE_PS, ROLE_WORKER, Server, TaskKey
from repro.common.errors import ConfigurationError

_MUTATIONS = attrgetter("mutations")


class Cluster:
    """An inventory of servers with placement bookkeeping.

    Examples
    --------
    >>> from repro.cluster.resources import cpu_mem
    >>> cluster = Cluster.homogeneous(num_servers=3, capacity=cpu_mem(16, 64))
    >>> cluster.total_capacity["cpu"]
    48.0
    """

    def __init__(self, servers: Iterable[Server]):
        self._servers: Dict[str, Server] = {}
        for server in servers:
            if server.name in self._servers:
                raise ConfigurationError(f"duplicate server name {server.name!r}")
            self._servers[server.name] = server
        if not self._servers:
            raise ConfigurationError("a cluster needs at least one server")
        # The server set and their capacities are fixed at construction.
        total = ZERO
        for server in self._servers.values():
            total = total + server.capacity
        self._total_capacity = total
        self._used_stamp = None
        self._total_used = ZERO

    # -- constructors ---------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        num_servers: int,
        capacity: ResourceVector,
        network_bandwidth: float = 125e6,
        name_prefix: str = "node",
    ) -> "Cluster":
        """Build a cluster of *num_servers* identical servers."""
        if num_servers <= 0:
            raise ConfigurationError("num_servers must be positive")
        return cls(
            Server(f"{name_prefix}-{i}", capacity, network_bandwidth)
            for i in range(num_servers)
        )

    @classmethod
    def testbed(cls) -> "Cluster":
        """The paper's 13-server testbed (§6.1): 7 CPU + 6 GPU servers.

        CPU servers: two 8-core E5-2650 CPUs and 80 GB memory.
        GPU servers: one 8-core E5-1660 CPU, 2 GPUs and 48 GB memory.
        All connected through a 1 GbE switch.
        """
        servers: List[Server] = []
        for i in range(7):
            servers.append(
                Server(
                    f"cpu-{i}",
                    ResourceVector({"cpu": 16, "memory": 80}),
                    network_bandwidth=125e6,
                )
            )
        for i in range(6):
            servers.append(
                Server(
                    f"gpu-{i}",
                    ResourceVector({"cpu": 8, "memory": 48, "gpu": 2}),
                    network_bandwidth=125e6,
                )
            )
        return cls(servers)

    # -- inventory ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._servers)

    def __iter__(self) -> Iterator[Server]:
        return iter(self._servers.values())

    def __contains__(self, name: str) -> bool:
        return name in self._servers

    @property
    def servers(self) -> Tuple[Server, ...]:
        return tuple(self._servers.values())

    @property
    def server_names(self) -> Tuple[str, ...]:
        return tuple(self._servers)

    def server(self, name: str) -> Server:
        try:
            return self._servers[name]
        except KeyError:
            raise ConfigurationError(f"unknown server {name!r}") from None

    # -- aggregates -----------------------------------------------------------
    @property
    def total_capacity(self) -> ResourceVector:
        return self._total_capacity

    @property
    def total_used(self) -> ResourceVector:
        # Summed in server order, exactly as chained ``ResourceVector``
        # additions from ZERO would, so the floats are bit-identical. The
        # sum is cached until some server's mutation counter moves (the
        # counters only grow, so their sum changes exactly then).
        stamp = sum(map(_MUTATIONS, self._servers.values()))
        if stamp != self._used_stamp:
            # Per resource, in order of first appearance, a left fold from
            # 0.0 over every server: a server without the resource adds
            # 0.0, which leaves a non-negative float unchanged.
            usages = [server._usage for server in self._servers.values()]
            self._total_used = ResourceVector._from_clean(
                {
                    name: reduce(add, map(dict.get, usages, repeat(name), repeat(0.0)), 0.0)
                    for name in dict.fromkeys(chain.from_iterable(usages))
                }
            )
            self._used_stamp = stamp
        return self._total_used

    @property
    def total_available(self) -> ResourceVector:
        return self.total_capacity - self.total_used

    def utilization(self, resource_type: str = "cpu") -> float:
        cap = self.total_capacity.get(resource_type)
        if cap <= 0:
            return 0.0
        return self.total_used.get(resource_type) / cap

    def dominant_resource(self, demand: ResourceVector) -> Optional[str]:
        """The dominant resource of *demand* against cluster capacity (§4.1)."""
        return demand.dominant_resource(self.total_capacity)

    def fits_in_total(self, demand: ResourceVector) -> bool:
        """Capacity check against aggregate free resources (ignores fragmentation)."""
        return demand.fits_within(self.total_available)

    # -- placement ------------------------------------------------------------
    def place(self, server_name: str, key: TaskKey, demand: ResourceVector) -> None:
        self.server(server_name).place(key, demand)

    def release(self, server_name: str, key: TaskKey) -> ResourceVector:
        return self.server(server_name).release(key)

    def release_job(self, job_id: str) -> int:
        """Release every task of a job across all servers."""
        released = 0
        for server in self:
            released += server.release_job(job_id)
        return released

    def job_placement(self, job_id: str) -> Dict[str, Dict[str, int]]:
        """Map ``server_name -> {"worker": n, "ps": m}`` for a job's tasks."""
        layout: Dict[str, Dict[str, int]] = {}
        for server in self:
            workers = server.task_count(job_id=job_id, role=ROLE_WORKER)
            ps = server.task_count(job_id=job_id, role=ROLE_PS)
            if workers or ps:
                layout[server.name] = {ROLE_WORKER: workers, ROLE_PS: ps}
        return layout

    def placed_task_count(self, job_id: Optional[str] = None) -> int:
        return sum(server.task_count(job_id=job_id) for server in self)

    # -- what-if support --------------------------------------------------------
    def snapshot(self) -> "Cluster":
        """An independent copy of the cluster state.

        Each server is cloned by :meth:`Server.copy`: the usage and task
        tables are copied and the immutable vectors shared, so placing or
        releasing on the clone never touches the original, and vice versa.
        """
        # Built without __init__: the server names are already unique, and
        # the clone shares the cached totals (its servers start with the
        # same mutation counters).
        clone = object.__new__(Cluster)
        clone._servers = {name: s.copy() for name, s in self._servers.items()}
        clone._total_capacity = self._total_capacity
        clone._used_stamp = self._used_stamp
        clone._total_used = self._total_used
        return clone

    def clear(self) -> None:
        """Release every task on every server."""
        for server in self:
            for key in server.task_keys:
                server.release(key)

    def __repr__(self) -> str:
        return (
            f"Cluster(servers={len(self)}, used={self.total_used}, "
            f"capacity={self.total_capacity})"
        )
