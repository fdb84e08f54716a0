"""The miniature API server (§5.5).

State lives in the etcd-like :class:`~repro.k8s.kvstore.KVStore` under
``/nodes/...`` and ``/pods/...``, exactly as Kubernetes persists its objects
in etcd; the API server is a thin validating layer on top, with the node
capacity accounting a real apiserver+scheduler would enforce at binding
time. The Optimus deployment polls this API for cluster information and job
states, as described in §5.5.

Reads are served the way a Kubernetes informer serves them: from a decoded
index of ``/pods/`` and ``/nodes/``, seeded by one ``list_prefix`` per
prefix and kept current by store watches. The store runs watchers
synchronously inside every completed write, so the index equals the store
after each write -- whichever :class:`APIServer` (or raw caller) issued it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Generic, List, Optional, TypeVar

from repro.cluster.resources import ResourceVector
from repro.common.errors import KVStoreError
from repro.k8s.kvstore import KVEvent, KVStore
from repro.k8s.objects import (
    PHASE_FAILED,
    PHASE_PENDING,
    PHASE_RUNNING,
    NodeInfo,
    PodSpec,
)

NODE_PREFIX = "/nodes/"
POD_PREFIX = "/pods/"
#: Lease-attached liveness markers, one per heartbeating node. The marker
#: disappearing (its lease expired) is what the health sweep keys off.
HEARTBEAT_PREFIX = "/heartbeats/"

T = TypeVar("T")


class _WatchIndex(Generic[T]):
    """The decoded objects under one key prefix, keyed by name.

    Unseeded until the first read, which lists the prefix once; from then
    on store events keep it equal to the store. Objects are frozen, so
    readers share them without copies.
    """

    def __init__(self, prefix: str, decode: Callable[[str], T]):
        self.prefix = prefix
        self.decode = decode
        self._items: Optional[Dict[str, T]] = None
        self._sorted: Optional[List[T]] = None

    def items(self, store: KVStore) -> Dict[str, T]:
        if self._items is None:
            cut = len(self.prefix)
            payloads = store.list_prefix(self.prefix)
            self._items = {
                key[cut:]: self.decode(payload) for key, payload in payloads.items()
            }
            self._sorted = list(self._items.values())  # list_prefix sorts keys
        return self._items

    def values(self, store: KVStore) -> List[T]:
        """Every object, in ``list_prefix``'s sorted key order."""
        items = self.items(store)
        if self._sorted is None:
            self._sorted = [items[name] for name in sorted(items)]
        return self._sorted

    def on_event(self, event: KVEvent) -> None:
        items = self._items
        if items is None:
            return  # the first read will list the store instead
        name = event.key[len(self.prefix):]
        # Drop first: a payload that fails to decode is then absent rather
        # than served stale.
        items.pop(name, None)
        self._sorted = None
        if event.type == "put":
            items[name] = self.decode(event.value)


class APIServer:
    """Validated CRUD over nodes and pods, backed by a KVStore."""

    def __init__(self, store: Optional[KVStore] = None):
        # `store or KVStore()` would silently drop an *empty* store (KVStore
        # defines __len__), replacing e.g. a fresh RetryingKVStore wrapper
        # with an unwrapped one.
        self.store = store if store is not None else KVStore()
        self._pods: _WatchIndex[PodSpec] = _WatchIndex(POD_PREFIX, PodSpec.from_json)
        self._nodes: _WatchIndex[NodeInfo] = _WatchIndex(
            NODE_PREFIX, NodeInfo.from_json
        )
        # Every store front forwards watch registration to the store below,
        # so the index sees all writes, fenced or not, from any caller.
        self.store.watch(POD_PREFIX, self._pods.on_event)
        self.store.watch(NODE_PREFIX, self._nodes.on_event)

    def fence_writes(self, election) -> None:
        """Guard every write through this server with a leadership check.

        Wraps the backing store in a
        :class:`~repro.k8s.election.FencedKVStore` bound to *election*,
        so a request carrying a stale fencing epoch -- any mutation
        attempted after the holder's reign ended -- is rejected with
        :class:`~repro.common.errors.StaleLeaderError`. Re-fencing
        replaces the previous guard instead of stacking wrappers.
        """
        from repro.k8s.election import FencedKVStore

        self.store = FencedKVStore(self.store, election)

    # -- nodes -------------------------------------------------------------------
    def register_node(
        self,
        name: str,
        capacity: ResourceVector,
        lease_ttl: Optional[float] = None,
        now: float = 0.0,
    ) -> NodeInfo:
        """Register a node; re-registering an identical node is idempotent.

        A node that crashes and comes back re-announces itself with the
        same name and capacity (the kubelet's normal recovery path); that
        must not error, must preserve the existing allocation record, and
        -- when the node had been cordoned for missing heartbeats --
        uncordons it under a fresh lease. Re-registering with a
        *different* capacity is a real conflict and still raises.

        With *lease_ttl*, the node's health is backed by a KV-store lease:
        it must :meth:`heartbeat_node` at least every ``lease_ttl`` clock
        units or the next :meth:`sweep_expired` cordons it. Without
        (the default), the node is trusted forever -- the pre-lease
        behaviour, bit-identical for existing configurations.
        """
        node = self._nodes.items(self.store).get(name)
        if node is not None:
            if node.capacity != capacity:
                raise KVStoreError(
                    f"node {name!r} already registered with capacity "
                    f"{node.capacity}, not {capacity}"
                )
            if lease_ttl is None and not node.cordoned:
                return node
            # A re-announce revives the node: fresh lease, cordon lifted.
            node = replace(
                node,
                cordoned=False,
                lease_id=self._grant_node_lease(name, lease_ttl, now),
                lease_ttl=lease_ttl,
            )
        else:
            node = NodeInfo(
                name=name,
                capacity=capacity,
                lease_id=self._grant_node_lease(name, lease_ttl, now),
                lease_ttl=lease_ttl,
            )
        self._save_node(node)
        return node

    def _grant_node_lease(
        self, name: str, lease_ttl: Optional[float], now: float
    ) -> Optional[int]:
        if lease_ttl is None:
            return None
        lease_id = self.store.grant_lease(lease_ttl, now)
        self.store.put(HEARTBEAT_PREFIX + name, str(lease_id), lease=lease_id)
        return lease_id

    def heartbeat_node(self, name: str, now: float) -> NodeInfo:
        """Renew a node's health lease (the kubelet status ping).

        Raises when the node has no lease (registered without heartbeats)
        or when it was already cordoned -- a node the sweep declared dead
        must re-register, not sneak back in with a late ping.

        A lease that lapsed but was *not yet swept* (no cordon happened)
        is a flapping node, not a dead one: the heartbeat re-grants a
        fresh lease with the original TTL instead of raising, and the
        caller can tell by the changed ``lease_id``. Without the regrant
        every late ping inside the sweep window forced a manual
        re-register.
        """
        node = self.node(name)
        if node.lease_id is None:
            raise KVStoreError(f"node {name!r} has no health lease")
        if node.cordoned:
            raise KVStoreError(
                f"node {name!r} lease expired; it must re-register"
            )
        if self.store.has_lease(node.lease_id):
            try:
                self.store.renew_lease(node.lease_id, now)
                return node
            except KVStoreError:
                pass  # lapsed at/past ttl but unswept: fall through to regrant
        ttl = node.lease_ttl
        if ttl is None and self.store.has_lease(node.lease_id):
            ttl = self.store.lease_ttl(node.lease_id)  # pre-regrant record
        if ttl is None:
            raise KVStoreError(
                f"node {name!r} lease expired and its ttl is unknown; "
                "it must re-register"
            )
        if self.store.has_lease(node.lease_id):
            self.store.revoke_lease(node.lease_id)
        node = replace(
            node, lease_id=self._grant_node_lease(name, ttl, now), lease_ttl=ttl
        )
        self._save_node(node)
        return node

    def sweep_expired(self, now: float) -> List[str]:
        """Cordon every node whose health lease lapsed by *now*.

        Expires KV leases (dropping their heartbeat markers), cordons the
        affected nodes, and marks their bound pods ``Failed`` -- lost with
        the machine, so the next reconcile relaunches those jobs from
        checkpoint. Returns the newly cordoned node names, sorted.
        """
        self.store.expire_leases(now)
        cordoned = []
        for node in self.list_nodes():
            if node.cordoned or node.lease_id is None:
                continue
            if self.store.get(HEARTBEAT_PREFIX + node.name) is not None:
                continue
            self.cordon_node(node.name)
            cordoned.append(node.name)
        return cordoned

    def cordon_node(self, name: str) -> NodeInfo:
        """Take a node out of scheduling and mark its bound pods lost."""
        node = self.node(name)
        if node.cordoned:
            return node
        node = replace(node, cordoned=True)
        self._save_node(node)
        for pod in self.list_pods(node=name):
            self._save_pod(replace(pod, phase=PHASE_FAILED))
        return node

    def uncordon_node(self, name: str) -> NodeInfo:
        """Return a cordoned node to service (its capacity becomes usable)."""
        node = self.node(name)
        if node.cordoned:
            node = replace(node, cordoned=False)
            self._save_node(node)
        return node

    def remove_node(self, name: str) -> bool:
        """Delete a node's record entirely (e.g. a cordoned node reclaimed).

        Pods still bound to the node keep their (now dangling) binding;
        :meth:`delete_pod` tolerates the missing node when they are torn
        down. Returns ``True`` when the node existed.
        """
        node = self._nodes.items(self.store).get(name)
        if node is None:
            return False
        if node.lease_id is not None and self.store.has_lease(node.lease_id):
            self.store.revoke_lease(node.lease_id)
        else:
            self.store.delete(HEARTBEAT_PREFIX + name)
        return self.store.delete(NODE_PREFIX + name)

    def node(self, name: str) -> NodeInfo:
        node = self._nodes.items(self.store).get(name)
        if node is None:
            raise KVStoreError(f"unknown node {name!r}")
        return node

    def list_nodes(self, include_cordoned: bool = True) -> List[NodeInfo]:
        nodes = list(self._nodes.values(self.store))
        if not include_cordoned:
            nodes = [node for node in nodes if not node.cordoned]
        return nodes

    def _save_node(self, node: NodeInfo) -> None:
        self.store.put(NODE_PREFIX + node.name, node.to_json())

    # -- pods --------------------------------------------------------------------
    def create_pod(self, pod: PodSpec) -> PodSpec:
        if pod.name in self._pods.items(self.store):
            raise KVStoreError(f"pod {pod.name!r} already exists")
        if pod.bound:
            raise KVStoreError("pods must be created unbound; use bind_pod")
        self._save_pod(pod)
        return pod

    def pod(self, name: str) -> PodSpec:
        pod = self._pods.items(self.store).get(name)
        if pod is None:
            raise KVStoreError(f"unknown pod {name!r}")
        return pod

    def list_pods(
        self, job_id: Optional[str] = None, node: Optional[str] = None
    ) -> List[PodSpec]:
        pods = list(self._pods.values(self.store))
        if job_id is not None:
            pods = [p for p in pods if p.job_id == job_id]
        if node is not None:
            pods = [p for p in pods if p.node == node]
        return pods

    def bind_pod(self, pod_name: str, node_name: str) -> PodSpec:
        """Bind a pending pod to a node, enforcing capacity."""
        pod = self.pod(pod_name)
        if pod.bound:
            raise KVStoreError(f"pod {pod_name!r} is already bound to {pod.node}")
        node = self.node(node_name)
        if node.cordoned:
            raise KVStoreError(
                f"node {node_name!r} is cordoned; cannot bind {pod_name!r}"
            )
        if not pod.demand.fits_within(node.allocatable):
            raise KVStoreError(
                f"pod {pod_name!r} does not fit on node {node_name!r} "
                f"(needs {pod.demand}, allocatable {node.allocatable})"
            )
        self._save_node(replace(node, allocated=node.allocated + pod.demand))
        pod = replace(pod, node=node_name, phase=PHASE_RUNNING)
        self._save_pod(pod)
        return pod

    def delete_pod(self, pod_name: str) -> bool:
        """Delete a pod, releasing its node resources if bound.

        A bound pod whose node record has vanished (a cordoned node that
        was since removed) still deletes cleanly -- there is no capacity
        left to release.
        """
        pod = self._pods.items(self.store).get(pod_name)
        if pod is None:
            return False
        if pod.bound:
            node = self._nodes.items(self.store).get(pod.node)
            if node is not None:
                self._save_node(replace(node, allocated=node.allocated - pod.demand))
        return self.store.delete(POD_PREFIX + pod_name)

    def restart_pod(self, pod_name: str) -> PodSpec:
        """Mark a pod restarted in place (e.g. straggler replacement, §5.2)."""
        pod = self.pod(pod_name)
        pod = replace(
            pod,
            restarts=pod.restarts + 1,
            phase=PHASE_RUNNING if pod.bound else PHASE_PENDING,
        )
        self._save_pod(pod)
        return pod

    def _save_pod(self, pod: PodSpec) -> None:
        self.store.put(POD_PREFIX + pod.name, pod.to_json())

    # -- aggregates --------------------------------------------------------------
    def cluster_allocated(self) -> ResourceVector:
        total = ResourceVector()
        for node in self.list_nodes():
            total = total + node.allocated
        return total

    def pods_per_job(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for pod in self.list_pods():
            counts[pod.job_id] = counts.get(pod.job_id, 0) + 1
        return counts
