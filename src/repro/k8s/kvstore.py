"""An etcd-like key/value store (§5.5).

Optimus stores job states in etcd for fault tolerance and polls the
Kubernetes master for cluster state. This module provides the storage half
of that substrate: a revisioned key/value store with prefix queries,
compare-and-swap, prefix watches delivering change events, and TTL leases
with attached keys -- the etcd features the scheduler stack actually
relies on. Leases carry an explicit clock (the store has none of its own):
callers pass ``now`` when granting, renewing and expiring, which keeps
lease behaviour deterministic under both the simulator's clock and the
deploy loop's step index.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple, TypeVar

from repro.common.errors import KVStoreError


@dataclass(frozen=True)
class KVEvent:
    """One change notification delivered to watchers."""

    type: str  # "put" or "delete"
    key: str
    value: Optional[str]
    revision: int


WatchCallback = Callable[[KVEvent], None]
T = TypeVar("T")

#: Operations that make a round trip to etcd: a flaky hop fails them and a
#: client retries them. Watch registration, ``len`` and the lessor's own
#: bookkeeping (expiry, lease introspection) are local state.
REMOTE_OPS = frozenset(
    {"put", "get", "get_with_revision", "delete", "compare_and_swap", "list_prefix",
     "keys", "contains", "grant_lease", "renew_lease", "revoke_lease"}
)
#: Operations that mutate the store: a deposed leader's fence rejects them.
WRITE_OPS = frozenset(
    {"put", "delete", "compare_and_swap", "grant_lease", "renew_lease", "revoke_lease",
     "expire_leases"}
)


@dataclass
class Lease:
    """One TTL lease: alive until ``expires_at``, keys die with it."""

    lease_id: int
    ttl: float
    expires_at: float
    keys: Set[str] = field(default_factory=set)

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class KVStore:
    """A miniature etcd: revisioned puts, CAS, prefix listing and watches.

    Single-threaded by design (the simulator is single-threaded); watches
    fire synchronously during the mutating call, in registration order.
    """

    def __init__(self):
        self._data: Dict[str, Tuple[str, int]] = {}  # key -> (value, mod_rev)
        self._revision = 0
        self._watchers: List[Tuple[int, str, WatchCallback]] = []
        self._watch_id = 0
        self._leases: Dict[int, Lease] = {}
        self._lease_id = 0
        self._key_lease: Dict[str, int] = {}  # key -> id of the lease holding it

    @property
    def revision(self) -> int:
        """The store's current (latest) revision."""
        return self._revision

    # -- basic operations ---------------------------------------------------------
    def put(self, key: str, value: str, lease: Optional[int] = None) -> int:
        """Set *key* to *value*; returns the new revision.

        With *lease*, the key is attached to that lease and deleted when
        the lease expires or is revoked (the etcd leased-put).
        """
        self._validate_key(key)
        # A put re-states the key's lease attachment (etcd semantics): the
        # key moves to the named lease, or detaches when *lease* is None.
        target = self._lease(lease) if lease is not None else None
        self._detach_key(key)
        if target is not None:
            target.keys.add(key)
            self._key_lease[key] = target.lease_id
        self._revision += 1
        self._data[key] = (str(value), self._revision)
        self._notify(KVEvent("put", key, str(value), self._revision))
        return self._revision

    def get(self, key: str) -> Optional[str]:
        """The current value of *key*, or ``None``."""
        entry = self._data.get(key)
        return entry[0] if entry else None

    def get_with_revision(self, key: str) -> Tuple[Optional[str], int]:
        """Value and last-modified revision of *key* (``(None, 0)`` if absent)."""
        entry = self._data.get(key)
        return (entry[0], entry[1]) if entry else (None, 0)

    def delete(self, key: str) -> bool:
        """Remove *key*; True when it existed."""
        if key not in self._data:
            return False
        self._detach_key(key)
        self._revision += 1
        del self._data[key]
        self._notify(KVEvent("delete", key, None, self._revision))
        return True

    def compare_and_swap(
        self,
        key: str,
        expected: Optional[str],
        value: str,
        lease: Optional[int] = None,
    ) -> bool:
        """Atomically set *key* to *value* iff its current value is *expected*.

        ``expected=None`` means "key must not exist" (create-only). With
        *lease*, a winning swap attaches the key to that lease in the same
        atomic step (the etcd election idiom: claim the leader key under
        your own TTL lease, so the claim dies with you).
        """
        current = self.get(key)
        if current != expected:
            return False
        self.put(key, value, lease=lease)
        return True

    # -- queries ------------------------------------------------------------------
    def list_prefix(self, prefix: str) -> Dict[str, str]:
        """All key/value pairs whose key starts with *prefix*, sorted by key."""
        data = self._data
        return {
            key: data[key][0]
            for key in sorted(key for key in data if key.startswith(prefix))
        }

    def keys(self, pattern: str = "*") -> List[str]:
        """Keys matching a glob *pattern*, sorted."""
        return sorted(k for k in self._data if fnmatch.fnmatch(k, pattern))

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    # -- leases -------------------------------------------------------------------
    def grant_lease(self, ttl: float, now: float = 0.0) -> int:
        """Create a lease that lives until ``now + ttl``; returns its id."""
        if ttl <= 0:
            raise KVStoreError("lease ttl must be positive")
        self._lease_id += 1
        self._leases[self._lease_id] = Lease(
            lease_id=self._lease_id, ttl=float(ttl), expires_at=now + ttl
        )
        return self._lease_id

    def renew_lease(self, lease_id: int, now: float) -> float:
        """Push the lease's expiry to ``now + ttl`` (the etcd keep-alive).

        Renewing a lease that was never granted -- or that has already
        expired -- raises: the holder must re-acquire, exactly as an etcd
        client whose keep-alive stream lapsed must re-grant.
        """
        lease = self._lease(lease_id)
        if lease.expired(now):
            raise KVStoreError(f"lease {lease_id} already expired")
        lease.expires_at = now + lease.ttl
        return lease.expires_at

    def revoke_lease(self, lease_id: int) -> List[str]:
        """Drop the lease immediately; returns the attached keys it deleted.

        Revoking a lease that no longer exists (already expired or revoked)
        is a no-op: callers tearing state down must not race the expiry
        sweep.
        """
        lease = self._leases.pop(lease_id, None)
        if lease is None:
            return []
        return self._drop_lease_keys(lease)

    def expire_leases(self, now: float) -> List[int]:
        """Expire every lease whose TTL lapsed by *now*, deleting their keys.

        Returns the expired lease ids, sorted. The store has no background
        clock, so callers (the control loop's sweep) drive this explicitly.
        """
        # Snapshot the due ids up front: dropping a lease's keys fires
        # watcher callbacks, and a callback may itself revoke or expire
        # leases (an election noticing its record vanished). The pop must
        # therefore tolerate ids a nested call already removed.
        due = sorted(
            lease_id
            for lease_id, lease in self._leases.items()
            if lease.expired(now)
        )
        for lease_id in due:
            lease = self._leases.pop(lease_id, None)
            if lease is None:
                continue  # a watcher callback beat us to it
            self._drop_lease_keys(lease)
        return due

    def lease_remaining(self, lease_id: int, now: float) -> float:
        """Seconds until the lease expires (negative when already lapsed)."""
        return self._lease(lease_id).expires_at - now

    def lease_ttl(self, lease_id: int) -> float:
        """The TTL the lease was granted with (not its remaining time)."""
        return self._lease(lease_id).ttl

    def lease_keys(self, lease_id: int) -> List[str]:
        """The keys currently attached to a lease, sorted."""
        return sorted(self._lease(lease_id).keys)

    def has_lease(self, lease_id: int) -> bool:
        return lease_id in self._leases

    def _lease(self, lease_id: int) -> Lease:
        lease = self._leases.get(lease_id)
        if lease is None:
            raise KVStoreError(f"unknown lease {lease_id}")
        return lease

    def _detach_key(self, key: str) -> None:
        lease_id = self._key_lease.pop(key, None)
        if lease_id is not None and lease_id in self._leases:
            self._leases[lease_id].keys.discard(key)

    def _drop_lease_keys(self, lease: Lease) -> List[str]:
        # Callers pop the lease first; each delete then unmaps its key.
        dropped = []
        for key in sorted(lease.keys):
            if self.delete(key):
                dropped.append(key)
        return dropped

    # -- watches ------------------------------------------------------------------
    def watch(self, prefix: str, callback: WatchCallback) -> int:
        """Register *callback* for changes under *prefix*; returns a watch id."""
        self._watch_id += 1
        self._watchers.append((self._watch_id, prefix, callback))
        return self._watch_id

    def cancel_watch(self, watch_id: int) -> bool:
        before = len(self._watchers)
        self._watchers = [w for w in self._watchers if w[0] != watch_id]
        return len(self._watchers) != before

    def _notify(self, event: KVEvent) -> None:
        # Watcher isolation: the mutation is already applied, so one raising
        # callback must not starve the rest of their notification. Every
        # matching watcher runs; failures are re-raised (aggregated) after
        # dispatch so they stay loud without corrupting delivery.
        failures: List[Tuple[int, BaseException]] = []
        for watch_id, prefix, callback in list(self._watchers):
            if event.key.startswith(prefix):
                try:
                    callback(event)
                except Exception as exc:  # noqa: BLE001 -- isolate any watcher bug
                    failures.append((watch_id, exc))
        if failures:
            detail = "; ".join(
                f"watch {watch_id}: {exc!r}" for watch_id, exc in failures
            )
            raise KVStoreError(
                f"{len(failures)} watcher callback(s) failed on "
                f"{event.type} {event.key!r}: {detail}"
            ) from failures[0][1]

    @staticmethod
    def _validate_key(key: str) -> None:
        if not key or not isinstance(key, str):
            raise KVStoreError("keys must be non-empty strings")


class StoreFront:
    """One forwarding layer over a :class:`KVStore` (or another front).

    Every public store operation reaches :attr:`inner` through one hook,
    :meth:`_call`, which gets the operation's name (see :data:`REMOTE_OPS`
    and :data:`WRITE_OPS`), its target -- the key, prefix or pattern, or
    ``"<lease>"``, ``"<lease N>"``, ``"<leases>"`` for lease calls -- and a
    thunk that runs it. A front (fault injection, retries, the leadership
    fence) overrides only :meth:`_call`; fronts stack, each being a store.
    """

    def __init__(self, inner: KVStore):
        self.inner = inner

    def _call(self, op: str, target: str, run: Callable[[], T]) -> T:
        return run()

    @property
    def revision(self) -> int:
        return self._call("revision", "", lambda: self.inner.revision)

    def put(self, key: str, value: str, lease: Optional[int] = None) -> int:
        return self._call("put", key, lambda: self.inner.put(key, value, lease=lease))

    def get(self, key: str) -> Optional[str]:
        return self._call("get", key, lambda: self.inner.get(key))

    def get_with_revision(self, key: str) -> Tuple[Optional[str], int]:
        return self._call("get_with_revision", key, lambda: self.inner.get_with_revision(key))

    def delete(self, key: str) -> bool:
        return self._call("delete", key, lambda: self.inner.delete(key))

    def compare_and_swap(
        self, key: str, expected: Optional[str], value: str, lease: Optional[int] = None
    ) -> bool:
        return self._call(
            "compare_and_swap",
            key,
            lambda: self.inner.compare_and_swap(key, expected, value, lease=lease),
        )

    def list_prefix(self, prefix: str) -> Dict[str, str]:
        return self._call("list_prefix", prefix, lambda: self.inner.list_prefix(prefix))

    def keys(self, pattern: str = "*") -> List[str]:
        return self._call("keys", pattern, lambda: self.inner.keys(pattern))

    def __len__(self) -> int:
        return self._call("len", "", lambda: len(self.inner))

    def __contains__(self, key: str) -> bool:
        return self._call("contains", key, lambda: key in self.inner)

    def grant_lease(self, ttl: float, now: float = 0.0) -> int:
        return self._call("grant_lease", "<lease>", lambda: self.inner.grant_lease(ttl, now))

    def renew_lease(self, lease_id: int, now: float) -> float:
        return self._call(
            "renew_lease", f"<lease {lease_id}>", lambda: self.inner.renew_lease(lease_id, now)
        )

    def revoke_lease(self, lease_id: int) -> List[str]:
        return self._call(
            "revoke_lease", f"<lease {lease_id}>", lambda: self.inner.revoke_lease(lease_id)
        )

    def expire_leases(self, now: float) -> List[int]:
        return self._call("expire_leases", "<leases>", lambda: self.inner.expire_leases(now))

    def lease_remaining(self, lease_id: int, now: float) -> float:
        return self._call(
            "lease_remaining",
            f"<lease {lease_id}>",
            lambda: self.inner.lease_remaining(lease_id, now),
        )

    def lease_ttl(self, lease_id: int) -> float:
        return self._call(
            "lease_ttl", f"<lease {lease_id}>", lambda: self.inner.lease_ttl(lease_id)
        )

    def lease_keys(self, lease_id: int) -> List[str]:
        return self._call(
            "lease_keys", f"<lease {lease_id}>", lambda: self.inner.lease_keys(lease_id)
        )

    def has_lease(self, lease_id: int) -> bool:
        return self._call(
            "has_lease", f"<lease {lease_id}>", lambda: self.inner.has_lease(lease_id)
        )

    def watch(self, prefix: str, callback: WatchCallback) -> int:
        return self._call("watch", prefix, lambda: self.inner.watch(prefix, callback))

    def cancel_watch(self, watch_id: int) -> bool:
        return self._call(
            "cancel_watch", f"<watch {watch_id}>", lambda: self.inner.cancel_watch(watch_id)
        )
