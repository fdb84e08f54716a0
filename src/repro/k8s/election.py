"""Lease-based leader election with epoch fencing tokens.

Optimus assumes one always-alive central scheduler; running the control
plane as a *service* needs hot/standby controllers that survive the
leader dying without double-driving jobs. This module implements the
etcd election recipe over :class:`~repro.k8s.kvstore.KVStore`:

* A candidate **campaigns** by create-only compare-and-swap on
  ``/election/leader``, attaching the record to its own TTL lease -- the
  claim dies with the holder. Exactly one campaigner per vacancy wins.
* Every term mints a **fencing token**: a strictly increasing epoch kept
  under ``/election/epoch``. The token outlives any individual reign, so
  a write stamped with epoch *n* can always be recognised as stale once
  epoch *n+1* exists.
* :class:`FencedKVStore` is the enforcement point: it wraps the store a
  controller writes through and rejects every mutation once the
  caller's reign is over, raising the typed
  :class:`~repro.common.errors.StaleLeaderError`. This is what prevents
  the classic split-brain: a leader that stalls (GC pause, partition),
  loses its lease, and wakes up mid-reconcile cannot corrupt state the
  successor already owns -- its pending ``put``/``delete``/CAS calls all
  bounce off the fence.

The store is single-threaded and has no background clock; liveness is
therefore *polled*: a standby calls :meth:`LeaderElection.campaign` each
tick, which treats a leader record whose lease lapsed as a vacancy (and
cleans it up, emitting ``leader_deposed`` for the dead reign). A watch
on ``/election/`` keeps :attr:`LeaderElection.observed_leader` current
for introspection, but cannot replace polling: a silently dead leader
produces no delete event until someone notices its lease lapsed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from repro.common.errors import KVStoreError, StaleLeaderError
from repro.k8s.kvstore import WRITE_OPS, KVEvent, KVStore, StoreFront
from repro.obs.registry import MetricsRegistry, active_registry
from repro.obs.tracer import (
    EVENT_LEADER_DEPOSED,
    EVENT_LEADER_ELECTED,
    EVENT_WRITE_FENCED,
    NULL_TRACER,
    Tracer,
)

#: Every election object lives under this prefix (standbys watch it).
ELECTION_PREFIX = "/election/"
#: The reigning leader's record, attached to the leader's TTL lease.
LEADER_KEY = ELECTION_PREFIX + "leader"
#: The fencing-token counter; unleased, survives every reign.
EPOCH_KEY = ELECTION_PREFIX + "epoch"

T = TypeVar("T")


@dataclass(frozen=True)
class LeaderRecord:
    """The durable claim one reign writes under :data:`LEADER_KEY`."""

    name: str
    epoch: int
    lease_id: int

    def to_json(self) -> str:
        return json.dumps(
            {"name": self.name, "epoch": self.epoch, "lease_id": self.lease_id},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, payload: str) -> "LeaderRecord":
        data = json.loads(payload)
        return cls(
            name=data["name"],
            epoch=int(data["epoch"]),
            lease_id=int(data["lease_id"]),
        )


class LeaderElection:
    """One candidate's handle on the ``/election/`` protocol.

    All methods take an explicit ``now`` (the store has no clock); the
    instance tracks the high-water mark so fencing events emitted from
    inside :class:`FencedKVStore` -- which has no ``now`` of its own --
    carry a sensible timestamp.
    """

    def __init__(
        self,
        store: KVStore,
        candidate: str,
        ttl: float,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if not candidate:
            raise KVStoreError("election candidates need a non-empty name")
        if ttl <= 0:
            raise KVStoreError("election lease ttl must be positive")
        # Elections always talk past the fence: a fenced store would
        # reject the very campaign that re-establishes leadership.
        self.store: KVStore = unfenced(store)
        self.candidate = candidate
        self.ttl = float(ttl)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else active_registry()
        self.now = 0.0
        self._lease_id: Optional[int] = None
        self._epoch: Optional[int] = None
        self._deposed_emitted = False
        #: The last leader record this candidate saw change (watch cache);
        #: ``None`` when the key was deleted or never observed.
        self.observed_leader: Optional[LeaderRecord] = None
        self._watch_id = self.store.watch(ELECTION_PREFIX, self._on_change)

    # -- introspection -------------------------------------------------------------
    @property
    def epoch(self) -> Optional[int]:
        """This candidate's fencing token for its current/last reign."""
        return self._epoch

    #: Alias: the epoch *is* the fencing token.
    fencing_token = epoch

    @property
    def leading(self) -> bool:
        """Cheap local belief (no liveness check); see :meth:`is_leader`."""
        return self._lease_id is not None

    def current_leader(self) -> Optional[LeaderRecord]:
        """The reigning record in the store, live or not."""
        payload = self.store.get(LEADER_KEY)
        return LeaderRecord.from_json(payload) if payload else None

    def leader_alive(self, now: float) -> bool:
        """True iff *some* candidate's claim is backed by a live lease."""
        record = self.current_leader()
        return (
            record is not None
            and self.store.has_lease(record.lease_id)
            and self.store.lease_remaining(record.lease_id, now) > 0
        )

    def is_leader(self, now: float) -> bool:
        """True iff this candidate's claim is present *and* its lease lives."""
        self.now = max(self.now, now)
        if self._lease_id is None or not self.store.has_lease(self._lease_id):
            return False
        if self.store.lease_remaining(self._lease_id, now) <= 0:
            return False
        return self.owns(self.current_leader())

    def owns(self, record: Optional[LeaderRecord]) -> bool:
        """True iff *record* is this candidate's current (or last) reign."""
        return (
            record is not None
            and record.name == self.candidate
            and record.epoch == self._epoch
        )

    # -- the protocol --------------------------------------------------------------
    def campaign(self, now: float) -> Optional[int]:
        """Try to become leader; returns the minted epoch, or ``None``.

        A live rival's reign makes the campaign back off immediately. A
        *stale* record (its lease lapsed) is deposed first -- revoked and
        traced ``leader_deposed`` -- then the vacancy is contested: mint
        the next epoch via CAS on :data:`EPOCH_KEY`, grant a fresh TTL
        lease, and claim :data:`LEADER_KEY` with a create-only leased
        CAS. Losing either CAS (a rival interleaved through a watcher)
        backs off without side effects beyond the revoked scratch lease.
        """
        self.now = max(self.now, now)
        record = self.current_leader()
        if record is not None:
            alive = (
                self.store.has_lease(record.lease_id)
                and self.store.lease_remaining(record.lease_id, now) > 0
            )
            if alive:
                if self.owns(record):
                    return self._epoch  # already reigning
                return None  # a live rival reigns; back off
            self._depose_record(record, now)
        while True:
            current = self.store.get(EPOCH_KEY)
            epoch = (int(current) if current is not None else 0) + 1
            if self.store.compare_and_swap(EPOCH_KEY, current, str(epoch)):
                break
            # A rival minted concurrently (via a watcher interleaving);
            # retry strictly above whatever it published.
        lease_id = self.store.grant_lease(self.ttl, now)
        claim = LeaderRecord(self.candidate, epoch, lease_id)
        if not self.store.compare_and_swap(
            LEADER_KEY, None, claim.to_json(), lease=lease_id
        ):
            # CAS loser: someone claimed the vacancy first. Back off.
            self.store.revoke_lease(lease_id)
            self.metrics.counter("election.campaigns_lost").inc()
            return None
        self._lease_id = lease_id
        self._epoch = epoch
        self._deposed_emitted = False
        if self.tracer:
            self.tracer.emit(
                EVENT_LEADER_ELECTED, now, leader=self.candidate, epoch=epoch
            )
        self.metrics.counter("election.terms").inc()
        return epoch

    def renew(self, now: float) -> bool:
        """Keep-alive for the reign; ``False`` once the reign is over.

        The boundary is exact: a renew arriving at ``now == grant + ttl``
        is already too late (the lease "expired" test is ``now >=
        expires_at``), so a standby campaigning the same tick wins -- no
        split reign at the boundary. Discovering the loss marks this
        candidate deposed (traced once).
        """
        self.now = max(self.now, now)
        if self._lease_id is None:
            return False
        try:
            if not self.store.has_lease(self._lease_id):
                raise KVStoreError(
                    f"election lease {self._lease_id} is gone"
                )
            if not self.owns(self.current_leader()):
                raise KVStoreError("leader record no longer ours")
            self.store.renew_lease(self._lease_id, now)
        except KVStoreError:
            self.mark_deposed(now)
            return False
        return True

    def resign(self, now: float) -> None:
        """Step down cleanly: revoke the lease (dropping the claim)."""
        self.now = max(self.now, now)
        if self._lease_id is None:
            return
        record = self.current_leader()
        if self.owns(record):
            self.store.revoke_lease(record.lease_id)
        self.mark_deposed(now, reason="resign")

    def mark_deposed(self, now: float, reason: str = "deposed") -> None:
        """Record (and trace, once per term) that this reign ended.

        *reason* rides on the ``leader_deposed`` event: a voluntary
        ``"resign"`` (clean shutdown) does not start the soak checker's
        failover clock, while an involuntary ``"deposed"``/``"lapsed"``
        reign-end demands a successor within the failover bound.
        """
        self.now = max(self.now, now)
        if self._epoch is not None and not self._deposed_emitted:
            if self.tracer:
                self.tracer.emit(
                    EVENT_LEADER_DEPOSED,
                    now,
                    leader=self.candidate,
                    epoch=self._epoch,
                    reason=reason,
                )
            self.metrics.counter("election.depositions").inc()
            self._deposed_emitted = True
        self._lease_id = None

    def sever(self, now: float) -> None:
        """Kill this reign *behind the leader's back* (test/chaos hook).

        Models the GC-pause/partition story: the store-side claim and
        lease vanish, but the candidate's in-memory state still believes
        it leads -- so its very next write through a
        :class:`FencedKVStore` raises :class:`StaleLeaderError`.
        """
        record = self.current_leader()
        if self.owns(record):
            self.store.revoke_lease(record.lease_id)
            self.store.delete(LEADER_KEY)  # in case the lease was already gone
        elif self._lease_id is not None:
            self.store.revoke_lease(self._lease_id)
        self.now = max(self.now, now)
        # Deliberately leave _lease_id/_epoch untouched: the stale belief
        # is the point.

    # -- internals -----------------------------------------------------------------
    def _depose_record(self, record: LeaderRecord, now: float) -> None:
        """Clean up a stale reign found during a campaign."""
        self.store.revoke_lease(record.lease_id)  # no-op if already swept
        survivor = self.store.get(LEADER_KEY)
        if survivor is not None and LeaderRecord.from_json(survivor) == record:
            self.store.delete(LEADER_KEY)
        if self.tracer:
            self.tracer.emit(
                EVENT_LEADER_DEPOSED,
                now,
                leader=record.name,
                epoch=record.epoch,
                reason="lapsed",
            )
        self.metrics.counter("election.depositions").inc()
        if self.owns(record):
            self._deposed_emitted = True  # just traced our own stale reign
            self._lease_id = None

    def _on_change(self, event: KVEvent) -> None:
        if event.key != LEADER_KEY:
            return
        try:
            self.observed_leader = (
                LeaderRecord.from_json(event.value)
                if event.type == "put" and event.value
                else None
            )
        except (ValueError, KeyError):
            self.observed_leader = None  # a torn record is no leader


def unfenced(store: KVStore) -> KVStore:
    """*store* without its leadership fence, if it has one.

    The one unwrap rule: only a :class:`FencedKVStore` is stripped, so a
    fence over a retrying front keeps the retries when it is re-fenced,
    and elections campaign through them.
    """
    return store.inner if isinstance(store, FencedKVStore) else store


class FencedKVStore(StoreFront):
    """A write guard: every mutation checks the holder still reigns.

    Reads pass straight through (stale reads are harmless in this
    architecture -- decisions are revalidated at write time); writes
    (:data:`~repro.k8s.kvstore.WRITE_OPS`) first verify that the wrapped
    election's claim is still the live leader record. A deposed holder's
    write raises :class:`StaleLeaderError` *before* touching the store,
    emits ``write_fenced`` and marks the election deposed, so the first
    fenced write is also how a paused leader discovers its reign ended.
    """

    def __init__(self, store: KVStore, election: LeaderElection):
        # Never double-wrap: a fenced store is re-fenced over its inner one.
        super().__init__(unfenced(store))
        self.election = election
        #: Mutations rejected so far (also counted as ``election.writes_fenced``).
        self.fenced_writes = 0

    def _call(self, op: str, target: str, run: Callable[[], T]) -> T:
        if op not in WRITE_OPS:
            return run()
        election = self.election
        lease_id = election._lease_id
        if (
            lease_id is not None
            and self.inner.has_lease(lease_id)
            and election.owns(election.current_leader())
        ):
            return run()
        self.fenced_writes += 1
        if election.tracer:
            election.tracer.emit(
                EVENT_WRITE_FENCED,
                election.now,
                leader=election.candidate,
                epoch=election.epoch,
                op=op,
                key=target,
            )
        election.metrics.counter("election.writes_fenced").inc()
        election.mark_deposed(election.now)
        raise StaleLeaderError(
            f"{op} {target!r} rejected: {election.candidate!r} "
            f"(epoch {election.epoch}) is no longer the leader"
        )
