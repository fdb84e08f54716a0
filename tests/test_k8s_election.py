"""Leader election, fencing tokens, and the FencedKVStore write guard."""

import pytest

from repro.cluster import cpu_mem
from repro.common.errors import ControllerCrashed, KVStoreError, StaleLeaderError
from repro.faults import CRASH_AFTER_CHECKPOINT, ControllerCrash, CrashPointInjector
from repro.k8s import (
    EPOCH_KEY,
    LEADER_KEY,
    APIServer,
    FencedKVStore,
    KVStore,
    LeaderElection,
    LeaderRecord,
)
from repro.k8s.controller import INTENT_DONE, JobController, JobTarget
from repro.obs import RecordingTracer
from repro.obs.tracer import (
    EVENT_LEADER_DEPOSED,
    EVENT_LEADER_ELECTED,
    EVENT_WRITE_FENCED,
)


@pytest.fixture
def store():
    return KVStore()


def election(store, name, ttl=2.0, tracer=None):
    return LeaderElection(store, name, ttl=ttl, tracer=tracer)


class TestCampaign:
    def test_first_campaign_wins_epoch_one(self, store):
        a = election(store, "a")
        assert a.campaign(0.0) == 1
        assert a.leading
        assert a.is_leader(0.0)
        assert a.fencing_token == 1
        record = a.current_leader()
        assert record == LeaderRecord("a", 1, record.lease_id)

    def test_live_rival_makes_campaign_back_off(self, store):
        a, b = election(store, "a"), election(store, "b")
        assert a.campaign(0.0) == 1
        assert b.campaign(0.0) is None
        assert not b.leading
        assert b.epoch is None

    def test_campaign_is_idempotent_for_the_reigning_leader(self, store):
        a = election(store, "a")
        assert a.campaign(0.0) == 1
        assert a.campaign(1.0) == 1  # still reigning, same term
        assert int(store.get(EPOCH_KEY)) == 1

    def test_lapsed_leader_is_deposed_and_vacancy_won(self, store):
        tracer = RecordingTracer()
        a = election(store, "a", tracer=tracer)
        b = election(store, "b", tracer=tracer)
        assert a.campaign(0.0) == 1
        # a never renews; at ttl the lease is lapsed and b takes over.
        assert b.campaign(2.0) == 2
        assert b.is_leader(2.0)
        deposed = tracer.of_type(EVENT_LEADER_DEPOSED)
        assert [(e["leader"], e["epoch"]) for e in deposed] == [("a", 1)]

    def test_epochs_strictly_increase_across_terms(self, store):
        epochs = []
        now = 0.0
        for i in range(3):
            candidate = election(store, f"c{i}")
            epochs.append(candidate.campaign(now))
            candidate.resign(now)
            now += 1.0
        assert epochs == [1, 2, 3]

    def test_cas_loser_backs_off_without_leaking_its_scratch_lease(self, store):
        """Two candidates campaign the same tick; exactly one wins.

        The single-threaded store serialises campaigns, so the race is
        staged through a watcher: the instant candidate a mints its epoch
        (the first store write of a campaign), candidate b runs a full
        campaign and claims the vacancy. a's create-only CAS on the
        leader key then loses, and it must back off cleanly.
        """
        a, b = election(store, "a"), election(store, "b")
        interleaved = []

        def rival_interleaves(event):
            # Fire exactly once (b's own campaign also touches the epoch
            # key, and must not re-enter this callback).
            if event.key == EPOCH_KEY and not interleaved:
                interleaved.append(None)
                interleaved[0] = b.campaign(0.0)

        store.watch(EPOCH_KEY, rival_interleaves)
        leases_before = store  # for lease-leak accounting below
        assert a.campaign(0.0) is None
        assert interleaved == [2]  # b re-minted above a's unclaimed epoch
        assert b.is_leader(0.0)
        assert not a.leading
        # a's scratch lease was revoked: only b's election lease survives.
        record = b.current_leader()
        assert record.name == "b"
        assert leases_before.has_lease(record.lease_id)
        assert leases_before.lease_keys(record.lease_id) == [LEADER_KEY]

    def test_validation(self, store):
        with pytest.raises(KVStoreError):
            LeaderElection(store, "", ttl=2.0)
        with pytest.raises(KVStoreError):
            LeaderElection(store, "a", ttl=0.0)


class TestRenewBoundary:
    def test_renew_within_ttl_extends_the_reign(self, store):
        a = election(store, "a", ttl=2.0)
        a.campaign(0.0)
        assert a.renew(1.0)
        assert a.is_leader(2.5)  # renewed at 1.0 -> expires 3.0

    def test_renew_at_exactly_ttl_is_too_late(self, store):
        """The boundary is exact: ``now == grant + ttl`` is already lapsed.

        Otherwise a renew and a rival campaign landing on the same tick
        could both succeed -- a split reign at the boundary.
        """
        tracer = RecordingTracer()
        a = election(store, "a", ttl=2.0, tracer=tracer)
        b = election(store, "b", ttl=2.0, tracer=tracer)
        a.campaign(0.0)
        assert b.campaign(2.0) == 2  # the rival wins the boundary tick...
        assert not a.renew(2.0)  # ...and the old leader's renew fails
        assert not a.leading
        assert b.is_leader(2.0)
        # Both observers trace the dead reign -- b deposing the stale
        # record, a discovering the loss -- and the checker tolerates the
        # duplicate; every entry names a's term.
        deposed = [
            e for e in tracer.of_type(EVENT_LEADER_DEPOSED) if e["epoch"] == 1
        ]
        assert deposed and all(e["leader"] == "a" for e in deposed)
        # a's own side is traced once: a retried renew adds nothing.
        assert not a.renew(2.5)
        assert deposed == [
            e for e in tracer.of_type(EVENT_LEADER_DEPOSED) if e["epoch"] == 1
        ]

    def test_renew_without_a_term_is_false(self, store):
        assert not election(store, "a").renew(0.0)

    def test_resign_drops_the_claim_and_traces_once(self, store):
        tracer = RecordingTracer()
        a = election(store, "a", tracer=tracer)
        a.campaign(0.0)
        a.resign(1.0)
        a.resign(1.5)  # idempotent
        assert store.get(LEADER_KEY) is None
        assert len(tracer.of_type(EVENT_LEADER_DEPOSED)) == 1
        assert not a.leading
        assert a.epoch == 1  # the token survives for post-mortem messages


class TestObservedLeader:
    def test_watch_cache_tracks_the_record(self, store):
        a, b = election(store, "a"), election(store, "b")
        a.campaign(0.0)
        assert b.observed_leader.name == "a"
        a.resign(1.0)
        assert b.observed_leader is None
        b.campaign(1.0)
        assert a.observed_leader == b.current_leader()

    def test_torn_record_is_no_leader(self, store):
        a = election(store, "a")
        store.put(LEADER_KEY, "{not json")
        assert a.observed_leader is None


class TestFencedWrites:
    def test_mutations_pass_while_reigning(self, store):
        a = election(store, "a")
        a.campaign(0.0)
        fenced = FencedKVStore(store, a)
        fenced.put("/x", "1")
        assert fenced.get("/x") == "1"
        assert fenced.delete("/x")
        assert fenced.fenced_writes == 0

    def test_severed_leader_is_fenced_and_learns_it(self, store):
        tracer = RecordingTracer()
        a = election(store, "a", tracer=tracer)
        a.campaign(0.0)
        fenced = FencedKVStore(store, a)
        a.sever(1.0)
        assert a.leading  # the stale belief: nobody told it yet
        with pytest.raises(StaleLeaderError):
            fenced.put("/x", "1")
        assert not a.leading  # the fence is how it finds out
        assert fenced.fenced_writes == 1
        assert store.get("/x") is None
        events = tracer.of_type(EVENT_WRITE_FENCED)
        assert [(e["op"], e["key"]) for e in events] == [("put", "/x")]

    def test_every_mutation_is_guarded(self, store):
        a = election(store, "a")
        a.campaign(0.0)
        fenced = FencedKVStore(store, a)
        lease = fenced.grant_lease(5.0, 0.0)
        a.sever(1.0)
        for call in (
            lambda: fenced.put("/x", "1"),
            lambda: fenced.delete("/x"),
            lambda: fenced.compare_and_swap("/x", None, "1"),
            lambda: fenced.grant_lease(5.0, 1.0),
            lambda: fenced.renew_lease(lease, 1.0),
            lambda: fenced.revoke_lease(lease),
            lambda: fenced.expire_leases(1.0),
        ):
            with pytest.raises(StaleLeaderError):
                call()
        assert fenced.fenced_writes == 7

    def test_reads_pass_through_after_deposition(self, store):
        a = election(store, "a")
        a.campaign(0.0)
        fenced = FencedKVStore(store, a)
        fenced.put("/x", "1")
        a.sever(1.0)
        assert fenced.get("/x") == "1"
        assert fenced.list_prefix("/") and "/x" in fenced
        assert fenced.revision == store.revision

    def test_fencing_never_stacks(self, store):
        a = election(store, "a")
        fenced = FencedKVStore(store, a)
        refenced = FencedKVStore(fenced, a)
        assert refenced.inner is store

    def test_stale_leader_error_is_not_a_kvstore_error(self):
        # The reconcile degradation path absorbs KVStoreError; a fenced
        # write must never be absorbed, exactly like ControllerCrashed.
        assert not issubclass(StaleLeaderError, KVStoreError)


class TestTornIntentReplay:
    def test_zombie_replay_of_a_completed_intent_is_fenced(self, store):
        """A deposed leader replaying a torn intent cannot undo its successor.

        Leader a crashes after checkpointing job j (torn intent). The
        successor b replays and completes the rescale. The zombie a then
        wakes up and tries the same replay through its fenced store: every
        write bounces, and b's completed state is untouched.
        """
        def target_for(workers):
            return JobTarget(
                job_id="j",
                worker_demand=cpu_mem(1, 1),
                ps_demand=cpu_mem(1, 1),
                layout={"n0": (workers, 1)},
            )

        api_a = APIServer(store)
        api_a.register_node("n0", cpu_mem(16, 64))
        a = election(store, "a")
        assert a.campaign(0.0) == 1
        api_a.fence_writes(a)
        controller_a = JobController(
            api_a,
            crash_points=CrashPointInjector(
                [ControllerCrash(CRASH_AFTER_CHECKPOINT, job_id="j")]
            ),
        )
        controller_a.adopt_job("j")
        controller_a.reconcile([target_for(1)], job_progress={"j": 100.0})
        # The rescale 1 -> 2 workers crashes right after the checkpoint:
        # the intent is torn (checkpointed, pods not yet replaced).
        with pytest.raises(ControllerCrashed):
            controller_a.reconcile([target_for(2)], job_progress={"j": 200.0})

        # The successor deposes the lapsed reign and replays the intent.
        b = election(store, "b")
        assert b.campaign(2.0) == 2
        api_b = APIServer(store)
        api_b.fence_writes(b)
        controller_b = JobController(api_b)
        replayed = list(controller_b.replay_intents())
        assert [job_id for job_id, _, _ in replayed] == ["j"]
        assert controller_b.list_intents()["j"].phase == INTENT_DONE
        pods_after_replay = sorted(p.name for p in api_b.list_pods())

        # The zombie wakes up. Replaying the already-sealed intent is a
        # read-only no-op (idempotent) ...
        assert list(controller_a.replay_intents()) == []
        # ... but resuming its interrupted rescale means *writing*, and
        # the very first write bounces off the fence.
        with pytest.raises(StaleLeaderError):
            controller_a.reconcile([target_for(2)], job_progress={"j": 200.0})
        assert api_a.store.fenced_writes > 0
        assert controller_b.list_intents()["j"].phase == INTENT_DONE
        assert sorted(p.name for p in api_b.list_pods()) == pods_after_replay
