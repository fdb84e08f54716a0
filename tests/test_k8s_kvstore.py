"""Tests for the etcd-like key/value store."""

import inspect

import pytest

from repro.common.errors import KVStoreError
from repro.faults.kv import FlakyKVStore, RetryingKVStore
from repro.k8s.election import FencedKVStore, LeaderElection
from repro.k8s.kvstore import KVStore


@pytest.fixture
def store():
    return KVStore()


class TestBasicOps:
    def test_put_get(self, store):
        store.put("/a", "1")
        assert store.get("/a") == "1"

    def test_get_missing(self, store):
        assert store.get("/nope") is None

    def test_overwrite(self, store):
        store.put("/a", "1")
        store.put("/a", "2")
        assert store.get("/a") == "2"

    def test_delete(self, store):
        store.put("/a", "1")
        assert store.delete("/a")
        assert store.get("/a") is None
        assert not store.delete("/a")

    def test_revision_monotone(self, store):
        r1 = store.put("/a", "1")
        r2 = store.put("/b", "2")
        store.delete("/a")
        assert r2 == r1 + 1
        assert store.revision == r2 + 1

    def test_get_with_revision(self, store):
        rev = store.put("/a", "1")
        value, mod = store.get_with_revision("/a")
        assert (value, mod) == ("1", rev)
        assert store.get_with_revision("/zzz") == (None, 0)

    def test_len_and_contains(self, store):
        store.put("/a", "1")
        assert len(store) == 1
        assert "/a" in store

    def test_invalid_key(self, store):
        with pytest.raises(KVStoreError):
            store.put("", "x")


class TestCAS:
    def test_create_only(self, store):
        assert store.compare_and_swap("/a", None, "1")
        assert not store.compare_and_swap("/a", None, "2")
        assert store.get("/a") == "1"

    def test_swap_on_match(self, store):
        store.put("/a", "1")
        assert store.compare_and_swap("/a", "1", "2")
        assert store.get("/a") == "2"

    def test_swap_on_mismatch(self, store):
        store.put("/a", "1")
        assert not store.compare_and_swap("/a", "0", "2")
        assert store.get("/a") == "1"


class TestQueries:
    def test_list_prefix(self, store):
        store.put("/pods/a", "1")
        store.put("/pods/b", "2")
        store.put("/nodes/x", "3")
        assert store.list_prefix("/pods/") == {"/pods/a": "1", "/pods/b": "2"}

    @pytest.mark.parametrize("front", ["plain", "fenced", "retrying"])
    def test_list_prefix_exact_matches_sorted(self, store, front):
        # Inserted out of order, with near-prefixes on both sides of the
        # matching range.
        for key in ("/podsx", "/pods/b/1", "/nodes/n1", "/pods/a", "/pod",
                    "/pods/", "/pods/b", "/nodes/n0", "/pods/a/0", "/podsx/a"):
            store.put(key, key.upper())
        if front == "fenced":
            election = LeaderElection(store, "a", ttl=5.0)
            election.campaign(0.0)
            store = FencedKVStore(store, election)
        elif front == "retrying":
            store = RetryingKVStore(store)
        listed = store.list_prefix("/pods/")
        expected = ["/pods/", "/pods/a", "/pods/a/0", "/pods/b", "/pods/b/1"]
        assert list(listed) == expected
        assert listed == {key: key.upper() for key in expected}
        assert list(store.list_prefix("/nodes/")) == ["/nodes/n0", "/nodes/n1"]
        assert store.list_prefix("/missing/") == {}

    def test_keys_glob(self, store):
        store.put("/pods/a", "1")
        store.put("/pods/b", "2")
        assert store.keys("/pods/*") == ["/pods/a", "/pods/b"]


class TestWatches:
    def test_watch_fires_on_put_and_delete(self, store):
        events = []
        store.watch("/pods/", events.append)
        store.put("/pods/a", "1")
        store.put("/nodes/x", "2")  # outside the prefix
        store.delete("/pods/a")
        assert [e.type for e in events] == ["put", "delete"]
        assert events[0].value == "1"
        assert events[1].value is None

    def test_event_carries_revision(self, store):
        events = []
        store.watch("/", events.append)
        rev = store.put("/a", "1")
        assert events[0].revision == rev

    def test_cancel_watch(self, store):
        events = []
        watch_id = store.watch("/", events.append)
        assert store.cancel_watch(watch_id)
        store.put("/a", "1")
        assert events == []
        assert not store.cancel_watch(watch_id)

    def test_multiple_watchers(self, store):
        a, b = [], []
        store.watch("/", a.append)
        store.watch("/pods/", b.append)
        store.put("/pods/x", "1")
        assert len(a) == 1 and len(b) == 1


class TestLeaseAttachment:
    def test_reput_moves_key_off_the_old_lease(self, store):
        old = store.grant_lease(5.0, now=0.0)
        new = store.grant_lease(5.0, now=0.0)
        store.put("/a", "1", lease=old)
        store.put("/b", "1", lease=old)
        store.put("/a", "2", lease=new)
        store.put("/b", "2")
        assert store.lease_keys(old) == []
        assert store.lease_keys(new) == ["/a"]
        assert store.revoke_lease(old) == []
        assert store.get("/a") == "2"
        assert store.get("/b") == "2"
        assert store.revoke_lease(new) == ["/a"]
        assert store.get("/a") is None
        assert store.get("/b") == "2"


def _public_interface(cls):
    names = {
        name
        for name, _ in inspect.getmembers(cls)
        if not name.startswith("_") or name in ("__len__", "__contains__")
    }
    return {
        name: (
            None
            if isinstance(getattr(cls, name), property)
            else list(inspect.signature(getattr(cls, name)).parameters)
        )
        for name in names
    }


class TestWrapperParity:
    @pytest.mark.parametrize(
        "wrapper", [FlakyKVStore, RetryingKVStore, FencedKVStore]
    )
    def test_wrappers_expose_every_store_method(self, wrapper):
        """Each wrapper offers every public KVStore method, same parameters."""
        interface = _public_interface(wrapper)
        for name, params in _public_interface(KVStore).items():
            assert name in interface, f"{wrapper.__name__} lacks {name}"
            assert interface[name] == params, f"{wrapper.__name__}.{name}"

    def test_campaign_over_retrying_flaky_store(self):
        store = RetryingKVStore(FlakyKVStore(KVStore()))
        election = LeaderElection(store, "a", ttl=3.0)
        assert election.campaign(0.0) == 1
        assert election.is_leader(1.0)
        assert store.lease_ttl(election.current_leader().lease_id) == 3.0
