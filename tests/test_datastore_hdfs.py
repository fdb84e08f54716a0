"""Tests for the HDFS-like chunk store and worker assignment (§5.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DataStoreError
from repro.common.units import MB
from repro.datastore import ChunkAssignment, ChunkStore

NODES = [f"dn-{i}" for i in range(5)]


class TestChunkStore:
    def test_file_split_into_chunks(self):
        store = ChunkStore(NODES, chunk_size=128 * MB)
        f = store.add_file("data", 300 * MB)
        assert f.num_chunks == 3
        assert sum(c.size for c in f.chunks) == 300 * MB

    def test_last_chunk_partial(self):
        store = ChunkStore(NODES, chunk_size=128 * MB)
        f = store.add_file("data", 200 * MB)
        assert f.chunks[-1].size == 72 * MB

    def test_replication(self):
        store = ChunkStore(NODES, replication=3)
        f = store.add_file("data", 1)
        assert len(f.chunks[0].replicas) == 3
        assert len(set(f.chunks[0].replicas)) == 3

    def test_replicas_spread_over_nodes(self):
        store = ChunkStore(NODES, chunk_size=MB, replication=2)
        store.add_file("data", 50 * MB)
        counts = store.node_chunk_counts()
        assert max(counts.values()) - min(counts.values()) <= 2

    def test_duplicate_file_rejected(self):
        store = ChunkStore(NODES)
        store.add_file("data", 1)
        with pytest.raises(DataStoreError):
            store.add_file("data", 1)

    def test_lookup(self):
        store = ChunkStore(NODES)
        store.add_file("data", 1)
        assert "data" in store
        assert store.file("data").size == 1
        with pytest.raises(DataStoreError):
            store.file("missing")

    def test_remove_file(self):
        store = ChunkStore(NODES)
        store.add_file("data", 1)
        store.remove_file("data")
        assert "data" not in store
        assert sum(store.node_chunk_counts().values()) == 0
        with pytest.raises(DataStoreError):
            store.remove_file("data")

    def test_validation(self):
        with pytest.raises(DataStoreError):
            ChunkStore([])
        with pytest.raises(DataStoreError):
            ChunkStore(NODES, chunk_size=0)
        with pytest.raises(DataStoreError):
            ChunkStore(NODES, replication=9)
        store = ChunkStore(NODES)
        with pytest.raises(DataStoreError):
            store.add_file("x", 0)


class TestChunkAssignment:
    def make(self, num_chunks, num_workers):
        store = ChunkStore(NODES, chunk_size=MB)
        f = store.add_file("data", num_chunks * MB)
        return ChunkAssignment(f, num_workers)

    def test_initial_balance(self):
        assignment = self.make(10, 3)
        assert assignment.counts() == [4, 3, 3]
        assert assignment.is_balanced

    def test_all_chunks_assigned_once(self):
        assignment = self.make(11, 4)
        seen = [
            c.chunk_id for w in range(4) for c in assignment.chunks_of(w)
        ]
        assert len(seen) == 11
        assert len(set(seen)) == 11

    def test_unknown_worker(self):
        assignment = self.make(4, 2)
        with pytest.raises(DataStoreError):
            assignment.chunks_of(5)

    def test_scale_up_rebalances(self):
        assignment = self.make(12, 2)
        moved = assignment.rebalance(4)
        assert assignment.is_balanced
        assert assignment.counts() == [3, 3, 3, 3]
        assert moved == 6  # each old worker sheds half its chunks

    def test_scale_down_rebalances(self):
        assignment = self.make(12, 4)
        moved = assignment.rebalance(3)
        assert assignment.is_balanced
        assert moved >= 3  # at least the removed worker's chunks move

    def test_noop_rebalance(self):
        assignment = self.make(8, 4)
        assert assignment.rebalance(4) == 0

    def test_moves_are_minimal_on_scale_up(self):
        """Only the overflow above the new quota moves."""
        assignment = self.make(12, 3)  # 4 each
        moved = assignment.rebalance(4)  # new quota 3 each
        assert moved == 3

    def test_total_moved_accumulates(self):
        assignment = self.make(12, 2)
        assignment.rebalance(3)
        assignment.rebalance(2)
        assert assignment.total_moved > 0

    def test_validation(self):
        assignment = self.make(4, 2)
        with pytest.raises(DataStoreError):
            assignment.rebalance(0)
        store = ChunkStore(NODES)
        f = store.add_file("d", 1)
        with pytest.raises(DataStoreError):
            ChunkAssignment(f, 0)

    @settings(max_examples=50, deadline=None)
    @given(
        chunks=st.integers(1, 60),
        workers=st.lists(st.integers(1, 12), min_size=1, max_size=6),
    )
    def test_rebalance_invariants(self, chunks, workers):
        """After any scaling sequence: all chunks assigned, balanced."""
        assignment = self.make(chunks, workers[0])
        for w in workers[1:]:
            assignment.rebalance(w)
        counts = assignment.counts()
        assert sum(counts) == chunks
        assert max(counts) - min(counts) <= 1
