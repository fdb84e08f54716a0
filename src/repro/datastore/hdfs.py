"""HDFS-like chunked data serving (§5.1).

The paper stores training data in HDFS (128 MB chunks, replication factor 2)
and assigns a roughly equal number of chunks to each worker round-robin;
when Optimus rescales a job, chunks are reassigned to keep workers balanced.

This module reproduces that substrate: a :class:`ChunkStore` holding files
as replicated chunks across data nodes, and a :class:`ChunkAssignment` that
balances chunks over a job's workers and *rebalances with minimal movement*
when the worker count changes -- the moved-chunk count is the (re)shuffling
cost the simulator can charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import DataStoreError
from repro.common.units import MB

DEFAULT_CHUNK_SIZE = 128 * MB
DEFAULT_REPLICATION = 2


@dataclass(frozen=True)
class Chunk:
    """One chunk of a stored file."""

    file_name: str
    index: int
    size: int
    replicas: Tuple[str, ...]

    @property
    def chunk_id(self) -> str:
        return f"{self.file_name}#{self.index}"


@dataclass
class DataFile:
    """A file stored as replicated chunks."""

    name: str
    size: int
    chunks: List[Chunk]

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)


class ChunkStore:
    """A miniature HDFS namenode: files, chunks and replica placement.

    Replicas are placed round-robin over the data nodes, offset per chunk so
    consecutive chunks land on different primaries (the usual HDFS pattern
    of spreading load).
    """

    def __init__(
        self,
        data_nodes: Sequence[str],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        replication: int = DEFAULT_REPLICATION,
    ):
        nodes = list(dict.fromkeys(data_nodes))
        if not nodes:
            raise DataStoreError("need at least one data node")
        if chunk_size <= 0:
            raise DataStoreError("chunk_size must be positive")
        if not 1 <= replication <= len(nodes):
            raise DataStoreError(
                f"replication {replication} must be in [1, {len(nodes)}]"
            )
        self.data_nodes = nodes
        self.chunk_size = int(chunk_size)
        self.replication = int(replication)
        self._files: Dict[str, DataFile] = {}

    def add_file(self, name: str, size: int) -> DataFile:
        """Store a file, splitting it into replicated chunks."""
        if name in self._files:
            raise DataStoreError(f"file {name!r} already exists")
        if size <= 0:
            raise DataStoreError("file size must be positive")
        num_chunks = max(1, math.ceil(size / self.chunk_size))
        chunks = []
        n = len(self.data_nodes)
        remaining = size
        for i in range(num_chunks):
            replicas = tuple(
                self.data_nodes[(i + r) % n] for r in range(self.replication)
            )
            chunk_bytes = min(self.chunk_size, remaining)
            remaining -= chunk_bytes
            chunks.append(
                Chunk(file_name=name, index=i, size=chunk_bytes, replicas=replicas)
            )
        data_file = DataFile(name=name, size=int(size), chunks=chunks)
        self._files[name] = data_file
        return data_file

    def remove_file(self, name: str) -> None:
        """Forget a stored file and its chunks."""
        if self._files.pop(name, None) is None:
            raise DataStoreError(f"unknown file {name!r}")

    def file(self, name: str) -> DataFile:
        try:
            return self._files[name]
        except KeyError:
            raise DataStoreError(f"unknown file {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._files

    @property
    def file_names(self) -> Tuple[str, ...]:
        return tuple(self._files)

    def node_chunk_counts(self) -> Dict[str, int]:
        """Replica count per data node (for balance checks)."""
        counts = {node: 0 for node in self.data_nodes}
        for data_file in self._files.values():
            for chunk in data_file.chunks:
                for node in chunk.replicas:
                    counts[node] += 1
        return counts


class ChunkAssignment:
    """Balanced assignment of one file's chunks to a job's workers (§5.1)."""

    def __init__(self, data_file: DataFile, num_workers: int):
        if num_workers < 1:
            raise DataStoreError("need at least one worker")
        self.data_file = data_file
        self.num_workers = 0
        self._assignment: Dict[int, List[Chunk]] = {}
        self.total_moved = 0
        self._initial_assign(num_workers)

    def _initial_assign(self, num_workers: int) -> None:
        self.num_workers = num_workers
        self._assignment = {w: [] for w in range(num_workers)}
        for i, chunk in enumerate(self.data_file.chunks):
            self._assignment[i % num_workers].append(chunk)

    # -- queries -------------------------------------------------------------
    def chunks_of(self, worker: int) -> Tuple[Chunk, ...]:
        try:
            return tuple(self._assignment[worker])
        except KeyError:
            raise DataStoreError(
                f"worker {worker} not in [0, {self.num_workers})"
            ) from None

    def counts(self) -> List[int]:
        return [len(self._assignment[w]) for w in range(self.num_workers)]

    @property
    def is_balanced(self) -> bool:
        """True when worker loads differ by at most one chunk."""
        counts = self.counts()
        return (max(counts) - min(counts)) <= 1 if counts else True

    # -- rebalancing ----------------------------------------------------------
    def rebalance(self, new_num_workers: int) -> int:
        """Re-target the assignment to *new_num_workers*, moving few chunks.

        Keeps each surviving worker's chunks in place where possible: only
        the overflow above the new balanced quota, plus chunks of removed
        workers, are moved. Returns the number of chunks that changed
        workers (the reshuffling cost).
        """
        if new_num_workers < 1:
            raise DataStoreError("need at least one worker")
        if new_num_workers == self.num_workers:
            return 0
        total = self.data_file.num_chunks
        base, extra = divmod(total, new_num_workers)
        quotas = [base + (1 if w < extra else 0) for w in range(new_num_workers)]

        surviving = min(self.num_workers, new_num_workers)
        new_assignment: Dict[int, List[Chunk]] = {
            w: [] for w in range(new_num_workers)
        }
        pool: List[Chunk] = []
        for w in range(self.num_workers):
            chunks = self._assignment[w]
            if w < surviving:
                keep = chunks[: quotas[w]]
                new_assignment[w] = list(keep)
                pool.extend(chunks[quotas[w] :])
            else:
                pool.extend(chunks)

        moved = len(pool)
        for w in range(new_num_workers):
            while len(new_assignment[w]) < quotas[w]:
                new_assignment[w].append(pool.pop())
        if pool:
            raise DataStoreError("rebalance accounting error: chunks left over")

        self._assignment = new_assignment
        self.num_workers = new_num_workers
        self.total_moved += moved
        return moved
