"""Parameter-block assignment algorithms (§5.3).

Two competitors:

* :func:`mxnet_partition` -- MXNet's default policy: a block smaller than a
  fixed threshold (10^6 parameters by default) goes to one *random*
  parameter server; a block at or above the threshold is sliced evenly among
  *all* parameter servers. Random small-block placement plus
  all-server slicing is what produces both size imbalance and inflated
  request counts.

* :func:`paa_partition` -- the paper's Parameter Assignment Algorithm:
  process blocks in decreasing size order against the average per-server
  size ``avg = total / p``;

  - *tiny* blocks (< ``tiny_fraction * avg``) go to the server with the
    fewest update requests,
  - *medium* blocks (tiny..avg] go to the server with the smallest remaining
    capacity that can still accommodate them (best fit),
  - *large* blocks (> avg) are sliced into ``avg``-sized partitions, each
    assigned to the server with the smallest assigned size.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rand import SeedLike, spawn_rng
from repro.ps.blocks import Assignment, ParameterBlock, ServerLoad

#: MXNet's default slicing threshold, in parameters (§5.3).
MXNET_DEFAULT_THRESHOLD = 1_000_000

#: PAA's "very small" block cut-off, as a fraction of the average size (§6.1).
PAA_TINY_FRACTION = 0.01


def _validate(blocks: Sequence[ParameterBlock], num_servers: int) -> None:
    if num_servers < 1:
        raise ConfigurationError("need at least one parameter server")
    if not blocks:
        raise ConfigurationError("need at least one parameter block")


def mxnet_partition(
    blocks: Sequence[ParameterBlock],
    num_servers: int,
    threshold: float = MXNET_DEFAULT_THRESHOLD,
    seed: SeedLike = None,
) -> Assignment:
    """MXNet's default threshold-based partitioner."""
    _validate(blocks, num_servers)
    if threshold <= 0:
        raise ConfigurationError("threshold must be positive")
    rng = spawn_rng(seed, "mxnet-partition")
    servers = [ServerLoad(i) for i in range(num_servers)]
    for block in blocks:
        if block.size < threshold:
            target = int(rng.integers(0, num_servers))
            servers[target].add(block.name, block.size)
        else:
            slice_size = block.size / num_servers
            for server in servers:
                server.add(block.name, slice_size)
    return Assignment(servers=servers, algorithm="mxnet")


def paa_partition(
    blocks: Sequence[ParameterBlock],
    num_servers: int,
    tiny_fraction: float = PAA_TINY_FRACTION,
) -> Assignment:
    """The paper's Parameter Assignment Algorithm (deterministic)."""
    _validate(blocks, num_servers)
    if not 0 < tiny_fraction < 1:
        raise ConfigurationError("tiny_fraction must be in (0, 1)")
    servers = [ServerLoad(i) for i in range(num_servers)]
    total = sum(b.size for b in blocks)
    avg_size = total / num_servers
    tiny_cutoff = tiny_fraction * avg_size

    # Blocks arrive largest first: every large block before any medium one,
    # every medium one before any tiny one. So the least-loaded server of
    # the slice phase and the fewest-requests server of the tiny phase each
    # come off a heap that only its own phase changes.
    by_size = [(0.0, i) for i in range(num_servers)]  # (assigned_size, index)
    by_requests: Optional[List[Tuple[int, float, int]]] = None
    ordered = sorted(blocks, key=lambda b: (-b.size, b.name))
    for block in ordered:
        if block.size < tiny_cutoff:
            if by_requests is None:
                by_requests = [(s.num_requests, s.assigned_size, s.index) for s in servers]
                heapq.heapify(by_requests)
            target = servers[by_requests[0][2]]
            target.add(block.name, block.size)
            heapq.heapreplace(
                by_requests, (target.num_requests, target.assigned_size, target.index)
            )
        elif block.size <= avg_size:
            target = _best_fit(servers, block.size, avg_size)
            target.add(block.name, block.size)
        else:
            _slice_large(servers, by_size, block, avg_size)
    return Assignment(servers=servers, algorithm="paa")


def _best_fit(
    servers: List[ServerLoad], size: float, avg_size: float
) -> ServerLoad:
    """Server with the smallest remaining capacity that still fits *size*.

    Remaining capacity is ``avg_size - assigned``. When no server can
    accommodate the block within the average (possible late in the packing),
    fall back to the least-loaded server so the overflow is spread evenly.
    """
    fitting: Optional[ServerLoad] = None
    for server in servers:
        remaining = avg_size - server.assigned_size
        if remaining + 1e-9 >= size:
            if fitting is None or remaining < (avg_size - fitting.assigned_size):
                fitting = server
    if fitting is not None:
        return fitting
    return min(servers, key=lambda s: (s.assigned_size, s.index))


def _slice_large(
    servers: List[ServerLoad],
    by_size: List[Tuple[float, int]],
    block: ParameterBlock,
    avg_size: float,
) -> None:
    """Slice a block larger than ``avg_size`` into avg-sized partitions.

    Each slice goes to the least-loaded server, the top of the
    ``(assigned_size, index)`` heap *by_size*.
    """
    # Guard the ceil against float error: size/avg can land epsilon above an
    # integer (e.g. one block over 7 servers), which would mint an extra,
    # zero-sized slice -- and ServerLoad rejects non-positive pieces.
    num_slices = max(int(math.ceil(block.size / avg_size - 1e-9)), 1)
    remaining = block.size
    for i in range(num_slices):
        piece = remaining if i == num_slices - 1 else min(avg_size, remaining)
        if piece <= 0:
            break
        remaining -= piece
        target = servers[by_size[0][1]]
        target.add(f"{block.name}/slice-{i}", piece)
        heapq.heapreplace(by_size, (target.assigned_size, target.index))


def partition(
    blocks: Sequence[ParameterBlock],
    num_servers: int,
    algorithm: str = "paa",
    **kwargs,
) -> Assignment:
    """Dispatch to a partitioner by name (``"paa"`` or ``"mxnet"``)."""
    if algorithm == "paa":
        return paa_partition(blocks, num_servers, **kwargs)
    if algorithm == "mxnet":
        return mxnet_partition(blocks, num_servers, **kwargs)
    raise ConfigurationError(f"unknown partition algorithm {algorithm!r}")
