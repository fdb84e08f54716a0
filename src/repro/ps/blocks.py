"""Parameter blocks and per-server assignments.

A DL model's parameters come in *blocks* (one per layer: weights, biases,
batch-norm statistics, embeddings...). The parameter servers jointly hold all
blocks; how blocks are divided among them determines the per-server load --
both the bytes moved per step and the number of parameter-update requests
(§5.3). This module defines the data model; the two competing assignment
algorithms live in :mod:`repro.ps.partition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class ParameterBlock:
    """One named block of model parameters (size in parameter count)."""

    name: str
    size: float

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(f"block {self.name!r} must have positive size")


def blocks_from_sizes(sizes: Sequence[float], prefix: str = "block") -> List[ParameterBlock]:
    """Wrap raw sizes into named blocks (``block-000``, ``block-001``, ...)."""
    return [
        ParameterBlock(f"{prefix}-{i:03d}", float(size)) for i, size in enumerate(sizes)
    ]


@dataclass
class ServerLoad:
    """What one parameter server ends up holding."""

    index: int
    #: (block name, assigned parameter count) -- a sliced block appears once
    #: per slice, on the servers holding its slices.
    pieces: List[Tuple[str, float]] = field(default_factory=list)
    #: Running total of the piece sizes, kept by :meth:`add`: the same
    #: left-to-right sum as ``sum(size for _, size in pieces)``.
    assigned_size: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.assigned_size = sum(size for _, size in self.pieces)

    @property
    def num_requests(self) -> int:
        """Per-step parameter-update requests served by this PS.

        Each piece is fetched/updated with one request per worker per step;
        the per-worker request count is what §5.3 counts, so it equals the
        number of pieces here.
        """
        return len(self.pieces)

    def add(self, block_name: str, size: float) -> None:
        if size <= 0:
            raise ConfigurationError("piece size must be positive")
        size = float(size)
        self.pieces.append((block_name, size))
        self.assigned_size += size


@dataclass
class Assignment:
    """A complete blocks→servers assignment plus §5.3's load metrics."""

    servers: List[ServerLoad]
    algorithm: str

    def __post_init__(self) -> None:
        if not self.servers:
            raise ConfigurationError("assignment needs at least one server")

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @property
    def total_size(self) -> float:
        return sum(s.assigned_size for s in self.servers)

    @property
    def total_requests(self) -> int:
        """Total per-worker parameter-update requests per step (§5.3 (b))."""
        return sum(s.num_requests for s in self.servers)

    @property
    def size_difference(self) -> float:
        """Max difference of parameter sizes between two servers (§5.3 (a))."""
        sizes = [s.assigned_size for s in self.servers]
        return max(sizes) - min(sizes)

    @property
    def request_difference(self) -> int:
        """Max difference of request counts between two servers (§5.3 (c))."""
        counts = [s.num_requests for s in self.servers]
        return max(counts) - min(counts)

    @property
    def max_share(self) -> float:
        """``rho_max``: the busiest server's fraction of all parameters."""
        total = self.total_size
        if total <= 0:
            return 0.0
        return max(s.assigned_size for s in self.servers) / total

    @property
    def imbalance_factor(self) -> float:
        """``rho_max * p`` >= 1; multiplies the per-PS shard in Eqn 2.

        A perfectly balanced assignment has factor 1.0; the factor directly
        scales the busiest server's transfer and update time, which is what
        slows the whole synchronous step down (Fig. 20).
        """
        return self.max_share * self.num_servers

    def summary(self) -> Dict[str, float]:
        """The Table-3 row for this assignment."""
        return {
            "size_difference": self.size_difference,
            "request_difference": float(self.request_difference),
            "total_requests": float(self.total_requests),
            "imbalance_factor": self.imbalance_factor,
        }
