"""Multi-dimensional resource vectors.

Deep-learning tasks (workers and parameter servers) occupy several resource
types at once -- CPU cores, memory, possibly GPUs and network bandwidth. The
schedulers in this library reason about *dominant resources* in the DRF sense
(Ghodsi et al., NSDI '11), so the vector type below knows how to compute a
dominant share against a capacity vector.

The set of resource types is open-ended: a :class:`ResourceVector` is a
mapping from type name to a non-negative float amount, with missing types
treated as zero. Vectors are immutable; arithmetic returns new vectors.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError

#: Conventional resource-type names used by the built-in workloads.
CPU = "cpu"
MEMORY = "memory"
GPU = "gpu"
BANDWIDTH = "bandwidth"

_EPS = 1e-9


class ResourceVector(Mapping[str, float]):
    """An immutable non-negative vector over named resource types.

    Parameters
    ----------
    amounts:
        Mapping from resource-type name to amount. Zero entries are dropped
        so two vectors that differ only in explicit zeros compare equal.

    Examples
    --------
    >>> demand = ResourceVector({"cpu": 4, "memory": 8})
    >>> capacity = ResourceVector({"cpu": 16, "memory": 64})
    >>> (demand * 2).fits_within(capacity)
    True
    >>> demand.dominant_share(capacity)
    0.25
    """

    __slots__ = ("_amounts",)

    def __init__(self, amounts: Optional[Mapping[str, float]] = None):
        cleaned: Dict[str, float] = {}
        for name, value in (amounts or {}).items():
            value = float(value)
            if value < -_EPS:
                raise ConfigurationError(
                    f"resource {name!r} amount must be non-negative, got {value}"
                )
            if value > _EPS:
                cleaned[str(name)] = value
        self._amounts = cleaned

    # -- Mapping protocol ---------------------------------------------------
    def __getitem__(self, key: str) -> float:
        return self._amounts.get(key, 0.0)

    def get(self, key: str, default: float = 0.0) -> float:
        return self._amounts.get(key, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._amounts)

    def __len__(self) -> int:
        return len(self._amounts)

    def __contains__(self, key: object) -> bool:
        return key in self._amounts

    def items(self) -> Iterable[Tuple[str, float]]:
        return self._amounts.items()

    def values(self) -> Iterable[float]:
        return self._amounts.values()

    def types(self) -> Tuple[str, ...]:
        """Resource types with a strictly positive amount."""
        return tuple(self._amounts)

    @classmethod
    def _from_clean(cls, amounts: Dict[str, float]) -> "ResourceVector":
        # Arithmetic results are clean by construction (all values > _EPS),
        # so skip __init__'s per-entry validation -- these paths are hot in
        # large allocation/placement rounds.
        vec = object.__new__(cls)
        vec._amounts = amounts
        return vec

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        merged = dict(self._amounts)
        for name, value in other._amounts.items():
            merged[name] = merged.get(name, 0.0) + value
        return ResourceVector._from_clean(merged)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        merged = dict(self._amounts)
        for name, value in other._amounts.items():
            remaining = merged.get(name, 0.0) - value
            if remaining < -1e-6:
                raise ConfigurationError(
                    f"subtraction would make resource {name!r} negative "
                    f"({merged.get(name, 0.0)} - {value})"
                )
            if remaining > _EPS:
                merged[name] = remaining
            else:
                merged.pop(name, None)
        return ResourceVector._from_clean(merged)

    def __mul__(self, factor: float) -> "ResourceVector":
        factor = float(factor)
        if factor < 0:
            raise ConfigurationError("cannot scale a resource vector negatively")
        return ResourceVector._from_clean(
            {k: nv for k, v in self._amounts.items() if (nv := v * factor) > _EPS}
        )

    __rmul__ = __mul__

    # -- comparisons ----------------------------------------------------------
    def fits_within(self, capacity: "ResourceVector", slack: float = 1e-9) -> bool:
        """True when every component is <= the capacity's component."""
        cap = capacity._amounts
        return all(
            value <= cap.get(name, 0.0) + slack
            for name, value in self._amounts.items()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        names = set(self._amounts) | set(other._amounts)
        return all(abs(self.get(n) - other.get(n)) <= 1e-9 for n in names)

    def __hash__(self) -> int:
        # Consistent with __eq__'s 1e-9 tolerance: equal vectors always have
        # the same key set (stored amounts exceed 1e-9, missing ones count
        # as 0), whereas any rounding of the amounts can split two equal
        # vectors across a rounding boundary.
        return hash(frozenset(self._amounts))

    def is_zero(self) -> bool:
        return not self._amounts

    # -- DRF helpers ----------------------------------------------------------
    def shares(self, capacity: "ResourceVector") -> Dict[str, float]:
        """Per-type share of *capacity* consumed by this vector.

        Types absent from *capacity* but present here yield ``inf`` -- the
        request can never be satisfied.
        """
        result: Dict[str, float] = {}
        for name, value in self.items():
            cap = capacity.get(name)
            result[name] = value / cap if cap > _EPS else float("inf")
        return result

    def dominant_share(self, capacity: "ResourceVector") -> float:
        """The largest per-type share (DRF's dominant share); 0 if empty."""
        shares = self.shares(capacity)
        return max(shares.values()) if shares else 0.0

    def dominant_resource(self, capacity: "ResourceVector") -> Optional[str]:
        """The type achieving the dominant share; ``None`` for the zero vector."""
        shares = self.shares(capacity)
        if not shares:
            return None
        return max(shares, key=lambda name: (shares[name], name))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._amounts.items()))
        return f"ResourceVector({inner})"


#: The empty vector, useful as an additive identity.
ZERO = ResourceVector()


def cpu_mem(cpus: float, memory_gb: float) -> ResourceVector:
    """Convenience constructor for the common CPU+memory container shape."""
    return ResourceVector({CPU: cpus, MEMORY: memory_gb})
