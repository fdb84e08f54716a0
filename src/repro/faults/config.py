"""Knobs for the fault-injection subsystem.

:class:`FaultConfig` is the single immutable description of "how hostile
is this cluster": node mean-time-between-failures, per-task crash
probabilities and checkpoint loss. A default-constructed config injects
nothing at all -- the acceptance bar for this subsystem is that a run with
the default config is bit-identical to a run on a build that has no fault
code in it. KV-store flakiness is not a knob here: it is the
``error_rate`` of the :class:`repro.faults.FlakyKVStore` a caller builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.errors import FaultInjectionError


@dataclass(frozen=True)
class FaultConfig:
    """Stochastic fault rates for a simulation or deployment run.

    Parameters
    ----------
    node_mtbf:
        Mean time between failures for each server, in seconds. Failures
        are drawn per interval from the exponential survival model
        ``P(fail in dt) = 1 - exp(-dt / mtbf)``. ``0`` disables node
        crashes.
    node_downtime:
        ``(low, high)`` bounds (seconds) for the uniform draw of how long
        a crashed node stays down before its capacity returns.
    task_crash_rate:
        Per-task, per-interval probability that an individual worker/PS
        task dies independently of its node. ``0`` disables task crashes.
    checkpoint_loss_rate:
        Probability that, when a job must restart, its latest checkpoint
        turns out lost/corrupted and the job falls back to the previous
        one (or to zero progress when none remains).
    max_node_failures:
        Optional cap on the total number of node crashes injected over a
        run; ``None`` means unbounded.
    """

    node_mtbf: float = 0.0
    node_downtime: Tuple[float, float] = (600.0, 1800.0)
    task_crash_rate: float = 0.0
    checkpoint_loss_rate: float = 0.0
    max_node_failures: Optional[int] = None

    def __post_init__(self) -> None:
        if self.node_mtbf < 0:
            raise FaultInjectionError("node_mtbf must be non-negative")
        lo, hi = self.node_downtime
        if lo < 0 or hi < lo:
            raise FaultInjectionError(
                "node_downtime must be (low, high) with 0 <= low <= high"
            )
        for name in ("task_crash_rate", "checkpoint_loss_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultInjectionError(f"{name} must be in [0, 1]")
        if self.max_node_failures is not None and self.max_node_failures < 0:
            raise FaultInjectionError("max_node_failures must be non-negative")

    @property
    def engine_enabled(self) -> bool:
        """True when the sim engine has stochastic faults to inject."""
        return (
            self.node_mtbf > 0
            or self.task_crash_rate > 0
            or self.checkpoint_loss_rate > 0
        )

    def failure_probability(self, interval: float) -> float:
        """P(a live node fails within *interval* seconds)."""
        if self.node_mtbf <= 0 or interval <= 0:
            return 0.0
        return 1.0 - math.exp(-interval / self.node_mtbf)
