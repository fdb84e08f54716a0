"""Ground-truth step-time and training-speed model (the paper's Eqn 2).

The duration of one training step on a worker, with ``p`` parameter servers
and ``w`` workers, is modelled exactly as in §3.2:

    T = m * T_forward + T_back                       (compute)
        + 2 * (S/p) / (B / w'_p)                     (push + pull transfer)
        + T_update * w'_p / p                        (parameter update)
        + delta * w + delta' * p                     (connection overhead)

where ``m`` is the per-worker mini-batch, ``S`` the model size, ``B`` the
per-container bandwidth and ``w'_p`` the number of workers concurrently
hitting one parameter server (= ``w`` for synchronous training, a fraction of
``w`` for asynchronous training).

Two refinements used by the evaluation:

* **Placement awareness** (§4.2, Theorem 1): when the per-server task layout
  is known, the symmetric transfer term is replaced by the maximum
  cross-server transfer time -- co-located worker/PS pairs exchange data for
  free, exactly like the Fig. 10 accounting.
* **Parameter-server imbalance** (§5.3): an ``imbalance`` factor
  ``rho_max * p >= 1`` scales the per-PS shard; a perfectly balanced
  partition (the PAA goal) has factor 1, MXNet's default partitioner yields
  larger factors and thus slower steps.

This is *ground truth*: the scheduler never calls it directly but fits the
parametric Eqn-3/Eqn-4 speed functions to noisy measurements of it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rand import SeedLike, spawn_rng
from repro.workloads.profiles import ModelProfile

MODE_SYNC = "sync"
MODE_ASYNC = "async"
MODES = (MODE_SYNC, MODE_ASYNC)

#: server -> (num_workers, num_ps) for one job.
PlacementLayout = Mapping[str, Tuple[int, int]]

#: Process-wide Eqn-2 speed tables, one per ``(profile, mode, bandwidth)``
#: and shared by every model built with that key (the ground truth is a
#: pure function of it). A table maps ``p`` to a row of speeds indexed by
#: ``w``; NaN marks a ``w`` not computed yet, and a row grows on demand.
_SPEED_TABLES: Dict[tuple, Dict[int, array]] = {}


def validate_mode(mode: str) -> str:
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class StepBreakdown:
    """The four Eqn-2 components of one step, in seconds."""

    compute: float
    transfer: float
    update: float
    overhead: float

    @property
    def total(self) -> float:
        return self.compute + self.transfer + self.update + self.overhead


class StepTimeModel:
    """Ground-truth step time / training speed for one job.

    Parameters
    ----------
    profile:
        The model being trained.
    mode:
        ``"sync"`` or ``"async"``.
    bandwidth:
        Per-container network bandwidth in bytes/second (the ``B`` of Eqn 2).
    """

    def __init__(
        self, profile: ModelProfile, mode: str, bandwidth: float = 125e6
    ):
        self.profile = profile
        self.mode = validate_mode(mode)
        if bandwidth <= 0:
            raise ConfigurationError("bandwidth must be positive")
        self.bandwidth = float(bandwidth)
        # Resolved once here so the hot path never hashes the profile.
        self._speed_table = _SPEED_TABLES.setdefault(
            (profile, self.mode, self.bandwidth), {}
        )

    # -- Eqn-2 ingredients ------------------------------------------------------
    def mini_batch(self, w: int) -> float:
        """Per-worker mini-batch size ``m``.

        Synchronous training keeps the *global* batch fixed no matter how
        many workers run (§3.2), so ``m = M / w``; asynchronous workers each
        use the configured per-worker batch.
        """
        self._validate_tasks(1, w)
        if self.mode == MODE_SYNC:
            return self.profile.global_batch / w
        return float(self.profile.per_worker_batch)

    def concurrent_pushers(self, w: int) -> float:
        """``w'_p``: workers concurrently communicating with one PS."""
        if self.mode == MODE_SYNC:
            return float(w)
        return max(1.0, self.profile.async_concurrency * w)

    def breakdown(
        self,
        p: int,
        w: int,
        placement: Optional[PlacementLayout] = None,
        imbalance: float = 1.0,
        bandwidths: Optional[Mapping[str, float]] = None,
    ) -> StepBreakdown:
        """All Eqn-2 components for a ``(p, w)`` configuration.

        ``bandwidths`` optionally maps server names to the per-task NIC
        share on that server (the server NIC divided among all tasks it
        hosts, across jobs) -- placement-aware runs use it to model the
        1 GbE contention of the paper's testbed.
        """
        self._validate_tasks(p, w)
        if imbalance < 1.0 - 1e-9:
            raise ConfigurationError("imbalance factor must be >= 1")
        prof = self.profile
        # Device under-utilisation floor: below min_batch_fraction of the
        # configured per-worker batch, per-step compute stops shrinking.
        batch_floor = prof.per_worker_batch * prof.min_batch_fraction
        effective_batch = max(self.mini_batch(w), batch_floor)
        compute = (
            effective_batch * prof.forward_time_per_example + prof.backward_time
        )
        shard = prof.model_size_bytes / p * imbalance
        pushers = self.concurrent_pushers(w)
        if placement is None:
            transfer = 2.0 * shard * pushers / self.bandwidth
        else:
            transfer = self._placement_transfer(p, w, placement, shard, bandwidths)
        update = prof.update_time * pushers * imbalance / p
        coordination = (
            prof.sync_coordination if self.mode == MODE_SYNC
            else prof.async_coordination
        )
        overhead = (
            prof.overhead_worker * w
            + prof.overhead_ps * p
            + coordination * (w - 1)
        )
        return StepBreakdown(compute, transfer, update, overhead)

    def _placement_transfer(
        self,
        p: int,
        w: int,
        placement: PlacementLayout,
        shard: float,
        bandwidths: Optional[Mapping[str, float]] = None,
    ) -> float:
        """Max cross-server transfer time given a task layout (Fig. 10)."""
        total_w = sum(nw for nw, _ in placement.values())
        total_p = sum(np_ for _, np_ in placement.values())
        if total_w != w or total_p != p:
            raise ConfigurationError(
                f"placement covers ({total_w} workers, {total_p} ps), "
                f"expected ({w}, {p})"
            )
        # Fraction of workers concurrently active (1 for sync).
        concurrency = self.concurrent_pushers(w) / w
        worst = 0.0
        per_ps_plain = self.profile.model_size_bytes / p
        for server, (nw, np_) in placement.items():
            bandwidth = self.bandwidth
            if bandwidths is not None:
                bandwidth = max(bandwidths.get(server, self.bandwidth), 1.0)
            if np_ > 0:
                # Each PS here serves (w - nw) remote workers through its NIC.
                ps_time = 2.0 * shard * (w - nw) * concurrency / bandwidth
                worst = max(worst, ps_time)
            if nw > 0:
                # Each worker here exchanges its shard with (p - np_) remote PS.
                worker_time = 2.0 * per_ps_plain * (p - np_) / bandwidth
                worst = max(worst, worker_time)
        return worst

    # -- public speed interface ---------------------------------------------------
    def step_time(
        self,
        p: int,
        w: int,
        placement: Optional[PlacementLayout] = None,
        imbalance: float = 1.0,
        bandwidths: Optional[Mapping[str, float]] = None,
    ) -> float:
        """Seconds per training step (one worker's step)."""
        return self.breakdown(p, w, placement, imbalance, bandwidths).total

    def speed(
        self,
        p: int,
        w: int,
        placement: Optional[PlacementLayout] = None,
        imbalance: float = 1.0,
        bandwidths: Optional[Mapping[str, float]] = None,
    ) -> float:
        """Training speed in steps/second (§3.2's definition).

        Asynchronous: total steps completed by all workers per second,
        ``w / T``. Synchronous: global steps per second, ``1 / T``.

        A plain call -- no ``placement``, ``imbalance == 1.0`` and no
        ``bandwidths`` -- is served from the process-wide table of this
        model's ``(profile, mode, bandwidth)``: row ``p``, slot ``w``. A
        miss computes the value through :meth:`breakdown` and stores it, so
        a hit returns exactly the float an uncached call would. Invalid
        ``(p, w)`` raise before anything is stored, and a ``w <= 0`` is
        never served from a row, so they raise on every call. Calls with
        any of the three extra arguments bypass the table. ``p`` and ``w``
        are scalars (an array raises ``TypeError``).
        """
        plain = placement is None and imbalance == 1.0 and bandwidths is None
        if plain:
            try:
                value = self._speed_table[p][w]
            except (KeyError, IndexError, TypeError):
                pass  # no row, past its end, or a non-integer index
            else:
                if value == value and w > 0:
                    return value
            # int() raises TypeError for an array before anything is computed.
            row_p, slot = int(p), int(w)
        t = self.step_time(p, w, placement, imbalance, bandwidths)
        value = w / t if self.mode == MODE_ASYNC else 1.0 / t
        if plain:
            row = self._speed_table.setdefault(row_p, array("d"))
            if slot >= len(row):
                row.extend([math.nan] * (slot + 1 - len(row)))
            row[slot] = value
        return value

    def measured_speed(
        self,
        p: int,
        w: int,
        seed: SeedLike = None,
        noise_std: float = 0.03,
        placement: Optional[PlacementLayout] = None,
        imbalance: float = 1.0,
    ) -> float:
        """A noisy speed measurement, as a short profiling run would produce."""
        rng = spawn_rng(seed, "speed-noise")
        true = self.speed(p, w, placement, imbalance)
        if noise_std <= 0:
            return true
        return true * max(0.05, 1.0 + rng.normal(0.0, noise_std))

    def examples_per_second(self, p: int, w: int) -> float:
        """Throughput in training examples per second."""
        if self.mode == MODE_SYNC:
            return self.speed(p, w) * self.profile.global_batch
        return self.speed(p, w) * self.profile.per_worker_batch

    @staticmethod
    def _validate_tasks(p: int, w: int) -> None:
        if p < 1 or w < 1:
            raise ConfigurationError(
                f"need at least 1 ps and 1 worker, got p={p}, w={w}"
            )
        if int(p) != p or int(w) != w:
            raise ConfigurationError("p and w must be integers")


def straggler_step_time(
    model: StepTimeModel, p: int, w: int, slowdown: float, imbalance: float = 1.0
) -> float:
    """Step time when one worker runs ``slowdown``-times slower (§5.2).

    Synchronous training waits for the slowest worker, so the straggler's
    extra compute time is added in full; asynchronous training only loses the
    straggler's own throughput (handled by the caller reducing aggregate
    speed).
    """
    if slowdown < 1.0:
        raise ConfigurationError("slowdown must be >= 1")
    base = model.breakdown(p, w, imbalance=imbalance)
    if model.mode == MODE_SYNC:
        return base.total + (slowdown - 1.0) * base.compute
    return base.total
