"""Per-job runtime state inside the simulator.

A :class:`RuntimeJob` owns everything one training job accumulates while it
lives in the cluster: ground-truth dynamics (step-time model, loss curve),
the online estimators Optimus maintains for it (§3), its progress counter,
its HDFS chunk assignment (§5.1) and its scaling history (§5.4).

The estimators only ever see *observations* (noisy losses, noisy measured
speeds); the ground truth stays on the simulator's side of the fence.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.common.errors import FittingError, SimulationError
from repro.common.rand import RandomSource
from repro.core.allocation import TaskAllocation
from repro.core.convergence import ConvergenceEstimator
from repro.core.speed import SpeedEstimator
from repro.datastore.hdfs import ChunkAssignment, ChunkStore
from repro.obs.ledger import active_ledger
from repro.obs.registry import active_registry
from repro.ps.blocks import blocks_from_sizes
from repro.ps.partition import mxnet_partition, paa_partition
from repro.schedulers.base import JobView
from repro.workloads.job import JobSpec
from repro.workloads.loss import LossEmitter
from repro.workloads.profiles import ModelProfile
from repro.workloads.speed import MODE_SYNC, StepTimeModel

#: Fallback prior for jobs too young to fit a convergence curve: assume this
#: many epochs remain (the §4.1 priority factor compensates for its bias).
PRIOR_EPOCHS = 30.0

#: Process-wide PAA imbalance factors, ``profile -> {num_ps: factor}``: PAA
#: is deterministic per model type, so every job of one profile shares them.
_PAA_IMBALANCE: Dict[ModelProfile, Dict[int, float]] = {}

ESTIMATOR_MODES = ("online", "oracle")


@dataclass
class ScalingCosts:
    """Checkpoint-based elastic-scaling cost model (§5.4)."""

    checkpoint_bandwidth: float = 100e6  # HDFS write/read over 1 GbE
    restart_time: float = 10.0  # pod teardown + relaunch + framework boot

    def start_cost(self) -> float:
        """Cost of (re)starting a job that was not running."""
        return self.restart_time

    def scale_cost(self, model_size_bytes: float) -> float:
        """Cost of changing (p, w): checkpoint save + restart + restore."""
        transfer = 2.0 * model_size_bytes / self.checkpoint_bandwidth
        return transfer + self.restart_time


class RuntimeJob:
    """Mutable state of one job inside a running simulation."""

    def __init__(
        self,
        spec: JobSpec,
        seed: RandomSource,
        bandwidth: float = 125e6,
        partition_algorithm: str = "paa",
        estimator_mode: str = "online",
        convergence_error: float = 0.0,
        speed_error: float = 0.0,
        scaling_costs: Optional[ScalingCosts] = None,
    ):
        if estimator_mode not in ESTIMATOR_MODES:
            raise SimulationError(
                f"estimator_mode must be one of {ESTIMATOR_MODES}"
            )
        if estimator_mode == "online" and (convergence_error or speed_error):
            raise SimulationError(
                "convergence_error and speed_error perturb the oracle; "
                "online estimates carry their own error"
            )
        self.spec = spec
        self.estimator_mode = estimator_mode
        self.partition_algorithm = partition_algorithm
        self.scaling_costs = scaling_costs or ScalingCosts()
        self._seed = seed.child(f"job-{spec.job_id}")

        # Ground truth.
        self.truth = StepTimeModel(spec.profile, spec.mode, bandwidth=bandwidth)
        self.steps_per_epoch = spec.steps_per_epoch()
        self.true_total_steps = spec.total_steps_to_converge()
        self.emitter = LossEmitter(
            spec.profile.loss, self.steps_per_epoch, seed=self._seed.child("loss")
        )

        # Online estimators (§3). An oracle job has none.
        if estimator_mode == "online":
            self.convergence = ConvergenceEstimator(
                threshold=spec.threshold,
                steps_per_epoch=self.steps_per_epoch,
                patience=spec.patience,
            )
            self.speed_estimator = SpeedEstimator(
                mode=spec.mode,
                global_batch=spec.profile.global_batch,
            )

        # The oracle's synthetic errors (Fig. 15): fixed sign per job,
        # magnitude decaying with progress. Streams are built at their first
        # draw, so a job carries only the generators its estimator mode reads.
        self._conv_error = self._speed_error = 0.0
        if convergence_error or speed_error:
            rng = self._seed.child("errors").rng
            self._conv_error = convergence_error * (1 if rng.random() < 0.5 else -1)
            self._speed_error = speed_error * (1 if rng.random() < 0.5 else -1)

        # Progress / lifecycle. ``steps_done`` counts raw training steps
        # (what the speed function predicts); ``effective_steps`` counts
        # convergence-equivalent steps -- asynchronous training with many
        # workers suffers parameter staleness and needs extra raw steps for
        # the same loss progress (§5.2).
        self.steps_done = 0.0
        self.effective_steps = 0.0
        self._last_mapping = (0.0, 0.0, 1.0)  # (raw_start, eff_start, penalty)
        self.completed = False
        self.completion_time: Optional[float] = None
        self.started = False
        self.last_allocation = TaskAllocation(0, 0)
        self.was_running = False
        self.scaling_time_total = 0.0
        self.num_scalings = 0

        # Fault recovery (checkpoint-bounded restart). The "checkpoint" is
        # the progress snapshot a crash rolls back to; refreshed by the
        # engine every ``checkpoint_interval`` seconds of sim time.
        self.checkpoint_steps = 0.0
        self.checkpoint_effective = 0.0
        self.last_checkpoint_time = float(spec.arrival_time)
        self._prev_checkpoint = (0.0, 0.0, float(spec.arrival_time))
        self.num_restarts = 0
        self.steps_lost_total = 0.0

        # Observed convergence (§2.1): the running system stops the job when
        # the *observed* per-epoch loss decrease stays below the owner
        # threshold for `patience` epochs, or at a safety valve far beyond the
        # profile's target. Epoch losses are epoch averages, so their noise is
        # much smaller than single observations'. The rule never reads the
        # allocation, so the stopping epoch is fixed here, at admission.
        target = spec.profile.target_epochs
        max_steps = max(3.0 * target, target + 50) * self.steps_per_epoch
        epoch_noise_std = self.emitter.noise_std / math.sqrt(25.0)
        rng = self._seed.child("epoch-loss").rng
        previous = loss_max = 0.0
        streak = epoch = 0
        while True:
            epoch += 1
            value = self.emitter.true_loss(epoch * self.steps_per_epoch)
            value *= max(1e-3, 1.0 + rng.normal(0.0, epoch_noise_std))
            loss_max = max(loss_max, value)
            if epoch >= 2 and loss_max > 0:
                below = (previous - value) / loss_max < spec.threshold
                streak = streak + 1 if below else 0
            previous = value
            if streak >= spec.patience or epoch * self.steps_per_epoch >= max_steps:
                break
        self.stop_epoch = epoch

        # Data serving (§5.1).
        self.chunk_assignment: Optional[ChunkAssignment] = None
        self.chunks_moved = 0

        # num_ps -> imbalance factor. PAA is deterministic per model type,
        # so its factors live in one process-wide table per profile; MXNet's
        # partition is seeded per job, so it keeps a per-job cache.
        self._imbalance_cache: Dict[int, float] = (
            _PAA_IMBALANCE.setdefault(spec.profile, {})
            if partition_algorithm == "paa"
            else {}
        )

    # -- data serving --------------------------------------------------------
    def attach_data(self, store: ChunkStore, example_bytes: int = 3072) -> None:
        """Register the job's training data in the chunk store."""
        size = max(
            int(self.spec.profile.dataset_examples * self.spec.dataset_scale)
            * example_bytes,
            1,
        )
        name = f"data/{self.spec.job_id}"
        if name not in store:
            store.add_file(name, size)
        self.chunk_assignment = ChunkAssignment(store.file(name), 1)

    def detach_data(self, store: ChunkStore) -> None:
        """Drop the finished job's training data from the chunk store."""
        if self.chunk_assignment is not None:
            store.remove_file(self.chunk_assignment.data_file.name)
            self.chunk_assignment = None

    def rebalance_data(self, num_workers: int) -> int:
        if self.chunk_assignment is None:
            return 0
        moved = self.chunk_assignment.rebalance(num_workers)
        self.chunks_moved += moved
        return moved

    # -- PS load balance (§5.3) -------------------------------------------------
    def imbalance_factor(self, num_ps: int) -> float:
        """``rho_max * p`` of the job's parameter partition over *num_ps*."""
        if num_ps < 1:
            raise SimulationError("num_ps must be >= 1")
        if num_ps not in self._imbalance_cache:
            blocks = blocks_from_sizes(self.spec.profile.parameter_blocks())
            if self.partition_algorithm == "paa":
                assignment = paa_partition(blocks, num_ps)
            else:
                assignment = mxnet_partition(
                    blocks, num_ps, seed=self._seed.child(f"mxnet-{num_ps}")
                )
            self._imbalance_cache[num_ps] = assignment.imbalance_factor
        return self._imbalance_cache[num_ps]

    # -- profiling / observation feeds -------------------------------------------
    def bootstrap_speed(self) -> None:
        """The §3.2 pre-run: profile a few (p, w) configurations."""
        rng = self._seed.child("speed-measure").rng
        self.speed_estimator.bootstrap(
            measure=lambda p, w: self.truth.measured_speed(p, w, seed=rng),
            seed=self._seed.child("bootstrap"),
        )

    def record_losses(self, start_step: float, end_step: float, max_points: int) -> None:
        """Feed the convergence estimator losses from the progressed range.

        Losses are *observed* at the job's convergence-equivalent position
        (stale asynchronous steps make less progress, §5.2) but stamped with
        raw step numbers -- which is exactly what a real worker reports.
        The interval's points are drawn, and handed to the estimator, as
        one array.
        """
        start, end = int(start_step), int(end_step)
        if end <= start or max_points < 1:
            return
        raw_start, eff_start, penalty = self._last_mapping
        # A ceiling stride: at most max_points points, evenly spaced.
        stride = -(-(end - start) // max_points)
        steps = np.arange(start, end, stride)
        eff = eff_start + np.maximum(steps - raw_start, 0) / penalty
        losses = self.emitter.observe_many(eff.astype(np.int64))
        self.convergence.add_observations(steps, losses)

    def record_speed(self, p: int, w: int, observed_speed: float) -> None:
        if observed_speed > 0:
            self.speed_estimator.add_sample(p, w, observed_speed)

    # -- progress and observed convergence (§2.1) -------------------------------
    def staleness_penalty(self, workers: int) -> float:
        """Raw steps needed per unit of convergence progress (>= 1).

        Asynchronous training with many workers updates against stale
        parameters, so it needs extra steps to converge (§5.2); synchronous
        training is unaffected.
        """
        if self.spec.mode == MODE_SYNC or workers <= 1:
            return 1.0
        return 1.0 + self.spec.profile.staleness_factor * (workers - 1)

    def advance(
        self, run_time: float, speed: float, workers: int = 1
    ) -> Optional[float]:
        """Advance training by ``speed * run_time`` raw steps.

        The job completes when its convergence-equivalent progress reaches
        the boundary of :attr:`stop_epoch`. Returns the number of seconds
        into the window at which the job converged, or ``None`` if it is
        still running. A checkpoint rollback re-crosses epochs but never
        moves the stop.
        """
        if self.completed:
            return 0.0
        if run_time <= 0 or speed <= 0:
            return None
        penalty = self.staleness_penalty(workers)
        eff_speed = speed / penalty
        raw_start = self.steps_done
        eff_start = self.effective_steps
        self._last_mapping = (raw_start, eff_start, penalty)
        eff_target = eff_start + eff_speed * run_time
        boundary = self.stop_epoch * self.steps_per_epoch
        if boundary <= eff_target:
            self.effective_steps = boundary
            self.steps_done = raw_start + (boundary - eff_start) * penalty
            self.completed = True
            return (boundary - eff_start) / eff_speed
        self.effective_steps = eff_target
        self.steps_done = raw_start + speed * run_time
        return None

    # -- estimates served to the scheduler -------------------------------------
    def _record_fallback(self, stage: str, exc: FittingError) -> None:
        """Count a §3 fit that failed and log it as a ledger denial."""
        active_registry().counter(f"est.fallback.{stage}").inc()
        active_ledger().record_denial(
            self.spec.job_id, "estimator_fallback", stage=stage, error=str(exc)
        )

    def _online_remaining(self) -> float:
        # A still-running job needs at least `patience` more epochs before
        # the §2.1 stopping rule can possibly fire, no matter what the fit
        # says -- without this floor a fit that (wrongly) predicts "already
        # converged" would zero the job's marginal gain and starve it.
        floor = self.spec.patience * self.steps_per_epoch
        if self.convergence.can_fit:
            try:
                return max(
                    self.convergence.remaining_steps(self.steps_done), floor
                )
            except FittingError as exc:
                self._record_fallback("loss_fit", exc)
        prior_total = PRIOR_EPOCHS * self.steps_per_epoch
        return max(prior_total - self.steps_done, floor)

    def _progress_fraction(self) -> float:
        if self.true_total_steps <= 0:
            return 1.0
        return min(self.effective_steps / self.true_total_steps, 1.0)

    def estimated_remaining_steps(self) -> float:
        if self.estimator_mode == "online":
            return self._online_remaining()
        floor = 0.0 if self.completed else self.spec.patience * self.steps_per_epoch
        remaining = max(self.true_total_steps - self.effective_steps, 0.0)
        if self._conv_error:
            remaining *= 1.0 + self._conv_error * (1.0 - self._progress_fraction())
        return max(remaining, floor)

    def speed_function(self) -> Callable[[int, int], float]:
        if self.estimator_mode == "online":
            if self.speed_estimator.can_fit:
                try:
                    return self.speed_estimator.speed_function()
                except FittingError as exc:
                    self._record_fallback("speed_fit", exc)
            return self.truth.speed  # pre-bootstrap corner
        if not self._speed_error:
            return self.truth.speed
        # A speed-estimation error of magnitude e perturbs every
        # configuration's predicted speed independently (a mis-fitted
        # surface), not by one global factor -- a global factor would
        # preserve the marginal-gain ordering and be invisible to the
        # allocator. The perturbation decays with progress (§6.3).
        magnitude = abs(self._speed_error) * (1.0 - self._progress_fraction())
        job_key = self.spec.job_id

        def noisy_speed(p: int, w: int) -> float:
            digest = zlib.crc32(f"{job_key}:{p}:{w}".encode("utf8"))
            direction = (digest % 20001) / 10000.0 - 1.0  # in [-1, 1]
            return self.truth.speed(p, w) * max(1.0 + magnitude * direction, 0.05)

        return noisy_speed

    def loss_efficiency(self) -> float:
        """The loss-curve statistical-efficiency term (goodput policies).

        Online mode asks the fitted convergence curve how much the next
        step is worth relative to the phase start; the oracle models
        convergence-*time* errors only, so it reports a neutral 1.0.
        """
        if self.estimator_mode != "online":
            return 1.0
        return self.convergence.marginal_efficiency(self.steps_done)

    def view(self) -> JobView:
        """The scheduler-facing snapshot for this interval."""
        return JobView(
            spec=self.spec,
            remaining_steps=self.estimated_remaining_steps(),
            speed=self.speed_function(),
            observation_count=self.convergence.observation_count
            if self.estimator_mode == "online"
            else 0,
            progress=self._progress_fraction(),
            current_allocation=self.last_allocation if self.was_running
            else TaskAllocation(0, 0),
            rescale_cost=self.scaling_costs.scale_cost(
                self.spec.profile.model_size_bytes
            ),
            loss_efficiency=self.loss_efficiency(),
        )

    # -- fault recovery (checkpoint-bounded restart) -------------------------
    def checkpoint_due(self, now: float, interval: Optional[float]) -> bool:
        """Should the engine snapshot this job's progress at time *now*?

        ``interval=None`` (or ``<= 0``) means "checkpoint at every interval
        boundary" -- the tightest bound on progress lost.
        """
        if interval is None or interval <= 0:
            return True
        return now - self.last_checkpoint_time >= interval

    def record_checkpoint(self, now: float) -> None:
        """Snapshot current progress as the crash-recovery point."""
        self._prev_checkpoint = (
            self.checkpoint_steps,
            self.checkpoint_effective,
            self.last_checkpoint_time,
        )
        self.checkpoint_steps = self.steps_done
        self.checkpoint_effective = self.effective_steps
        self.last_checkpoint_time = float(now)

    def rollback_to_checkpoint(self, now: float, lost: bool = False):
        """Crash recovery: drop progress back to the last checkpoint.

        With ``lost=True`` the latest checkpoint is corrupted and the job
        falls back to the previous one (possibly zero progress). The job
        keeps its estimator state -- the owner's training framework lost
        steps, not the scheduler's telemetry. Returns ``(steps_lost,
        seconds_since_checkpoint)``.
        """
        if lost:
            (
                self.checkpoint_steps,
                self.checkpoint_effective,
                self.last_checkpoint_time,
            ) = self._prev_checkpoint
        steps_lost = max(self.steps_done - self.checkpoint_steps, 0.0)
        since = max(float(now) - self.last_checkpoint_time, 0.0)
        self.steps_done = self.checkpoint_steps
        self.effective_steps = self.checkpoint_effective
        # Not running any more: the next allocation pays the §5.4 restore
        # cost through :meth:`scaling_overhead`.
        self.was_running = False
        self.num_restarts += 1
        self.steps_lost_total += steps_lost
        return steps_lost, since

    # -- scaling cost --------------------------------------------------------
    def scaling_overhead(self, new_allocation: TaskAllocation) -> float:
        """Seconds lost at the interval start for this (re)configuration."""
        if not self.started:
            return self.scaling_costs.start_cost()
        if not self.was_running:
            # Resuming from a pause restores the checkpoint.
            return self.scaling_costs.scale_cost(self.spec.profile.model_size_bytes)
        if new_allocation != self.last_allocation:
            return self.scaling_costs.scale_cost(self.spec.profile.model_size_bytes)
        return 0.0

    def note_interval(
        self, allocation: Optional[TaskAllocation], overhead: float
    ) -> None:
        """Update lifecycle bookkeeping after an interval's decision."""
        if allocation is None:
            self.was_running = False
            return
        if overhead > 0:
            if self.started:
                self.num_scalings += 1
            self.scaling_time_total += overhead
        self.started = True
        self.was_running = True
        if allocation != self.last_allocation:
            self.rebalance_data(allocation.workers)
        self.last_allocation = allocation
