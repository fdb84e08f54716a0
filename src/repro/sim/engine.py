"""The discrete-time cluster simulator (§6.1 "Simulator").

The paper evaluates Optimus both on a 13-server testbed and, for anything
larger or parameter-swept, on a discrete-time simulator driven by traces
(loss curves, speeds under different configurations, server capacities, job
configurations). This engine is that simulator:

* time advances in scheduling intervals (10 minutes by default);
* at each boundary, newly arrived jobs are admitted, every active job is
  snapshotted into a :class:`~repro.schedulers.base.JobView` (estimates come
  from the online models, never from ground truth) and the scheduler under
  test produces allocations + placements;
* jobs whose configuration changed pay the §5.4 checkpoint-based scaling
  cost, then progress at their ground-truth speed -- which accounts for the
  placement (Fig. 10 transfer accounting), the parameter-server imbalance of
  the configured partitioner (§5.3) and any injected stragglers (§5.2);
* completions are solved exactly inside the interval.

One event heap drives the run (:meth:`Simulation._run`). It holds only
arrivals and scheduling points, ordered by ``(time, rank, seq)``: at one
timestamp, arrivals (rank 0) are admitted before the scheduling point
(rank 1). Schedule events chain themselves from boundary to boundary only
while jobs are active, so an idle stretch of the timeline costs no work
however long it is; the next arrival restarts the chain.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.cluster import Cluster
from repro.common.errors import SimulationError
from repro.common.rand import RandomSource
from repro.core.allocation import TaskAllocation
from repro.datastore.hdfs import ChunkStore
from repro.obs.estimators import estimator_telemetry_for
from repro.obs.ledger import (
    LEDGER_MODES,
    NULL_LEDGER,
    DecisionLedger,
    use_ledger,
)
from repro.obs.registry import MetricsRegistry, active_registry, use_registry
from repro.obs.spans import phase_timings, span_tracer_for
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.tracer import (
    EVENT_CHECKPOINT_RECORDED,
    EVENT_INTERVAL_TICK,
    EVENT_JOB_ARRIVED,
    EVENT_JOB_COMPLETED,
    EVENT_JOB_RESCALED,
    EVENT_JOB_RESTARTED,
    EVENT_NODE_FAILED,
    EVENT_NODE_RECOVERED,
    EVENT_STRAGGLER_DETECTED,
    EVENT_TASK_CRASHED,
    NULL_TRACER,
    Tracer,
)
from repro.schedulers.base import Scheduler, record_decision
from repro.sim.metrics import JobRecord, SimulationResult, TimeSlot, hash_decision
from repro.sim.runtime import ESTIMATOR_MODES, RuntimeJob, ScalingCosts
from repro.sim.stragglers import (
    StragglerConfig,
    StragglerInjector,
    effective_interval_speed,
)
from repro.workloads.job import JobSpec

#: Pop order within one timestamp: admissions, then the scheduling point.
RANK_ARRIVAL = 0
RANK_SCHEDULE = 1

#: Multiplicative noise on measured interval speeds.
SPEED_NOISE_STD = 0.03
#: Bytes per training example, for sizing the HDFS files (§5.1).
EXAMPLE_BYTES = 3072
#: Loss observations fed to the online estimator per job per interval, at
#: most (a ceiling stride over the interval's steps).
LOSS_POINTS_PER_INTERVAL = 30


@dataclass(frozen=True)
class SimConfig:
    """All simulator knobs in one immutable bundle."""

    interval: float = 600.0
    max_time: float = 14 * 86400.0
    seed: int = 0
    #: "online" (fit §3 models from observations) or "oracle" (ground truth).
    estimator_mode: str = "online"
    #: Fig. 15's injected, progress-decaying errors on the oracle's remaining
    #: steps and speed; non-zero values need ``estimator_mode="oracle"``.
    convergence_error: float = 0.0
    speed_error: float = 0.0
    stragglers: StragglerConfig = field(default_factory=StragglerConfig)
    #: Parameter partitioner governing PS load balance: "paa" or "mxnet".
    partition_algorithm: str = "paa"
    #: Feed each job's placement into the ground-truth speed (Fig. 10).
    placement_aware: bool = True
    #: Charge §5.4 checkpoint costs on (re)configuration.
    scaling_costs: ScalingCosts = field(default_factory=ScalingCosts)
    #: Per-container network bandwidth (bytes/s) for the speed ground truth.
    bandwidth: float = 125e6
    #: Optional background-load profile (t -> reserved capacity fraction):
    #: the non-DL share of the cluster (§7 "Various workloads"). ``None``
    #: gives the DL scheduler the whole cluster.
    background_load: Optional[Callable[[float], float]] = None
    #: Stochastic fault rates (node crashes, task crashes, checkpoint loss);
    #: the all-zero default injects nothing and leaves results bit-identical
    #: to a fault-free build.
    faults: FaultConfig = field(default_factory=FaultConfig)
    #: Seconds of sim time between progress checkpoints; bounds the progress
    #: a crash can destroy. ``None`` checkpoints at every interval boundary.
    checkpoint_interval: Optional[float] = None
    #: Chaos knob for estimator telemetry: a ``t -> multiplier`` applied to
    #: every job's ground-truth speed (the hardware suddenly slowing down,
    #: a noisy neighbour appearing). The online estimators only see the
    #: perturbed observations, so their predictions go stale and the
    #: ``repro.obs.estimators`` drift detector should notice. ``None``
    #: leaves reality untouched.
    speed_perturbation: Optional[Callable[[float], float]] = None
    #: Decision-ledger fidelity (see :mod:`repro.obs.ledger`): "auto"
    #: resolves to "full" when a tracer is attached and "off" otherwise;
    #: "sampled" keeps only the top-K grants per round as events (plus the
    #: aggregate counters), which is the fleet-scale budget mode; "off"
    #: disables the ledger even with a tracer.
    ledger_mode: str = "auto"
    #: Grants kept per allocation round when ``ledger_mode="sampled"``.
    ledger_top_k: int = 8

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise SimulationError("interval must be positive")
        if self.max_time <= 0:
            raise SimulationError("max_time must be positive")
        if self.estimator_mode not in ESTIMATOR_MODES:
            raise SimulationError(
                f"estimator_mode must be one of {ESTIMATOR_MODES}"
            )
        if self.estimator_mode == "online" and (
            self.convergence_error or self.speed_error
        ):
            raise SimulationError(
                "convergence_error and speed_error need estimator_mode='oracle'"
            )
        if self.partition_algorithm not in ("paa", "mxnet"):
            raise SimulationError("partition_algorithm must be 'paa' or 'mxnet'")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise SimulationError("checkpoint_interval must be positive or None")
        if self.ledger_mode not in ("auto",) + LEDGER_MODES:
            raise SimulationError(
                f"ledger_mode must be one of {('auto',) + LEDGER_MODES}"
            )
        if self.ledger_top_k < 1:
            raise SimulationError("ledger_top_k must be >= 1")


class Simulation:
    """One simulation run: a cluster, a scheduler and a job trace."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Union[Scheduler, str],
        jobs: Sequence[JobSpec],
        config: Optional[SimConfig] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if isinstance(scheduler, str):
            # A preset name or an "alloc+place" hybrid.
            from repro.schedulers import make_scheduler

            scheduler = make_scheduler(scheduler)
        if not jobs:
            raise SimulationError("need at least one job")
        ids = [j.job_id for j in jobs]
        if len(set(ids)) != len(ids):
            raise SimulationError("job ids must be unique")
        self.cluster = cluster
        self.scheduler = scheduler
        self.config = config or SimConfig()
        self.specs = sorted(jobs, key=lambda j: (j.arrival_time, j.job_id))
        self._seed = RandomSource(self.config.seed)
        self._store = ChunkStore(data_nodes=list(cluster.server_names))
        self._injector = StragglerInjector(self.config.stragglers, self._seed)
        self._measure_rng = self._seed.child("interval-speed").rng
        # Fault injection (repro.faults): falsy when neither stochastic
        # faults nor a scripted plan are configured, so the default run
        # pays one bool check per interval and stays bit-identical.
        self._faults = FaultInjector(self.config.faults, self._seed, plan=fault_plan)
        self._prev_layouts: Dict[str, dict] = {}
        self._decision_digest = hashlib.sha256()

        # Observability (repro.obs). Both sinks default to off; with no
        # tracer and no registry the span tracer is the shared no-op, so
        # the hot loop reads no clock and pays only truthiness checks.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else active_registry()
        # Spans time every phase (repro.obs.spans): live whenever either
        # sink is attached; span events go out only with a tracer.
        self.spans = span_tracer_for(self.tracer, self.metrics)
        # Prediction-quality telemetry (repro.obs.estimators): on whenever
        # either sink is attached; the null object otherwise.
        self.estimators = estimator_telemetry_for(self.tracer, self.metrics)
        # Decision ledger (repro.obs.ledger): "auto" follows the tracer, so
        # untraced runs keep the null ledger and pay one bool check per
        # allocation round.
        mode = self.config.ledger_mode
        if mode == "auto":
            mode = "full" if self.tracer else "off"
        if mode == "off":
            self.ledger: DecisionLedger = NULL_LEDGER
        else:
            self.ledger = DecisionLedger(
                tracer=self.tracer,
                metrics=self.metrics,
                mode=mode,
                top_k=self.config.ledger_top_k,
            )
        self.scheduler.instrument(
            tracer=self.tracer,
            metrics=self.metrics,
            spans=self.spans,
        )

    # -- job lifecycle -----------------------------------------------------------
    def _admit(self, spec: JobSpec) -> RuntimeJob:
        cfg = self.config
        job = RuntimeJob(
            spec,
            seed=self._seed,
            bandwidth=cfg.bandwidth,
            partition_algorithm=cfg.partition_algorithm,
            estimator_mode=cfg.estimator_mode,
            convergence_error=cfg.convergence_error,
            speed_error=cfg.speed_error,
            scaling_costs=cfg.scaling_costs,
        )
        job.attach_data(self._store, example_bytes=EXAMPLE_BYTES)
        if cfg.estimator_mode == "online":
            job.bootstrap_speed()
        return job

    # -- background load (§7) -----------------------------------------------------
    def _reserve_background(self, work_cluster: Cluster, now: float) -> None:
        """Reserve the non-DL share of every server before scheduling."""
        profile = self.config.background_load
        if profile is None:
            return
        from repro.sim.background import clamp_fraction

        fraction = clamp_fraction(profile(now))
        if fraction <= 0:
            return
        for server in work_cluster:
            demand = server.capacity * fraction
            if not demand.is_zero():
                server.place(("__background__", "worker", 0), demand)

    # -- fault injection (repro.faults) ------------------------------------------
    def _process_faults(self, now: float, active: Dict[str, RuntimeJob]) -> None:
        """Inject this interval's node/task crashes and roll victims back.

        Runs at the interval start, *before* scheduling: a job killed here
        loses the progress since its last checkpoint, becomes not-running
        (so it pays the §5.4 restore cost when re-placed) and is then free
        to be re-allocated around the dead node in the same interval.
        """
        cfg = self.config
        tracer = self.tracer
        metrics = self.metrics
        faults = self._faults
        update = faults.begin_interval(now, cfg.interval, self.cluster.server_names)
        for name in update.recovered:
            if tracer:
                tracer.emit(EVENT_NODE_RECOVERED, now, server=name)
            metrics.counter("faults.node_recoveries").inc()
        newly_failed = set()
        for outage in update.failed:
            newly_failed.add(outage.server)
            if tracer:
                tracer.emit(
                    EVENT_NODE_FAILED,
                    now,
                    server=outage.server,
                    up_at=outage.up_at,
                )
            metrics.counter("faults.node_failures").inc()
        if newly_failed or update.recovered:
            # Let schedulers with cluster-shaped state (placement caches)
            # react to the changed server set before this interval's round.
            self.scheduler.notify_node_events(
                failed=sorted(newly_failed), recovered=list(update.recovered)
            )

        for job_id, job in active.items():
            if not job.was_running or job.completed:
                continue
            cause = None
            layout = self._prev_layouts.get(job_id)
            if layout and newly_failed.intersection(layout):
                cause = "node_failure"
            else:
                tasks = job.last_allocation.workers + job.last_allocation.ps
                crashed = faults.sample_task_crashes(
                    job_id, tasks, now, cfg.interval
                )
                if crashed > 0:
                    if tracer:
                        tracer.emit(
                            EVENT_TASK_CRASHED, now, job_id=job_id, tasks=crashed
                        )
                    metrics.counter("faults.task_crashes").inc(crashed)
                    cause = "task_crash"
            if cause is None:
                continue
            lost_ckpt = faults.checkpoint_lost(job_id)
            steps_lost, since = job.rollback_to_checkpoint(now, lost=lost_ckpt)
            if tracer:
                tracer.emit(
                    EVENT_JOB_RESTARTED,
                    now,
                    job_id=job_id,
                    cause=cause,
                    steps_lost=steps_lost,
                    since_checkpoint=since,
                    checkpoint_lost=lost_ckpt,
                )
            metrics.counter("faults.job_restarts").inc()
            metrics.counter("faults.steps_lost").inc(steps_lost)

    def _block_down_servers(self, work_cluster: Cluster) -> None:
        """Zero out the schedulable capacity of currently-dead servers."""
        for name in self._faults.down_servers:
            server = work_cluster.server(name)
            remaining = server.available
            if not remaining.is_zero():
                server.place(("__faulted__", "worker", 0), remaining)

    # -- NIC contention ---------------------------------------------------------
    def _nic_shares(self, layouts: Dict[str, dict]) -> Dict[str, float]:
        """Per-task NIC bandwidth on each server, given this interval's
        placements across *all* jobs.

        The testbed's 1 GbE NIC is shared by every container on a server,
        but only *cross-server* traffic uses it: a task's claim on the NIC
        is weighted by the fraction of its peers that live on other
        servers. Fully co-located jobs therefore do not contend at all --
        this is exactly why the §4.2 packing placement wins.
        """
        weights: Dict[str, float] = {}
        for layout in layouts.values():
            total_w = sum(nw for nw, _ in layout.values())
            total_p = sum(np_ for _, np_ in layout.values())
            if total_w < 1 or total_p < 1:
                continue
            for server, (nw, np_) in layout.items():
                remote_ps = (total_p - np_) / total_p
                remote_workers = (total_w - nw) / total_w
                weight = nw * remote_ps + np_ * remote_workers
                weights[server] = weights.get(server, 0.0) + weight
        shares: Dict[str, float] = {}
        for server_name, weight in weights.items():
            nic = self.cluster.server(server_name).network_bandwidth
            shares[server_name] = nic / max(weight, 1.0)
        return shares

    # -- one interval for one job ----------------------------------------------
    def _run_job_interval(
        self,
        job: RuntimeJob,
        allocation: Optional[TaskAllocation],
        layout,
        now: float,
        nic_shares: Optional[Dict[str, float]] = None,
    ) -> Optional[float]:
        """Progress one job through one interval.

        Returns the effective training speed the job actually achieved
        (after placement, imbalance, perturbation and stragglers), or
        ``None`` when it did not run -- the observation the estimator
        telemetry scores the interval's speed prediction against.
        """
        cfg = self.config
        if allocation is None or layout is None:
            job.note_interval(None, 0.0)
            return None
        w, p = allocation.workers, allocation.ps
        overhead = job.scaling_overhead(allocation)
        if job.started and allocation != job.last_allocation:
            with self.spans.span(
                "rescale", job_id=job.spec.job_id, overhead=overhead
            ):
                if self.tracer:
                    self.tracer.emit(
                        EVENT_JOB_RESCALED,
                        now,
                        job_id=job.spec.job_id,
                        old=[job.last_allocation.workers, job.last_allocation.ps],
                        new=[w, p],
                        overhead=overhead,
                    )
        if overhead > 0 and job.started:
            self.metrics.counter("engine.rescales").inc()
        run_time = max(cfg.interval - overhead, 0.0)
        job.note_interval(allocation, overhead)
        if run_time <= 0:
            return None

        imbalance = job.imbalance_factor(p)
        base_speed = job.truth.speed(
            p,
            w,
            placement=layout if cfg.placement_aware else None,
            imbalance=imbalance,
            bandwidths=nic_shares if cfg.placement_aware else None,
        )
        if cfg.speed_perturbation is not None:
            base_speed *= max(cfg.speed_perturbation(now), 0.0)
        episodes = self._injector.sample(w, cfg.interval)
        if episodes:
            if self.tracer:
                self.tracer.emit(
                    EVENT_STRAGGLER_DETECTED,
                    now,
                    job_id=job.spec.job_id,
                    episodes=len(episodes),
                    handled=cfg.stragglers.handling_enabled,
                )
            self.metrics.counter("engine.straggler_episodes").inc(len(episodes))
            plain = job.truth.speed(p, w, imbalance=imbalance)
            degraded = effective_interval_speed(
                job.truth, p, w, episodes, run_time, imbalance=imbalance
            )
            if plain > 0:
                base_speed *= degraded / plain
        if base_speed <= 0:
            return None

        steps_before = job.steps_done
        converged_after = job.advance(run_time, base_speed, workers=w)
        if converged_after is not None:
            job.completion_time = now + overhead + converged_after

        if cfg.estimator_mode == "online":
            job.record_losses(steps_before, job.steps_done, LOSS_POINTS_PER_INTERVAL)
            noise = 1.0 + self._measure_rng.normal(0.0, SPEED_NOISE_STD)
            job.record_speed(p, w, base_speed * max(noise, 0.05))
        return base_speed

    # -- metrics -----------------------------------------------------------------
    def _slot(
        self,
        now: float,
        running: Dict[str, RuntimeJob],
        decision_allocs: Dict[str, TaskAllocation],
    ) -> TimeSlot:
        tasks = 0
        alloc_cpu = alloc_worker = alloc_ps = 0.0
        busy_worker = busy_ps = 0.0
        for job_id, alloc in decision_allocs.items():
            job = running[job_id]
            w, p = alloc.workers, alloc.ps
            tasks += w + p
            w_cpu = job.spec.worker_demand.get("cpu") * w
            p_cpu = job.spec.ps_demand.get("cpu") * p
            alloc_worker += w_cpu
            alloc_ps += p_cpu
            breakdown = job.truth.breakdown(
                p, w, imbalance=job.imbalance_factor(p)
            )
            total = breakdown.total
            if total > 0:
                busy_worker += w_cpu * (breakdown.compute / total)
                busy_ps += p_cpu * (
                    (breakdown.transfer + breakdown.update) / total
                )
        alloc_cpu = alloc_worker + alloc_ps
        return TimeSlot(
            time=now,
            running_jobs=len(decision_allocs),
            running_tasks=tasks,
            allocated_cpu=alloc_cpu,
            busy_worker_cpu=busy_worker,
            busy_ps_cpu=busy_ps,
            allocated_worker_cpu=alloc_worker,
            allocated_ps_cpu=alloc_ps,
        )

    # -- the main loop --------------------------------------------------------------
    def run(self) -> SimulationResult:
        with use_registry(self.metrics), use_ledger(self.ledger):
            return self._run()

    def _run(self) -> SimulationResult:
        """Drive the run from the event heap (see the module docstring).

        A schedule event is pending exactly while jobs are active, so at
        most one is ever on the heap.
        """
        interval = self.config.interval
        max_time = self.config.max_time
        metrics = self.metrics
        specs = self.specs

        seq = itertools.count()
        # Specs are sorted by arrival, so the list is already a heap.
        heap: List[Tuple[float, int, int, object]] = [
            (math.ceil(spec.arrival_time / interval) * interval, RANK_ARRIVAL, next(seq), spec)
            for spec in specs
        ]
        active: Dict[str, RuntimeJob] = {}
        done: Dict[str, JobRecord] = {}
        timeline: List[TimeSlot] = []
        admitted = 0
        events_processed = 0
        heap_peak = len(heap)

        while heap:
            when, rank, _, payload = heapq.heappop(heap)
            if when > max_time:
                break
            events_processed += 1

            if rank == RANK_ARRIVAL:
                if not active:
                    # Idle cluster: this arrival restarts the schedule chain.
                    heapq.heappush(heap, (when, RANK_SCHEDULE, next(seq), None))
                active[payload.job_id] = self._admit(payload)
                admitted += 1
                if self.tracer:
                    self.tracer.emit(
                        EVENT_JOB_ARRIVED,
                        when,
                        job_id=payload.job_id,
                        model=payload.model_name,
                        mode=payload.mode,
                        arrival_time=payload.arrival_time,
                    )
                metrics.counter("engine.jobs_admitted").inc()
                metrics.counter("sim.events_arrival").inc()

            else:
                metrics.counter("sim.events_schedule").inc()
                self._process_interval(when, active, done, timeline, len(specs) - admitted)
                if active:
                    heapq.heappush(heap, (when + interval, RANK_SCHEDULE, next(seq), None))

            if len(heap) > heap_peak:
                heap_peak = len(heap)

        metrics.counter("sim.events_processed").inc(float(events_processed))
        metrics.gauge("sim.event_heap_peak").set(float(heap_peak))
        return self._finalize(active, done, specs[admitted:], timeline)

    def _process_interval(
        self,
        now: float,
        active: Dict[str, RuntimeJob],
        done: Dict[str, JobRecord],
        timeline: List[TimeSlot],
        pending_count: int,
    ) -> None:
        """Run one scheduling interval starting at *now*."""
        cfg = self.config
        tracer = self.tracer
        metrics = self.metrics

        if self._faults:
            self._process_faults(now, active)

        spans = self.spans
        estimators = self.estimators
        spans.set_time(now)
        self.ledger.set_time(now)
        with spans.span("interval", active_jobs=len(active)):
            with spans.span("fit"):
                views = [job.view() for job in active.values()]
            with spans.span("snapshot"):
                work_cluster = self.cluster.snapshot()
                self._reserve_background(work_cluster, now)
                if self._faults:
                    self._block_down_servers(work_cluster)
            # The scheduler opens its "allocate" and "place" child spans
            # on the shared span tracer (see CompositeScheduler).
            with spans.span("schedule"):
                decision = self.scheduler.schedule(work_cluster, views)
            hash_decision(self._decision_digest, now, decision.allocations, decision.layouts)
            # What the online models promised for this interval, to be
            # scored against what the jobs actually achieve.
            steps_done = {job_id: job.steps_done for job_id, job in active.items()}
            record_decision(decision, views, now, tracer, estimators, steps_done)

            with spans.span("progress"):
                nic_shares = self._nic_shares(decision.layouts)
                for job_id, job in active.items():
                    allocation = decision.allocations.get(job_id)
                    layout = decision.layouts.get(job_id)
                    achieved = self._run_job_interval(
                        job, allocation, layout, now, nic_shares
                    )
                    if achieved is not None and achieved > 0:
                        estimators.resolve_speed(job_id, achieved, now)

            if self._faults:
                # Snapshot surviving jobs' progress at the interval end;
                # ``checkpoint_interval`` throttles how often, bounding the
                # progress a later crash can destroy.
                boundary = now + cfg.interval
                for job_id, job in active.items():
                    if job.completed or not job.was_running:
                        continue
                    if job.checkpoint_due(boundary, cfg.checkpoint_interval):
                        job.record_checkpoint(boundary)
                        self._faults.note_checkpoint(job_id)
                        if tracer:
                            tracer.emit(
                                EVENT_CHECKPOINT_RECORDED,
                                boundary,
                                job_id=job_id,
                                steps=job.steps_done,
                            )
                self._prev_layouts = {
                    job_id: dict(layout)
                    for job_id, layout in decision.layouts.items()
                }

            timeline.append(
                self._slot(now, active, dict(decision.allocations))
            )

            finished = [j for j, job in active.items() if job.completed]
            if finished:
                self.scheduler.notify_jobs_finished(finished)
            for job_id in finished:
                # The job is reduced to its record here, so memory follows
                # the active jobs rather than every job ever admitted.
                job = active.pop(job_id)
                done[job_id] = _job_record(job)
                job.detach_data(self._store)
                if estimators:
                    # Fig.-6 replay: score every total-steps prediction
                    # made over the job's life against the true total.
                    estimators.resolve_totals(job_id, job.steps_done, now)
                    estimators.discard_job(job_id)
                if tracer:
                    tracer.emit(
                        EVENT_JOB_COMPLETED,
                        now,
                        job_id=job_id,
                        completion_time=job.completion_time,
                        steps=job.steps_done,
                        num_scalings=job.num_scalings,
                    )
                metrics.counter("engine.jobs_completed").inc()
            metrics.counter("engine.intervals").inc()
            metrics.gauge("engine.active_jobs").set(float(len(active)))
            if tracer:
                tracer.emit(
                    EVENT_INTERVAL_TICK,
                    now,
                    running_jobs=len(decision.scheduled_jobs),
                    active_jobs=len(active),
                    pending_jobs=pending_count,
                )

    def _finalize(
        self,
        active: Dict[str, RuntimeJob],
        done: Dict[str, JobRecord],
        never_admitted: Sequence[JobSpec],
        timeline: List[TimeSlot],
    ) -> SimulationResult:
        cfg = self.config
        # Unfinished jobs (hit max_time) are included as such.
        records = dict(done)
        for job_id, job in active.items():
            records[job_id] = _job_record(job)
        # Jobs never admitted (arrival beyond max_time) count as unfinished.
        for spec in never_admitted:
            records[spec.job_id] = JobRecord(
                job_id=spec.job_id,
                model=spec.profile.name,
                mode=spec.mode,
                arrival_time=spec.arrival_time,
                completion_time=None,
                total_steps=0.0,
                scaling_time=0.0,
                num_scalings=0,
                chunks_moved=0,
            )
        return SimulationResult(
            scheduler_name=self.scheduler.name,
            jobs=records,
            timeline=timeline,
            interval=cfg.interval,
            seed=cfg.seed,
            decision_digest=self._decision_digest.hexdigest(),
            phase_timings=phase_timings(self.spans.metrics) or None,
        )


def _job_record(job: RuntimeJob) -> JobRecord:
    """The outcome of one admitted job: all the result keeps of it."""
    return JobRecord(
        job_id=job.spec.job_id,
        model=job.spec.model_name,
        mode=job.spec.mode,
        arrival_time=job.spec.arrival_time,
        completion_time=job.completion_time,
        total_steps=job.steps_done,
        scaling_time=job.scaling_time_total,
        num_scalings=job.num_scalings,
        chunks_moved=job.chunks_moved,
        num_restarts=job.num_restarts,
        steps_lost=job.steps_lost_total,
    )


def simulate(
    cluster: Cluster,
    scheduler: Union[Scheduler, str],
    jobs: Sequence[JobSpec],
    config: Optional[SimConfig] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> SimulationResult:
    """Convenience one-shot wrapper around :class:`Simulation`.

    ``tracer`` and ``metrics`` attach the :mod:`repro.obs` sinks; both
    default to off (the null tracer / the currently installed registry).
    ``fault_plan`` scripts deterministic faults on top of
    ``config.faults`` (see :mod:`repro.faults`).
    """
    return Simulation(
        cluster,
        scheduler,
        jobs,
        config,
        tracer=tracer,
        metrics=metrics,
        fault_plan=fault_plan,
    ).run()
