"""The deployment control loop (§5.5).

In the paper, Optimus runs as a pod that *polls the Kubernetes master for
cluster information and job states*, makes a decision each scheduling
interval and applies it through pod operations. :class:`ControlLoop` is
that cycle over the in-process substrate:

1. snapshot the cluster from the API server's node/pod state (capacity
   minus any pods the loop does not manage -- other tenants' workloads;
   the pods of jobs that just left the views count as free, since this
   step's reconcile tears them down);
2. run the configured scheduler on the caller-provided job views and
   record the decision through
   :func:`~repro.schedulers.base.record_decision`, as the simulator does;
3. reconcile the decision through the
   :class:`~repro.k8s.controller.JobController` (checkpoint-based scaling).

The loop is deliberately passive about *training state*: callers supply the
:class:`~repro.schedulers.base.JobView` list and per-job progress, which in
a real deployment come from the framework's metrics stream (and in this
repository from :mod:`repro.sim`).

Crash consistency (§5.5): the loop's own state -- which jobs it manages --
is persisted through the controller's durable managed set, and every
rescale is write-ahead logged as an intent, so :meth:`ControlLoop.recover`
rebuilds everything from the store alone after a scheduler restart and
replays whatever cycle was in flight when the previous incarnation died.
Node health rides on KV leases: heartbeating nodes that go silent are
cordoned by the per-step sweep, their pods marked lost, and their jobs
relaunched from checkpoint on live nodes the same interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.server import Server
from repro.common.errors import (
    ConfigurationError,
    SchedulingError,
    StaleLeaderError,
)
from repro.faults.crashpoints import (
    CRASH_AFTER_ELECTED,
    CRASH_BEFORE_CAMPAIGN,
    CRASH_MID_STEP_DEPOSED,
    CrashPointInjector,
)
from repro.k8s.api import APIServer
from repro.k8s.election import LeaderElection
from repro.k8s.controller import JobController, JobTarget, ReconcileReport
from repro.obs.estimators import estimator_telemetry_for
from repro.obs.registry import MetricsRegistry, active_registry, use_registry
from repro.obs.spans import span_tracer_for
from repro.obs.tracer import (
    EVENT_CHECKPOINT_MISSING,
    EVENT_INTENT_REPLAYED,
    EVENT_INTERVAL_TICK,
    EVENT_JOB_RESCALED,
    EVENT_NODE_CORDONED,
    EVENT_NODE_LEASE_REGRANT,
    EVENT_NODE_LEASE_RENEWED,
    EVENT_RESCALE_ROLLED_BACK,
    NULL_TRACER,
    Tracer,
)
from repro.schedulers.base import JobView, Scheduler, SchedulingDecision, record_decision


def cluster_from_api(
    api: APIServer, managed_jobs: Optional[set] = None
) -> Cluster:
    """Build a scheduling-ready :class:`Cluster` from API-server state.

    Managed jobs' pods are *excluded* (the controller re-places them every
    interval, §5.4, or tears them down when they left the views); any other
    bound pods -- other tenants, system daemons -- are carried over as
    occupied capacity. Cordoned nodes are excluded entirely: a dead machine
    must not pin capacity or attract placements.
    """
    nodes = api.list_nodes(include_cordoned=False)
    if not nodes:
        raise SchedulingError("the API server has no registered live nodes")
    live = {node.name for node in nodes}
    servers = [Server(node.name, node.capacity) for node in nodes]
    cluster = Cluster(servers)
    managed = managed_jobs or set()
    for pod in api.list_pods():
        if pod.node is None or pod.node not in live or pod.job_id in managed:
            continue
        cluster.place(pod.node, (pod.job_id, pod.role, pod.index), pod.demand)
    return cluster


@dataclass(frozen=True)
class StepReport:
    """Everything one control-loop step decided and did."""

    decision: SchedulingDecision
    reconcile: ReconcileReport
    #: Jobs that received no placement this interval (paused, §4.2).
    paused: Tuple[str, ...]


class ControlLoop:
    """Poll → schedule → reconcile, once per scheduling interval."""

    def __init__(
        self,
        api: APIServer,
        scheduler: Scheduler,
        controller: Optional[JobController] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        crash_points: Optional[CrashPointInjector] = None,
        start_step: int = 0,
        election: Optional[LeaderElection] = None,
    ):
        self.api = api
        self.scheduler = scheduler
        # Hot/standby HA: with an election, every write this loop issues
        # goes through a fenced store, and step() asserts leadership up
        # front. A loop without one is the classic single-controller mode.
        self.election = election
        self.crash_points = crash_points
        if election is not None:
            self.api.fence_writes(election)
        self.controller = controller or JobController(
            api, crash_points=crash_points
        )
        #: Jobs this loop has ever managed and may therefore tear down;
        #: other tenants' pods are off-limits (§7 "Various workloads").
        self._known_jobs: set = set()

        # Observability (repro.obs): the loop has no simulation clock, so
        # trace events are stamped with the 0-based step index.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else active_registry()
        # Spans time every phase: a ``step`` root per interval with sweep /
        # snapshot / schedule / reconcile children; the controller opens
        # per-job checkpoint / teardown / launch grandchildren.
        self.spans = span_tracer_for(self.tracer, self.metrics)
        if not self.controller.spans:
            self.controller.spans = self.spans
        # Prediction-quality telemetry: predictions recorded at decision
        # time, resolved by callers through observe_speed /
        # observe_completion (the deployment has no ground-truth clock).
        self.estimators = estimator_telemetry_for(self.tracer, self.metrics)
        self.scheduler.instrument(
            tracer=self.tracer,
            metrics=self.metrics,
            spans=self.spans,
        )
        # A recovered loop passes the dead predecessor's step index so the
        # shared clock (trace times, lease expiry) stays monotonic.
        self._step_index = int(start_step)

    @property
    def step_index(self) -> int:
        """The 0-based index of the next scheduling interval."""
        return self._step_index

    @property
    def role(self) -> str:
        """``"leader"`` or ``"standby"``; election-free loops always lead."""
        if self.election is None or self.election.leading:
            return "leader"
        return "standby"

    def step(
        self,
        views: Sequence[JobView],
        progress: Optional[Mapping[str, float]] = None,
    ) -> StepReport:
        """Run one scheduling interval for the given active jobs.

        Parameters
        ----------
        views:
            Scheduler-facing snapshots of the active jobs (§3 estimates).
        progress:
            Per-job progress (steps done), persisted into checkpoints when
            jobs are rescaled or torn down.
        """
        now = float(self._step_index)
        if self.election is not None and not self.election.renew(now):
            # Not (or no longer) the leader: refuse before touching any
            # state. Standbys drive standby_tick(), never step().
            raise StaleLeaderError(
                f"controller {self.election.candidate!r} is not the leader "
                f"(epoch {self.election.epoch}); cannot run a step"
            )
        tracer = self.tracer
        spans = self.spans
        spans.set_time(now)
        managed = {view.job_id for view in views}
        with use_registry(self.metrics), spans.span(
            "step", step=self._step_index
        ):
            with spans.span("sweep"):
                self.sweep_node_leases(now)
            # Write-ahead: the store knows the loop owns these jobs
            # *before* any of their pods are touched, so a crash mid-pass
            # cannot orphan a half-managed job.
            for job_id in sorted(managed - self._known_jobs):
                self.controller.adopt_job(job_id)
            # The snapshot leaves out every job reconcile re-places or tears
            # down, so a job leaving the views frees its capacity in the
            # same step that tears its pods down.
            scope = managed | self._known_jobs
            with spans.span("snapshot"):
                cluster = cluster_from_api(self.api, managed_jobs=scope)
            with spans.span("schedule"):
                decision = self.scheduler.schedule(cluster, views)
            # Callers resolve the predictions through observe_speed /
            # observe_completion as the framework reports back.
            record_decision(decision, views, now, tracer, self.estimators, progress or {})

            targets = []
            by_id = {view.job_id: view for view in views}
            for job_id, layout in decision.layouts.items():
                view = by_id[job_id]
                targets.append(
                    JobTarget(
                        job_id=job_id,
                        worker_demand=view.spec.worker_demand,
                        ps_demand=view.spec.ps_demand,
                        layout=dict(layout),
                    )
                )
            # Deposition chaos: sever the election lease *after* the
            # decision but before its writes land -- the GC-pause story.
            # The remaining reconcile mutations then bounce off the fence
            # and StaleLeaderError propagates out of step() (nothing may
            # absorb it, exactly like ControllerCrashed).
            if (
                self.election is not None
                and self.crash_points
                and self.crash_points.take(
                    CRASH_MID_STEP_DEPOSED, self.election.candidate
                )
            ):
                self.election.sever(now)
            with spans.span("reconcile"):
                # Graceful degradation: a rescale failing mid-flight rolls
                # that job back to its previous pods and the loop carries on
                # with the rest, instead of tearing half the fleet down.
                report = self.controller.reconcile(
                    targets,
                    job_progress=dict(progress or {}),
                    scope=scope,
                )
        if tracer:
            for job_id in report.jobs_scaled:
                alloc = decision.allocations.get(job_id)
                tracer.emit(
                    EVENT_JOB_RESCALED,
                    now,
                    job_id=job_id,
                    new=[alloc.workers, alloc.ps] if alloc else None,
                )
            for job_id in report.jobs_rolled_back:
                tracer.emit(EVENT_RESCALE_ROLLED_BACK, now, job_id=job_id)
        metrics = self.metrics
        metrics.counter("loop.steps").inc()
        metrics.counter("loop.pods_created").inc(report.pods_created)
        metrics.counter("loop.pods_deleted").inc(report.pods_deleted)
        metrics.counter("loop.jobs_scaled").inc(len(report.jobs_scaled))
        metrics.counter("loop.rescale_rollbacks").inc(len(report.jobs_rolled_back))
        metrics.counter("loop.reconcile_failures").inc(len(report.jobs_failed))
        # Jobs whose teardown failed stay owned (and durably recorded) so
        # the next pass retries; everything else that left the view is
        # released from the durable managed set (idempotent: reconcile
        # already dropped the keys of the jobs it tore down).
        failed = set(report.jobs_failed)
        for job_id in sorted(self._known_jobs - managed - failed):
            self.controller.release_job(job_id)
        self._known_jobs = managed | (
            (self._known_jobs - managed) & failed
        )
        paused = tuple(
            sorted(job_id for job_id in managed if job_id not in decision.layouts)
        )
        if tracer:
            tracer.emit(
                EVENT_INTERVAL_TICK,
                now,
                running_jobs=len(decision.scheduled_jobs),
                active_jobs=len(managed),
                paused_jobs=len(paused),
            )
        self._step_index += 1
        return StepReport(decision=decision, reconcile=report, paused=paused)

    # -- estimator telemetry -------------------------------------------------------
    def observe_speed(self, job_id: str, actual: float) -> Optional[float]:
        """Score the last interval's speed prediction against reality.

        Callers feed the training speed the framework actually measured;
        returns the signed relative error (or ``None`` with no pending
        prediction). Feeds the fleet MAPE gauges and the drift detector.
        """
        return self.estimators.resolve_speed(
            job_id, actual, float(self._step_index)
        )

    def observe_completion(self, job_id: str, total_steps: float) -> int:
        """Resolve every total-steps prediction for a finished job.

        The Fig.-6 replay: each interval's predicted total is scored
        against the steps the job actually needed. Returns the number of
        predictions resolved and drops any still-pending speed prediction
        and the job's drift windows.
        """
        resolved = self.estimators.resolve_totals(
            job_id, total_steps, float(self._step_index)
        )
        self.estimators.discard_job(job_id)
        return resolved

    # -- node health --------------------------------------------------------------
    def heartbeat(self, node_name: str, now: Optional[float] = None) -> None:
        """Forward a node's liveness ping (the kubelet status update).

        Renews the node's KV lease and emits ``node_lease_renewed`` /
        ``lease.renewals``. Only meaningful for nodes registered with a
        ``lease_ttl``; see :meth:`APIServer.heartbeat_node` for the error
        contract.
        """
        now = float(self._step_index) if now is None else now
        before = self.api.node(node_name).lease_id
        node = self.api.heartbeat_node(node_name, now)
        if node.lease_id != before:
            # The lease had lapsed unswept; the ping re-granted a fresh one.
            if self.tracer:
                self.tracer.emit(
                    EVENT_NODE_LEASE_REGRANT, now, server=node_name
                )
            self.metrics.counter("lease.regrants").inc()
            return
        if self.tracer:
            self.tracer.emit(EVENT_NODE_LEASE_RENEWED, now, server=node_name)
        self.metrics.counter("lease.renewals").inc()

    def sweep_node_leases(self, now: Optional[float] = None) -> Tuple[str, ...]:
        """Cordon nodes whose health lease lapsed (runs inside every step).

        Newly cordoned nodes vanish from the scheduling snapshot, their
        pods are marked lost, and the same step's reconcile relaunches the
        affected jobs from checkpoint on live nodes -- a dead machine costs
        at most one scheduling interval of progress. Emits
        ``node_cordoned`` and bumps ``lease.expirations`` /
        ``loop.nodes_cordoned`` per node. A cluster with no leases
        configured sweeps nothing and mutates nothing.
        """
        now = float(self._step_index) if now is None else now
        cordoned = tuple(self.api.sweep_expired(now))
        for name in cordoned:
            if self.tracer:
                self.tracer.emit(EVENT_NODE_CORDONED, now, server=name)
            self.metrics.counter("lease.expirations").inc()
            self.metrics.counter("loop.nodes_cordoned").inc()
        return cordoned

    # -- hot/standby HA ------------------------------------------------------------
    def standby_tick(self, now: Optional[float] = None) -> Optional[Dict[str, float]]:
        """One standby heartbeat: campaign for a vacant leadership.

        A standby calls this every tick (the store has no clock, so
        vacancy is *polled*: a silently dead leader's lease only looks
        lapsed when someone checks). While another leader reigns it
        returns ``None``. On winning the election it fires the
        ``before_campaign``/``after_elected`` crash points, syncs the
        step clock to *now*, runs the full :meth:`recover` path -- intent
        replay, managed-set re-adoption -- and returns the recovered
        per-job checkpoint progress: the takeover is complete and the
        caller should start driving :meth:`step`. An already-leading loop
        just renews its lease.
        """
        if self.election is None:
            raise ConfigurationError("standby_tick requires an election")
        now = float(self._step_index) if now is None else now
        # A successor resumes the shared step clock so trace times and
        # lease expiries stay monotonic across reigns.
        self._step_index = max(self._step_index, int(now))
        if self.election.is_leader(now):
            self.election.renew(now)
            return None
        if self.crash_points and not self.election.leader_alive(now):
            # Only an actual vacancy is "before campaign"; a standby idling
            # behind a healthy leader is not about to campaign for anything.
            self.crash_points.fire(CRASH_BEFORE_CAMPAIGN, self.election.candidate)
        if self.election.campaign(now) is None:
            self.metrics.counter("election.standby_ticks").inc()
            return None
        if self.crash_points:
            self.crash_points.fire(CRASH_AFTER_ELECTED, self.election.candidate)
        return self.recover()

    # -- shutdown & crash recovery ------------------------------------------------
    def drain(self, progress: Optional[Mapping[str, float]] = None) -> ReconcileReport:
        """Tear the loop's jobs down (checkpointing state), e.g. at shutdown.

        Degrades gracefully like :meth:`step`: one job's KV failure does
        not abort the drain for the rest. Jobs that could not be torn down
        stay owned (``report.jobs_failed``) so a retried drain -- or a
        recovered successor -- can finish the work.
        """
        report = self.controller.reconcile(
            [],
            job_progress=dict(progress or {}),
            scope=self._known_jobs,
        )
        self._known_jobs = set(report.jobs_failed)
        return report

    def recover(
        self, job_ids: Optional[Sequence[str]] = None
    ) -> Dict[str, float]:
        """Rebuild state after a scheduler restart (§5.5 fault tolerance).

        Kubernetes restarts a failed scheduler pod automatically; job state
        survives in etcd. With no arguments the loop rebuilds everything
        from the store alone: it re-adopts the durable managed-job set,
        replays any write-ahead intent the dead controller left mid-cycle
        (completing or abandoning the rescale -- ``intent_replayed`` per
        job), and returns the progress recorded in the jobs' checkpoints.

        *job_ids* may still be supplied to adopt additional jobs the store
        does not know about (a migration path, and the pre-intent-log
        behaviour); they are unioned with the stored set and durably
        adopted.

        A missing checkpoint reports 0.0 -- safe (the job restarts from
        scratch) but worth an operator's attention, since "fresh job" and
        "lost checkpoint" look identical from the return value alone: each
        one is traced as ``checkpoint_missing`` and counted in
        ``loop.checkpoints_missing``.
        """
        now = float(self._step_index)
        self.spans.set_time(now)
        stored = self.controller.managed_jobs()
        with self.spans.span("replay_intents"):
            for job_id, phase, outcome in self.controller.replay_intents():
                if self.tracer:
                    self.tracer.emit(
                        EVENT_INTENT_REPLAYED,
                        now,
                        job_id=job_id,
                        phase=phase,
                        outcome=outcome,
                    )
                self.metrics.counter("loop.intents_replayed").inc()
        # Replay may have finished pending teardowns (releasing jobs).
        stored &= self.controller.managed_jobs()
        extra = set(job_ids or ()) - stored
        for job_id in sorted(extra):
            self.controller.adopt_job(job_id)
        adopted: Dict[str, float] = {}
        for job_id in sorted(stored | extra):
            checkpoint = self.controller.load_checkpoint(job_id)
            if checkpoint is None:
                if self.tracer:
                    self.tracer.emit(
                        EVENT_CHECKPOINT_MISSING,
                        now,
                        job_id=job_id,
                    )
                self.metrics.counter("loop.checkpoints_missing").inc()
            adopted[job_id] = 0.0 if checkpoint is None else checkpoint
            self._known_jobs.add(job_id)
        return adopted
