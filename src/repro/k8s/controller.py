"""The training-job controller: checkpoint-based elastic scaling (§5.4).

Optimus adjusts a job's parameter-server/worker counts by checkpointing the
model to HDFS, tearing the job's pods down and relaunching them under the
new configuration. The controller below reconciles a *desired* state (one
scheduling decision: per-job task counts plus a per-server layout) against
the *actual* pods in the API server, producing exactly that
checkpoint → delete → recreate → restore sequence, and records checkpoints
in the kv store so a restarted scheduler can recover job states (§5.5's
fault-tolerance story).

Crash consistency (§5.5, taken seriously): the cycle above has windows
where a dying scheduler pod would strand a job -- killed between teardown
and relaunch, the job has zero pods and, with only checkpoints persisted,
no record that it was mid-rescale. The controller therefore write-ahead
logs a per-job *intent* (``/intents/<job>``: the target layout plus the
phase the cycle reached) around every step, and persists the managed-job
set under ``/managed/<job>``. A restarted controller replays unfinished
intents from the store alone (:meth:`JobController.replay_intents`),
completing or abandoning whatever was in flight, with progress loss
bounded by the pre-cycle checkpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.resources import ResourceVector
from repro.common.errors import KVStoreError
from repro.faults.crashpoints import (
    CRASH_AFTER_CHECKPOINT,
    CRASH_AFTER_LAUNCH,
    CRASH_AFTER_TEARDOWN,
    CRASH_MID_LAUNCH,
    CrashPointInjector,
)
from repro.k8s.api import APIServer
from repro.k8s.objects import PodSpec, pod_name
from repro.obs.spans import NULL_SPAN_TRACER, SpanTracer

CHECKPOINT_PREFIX = "/checkpoints/"
#: Write-ahead intent records, one per job with a cycle in flight.
INTENT_PREFIX = "/intents/"
#: The durable managed-job set: which jobs this control plane owns.
MANAGED_PREFIX = "/managed/"

#: Intent phases, in cycle order. ``done`` marks a sealed cycle: nothing
#: to replay. The others name the last step known to have *completed*.
INTENT_CHECKPOINTED = "checkpointed"
INTENT_TORN_DOWN = "torn_down"
INTENT_LAUNCHING = "launching"
INTENT_DONE = "done"
INTENT_PHASES = (
    INTENT_CHECKPOINTED,
    INTENT_TORN_DOWN,
    INTENT_LAUNCHING,
    INTENT_DONE,
)

#: Outcomes of replaying one intent after a controller restart.
REPLAY_COMPLETED = "completed"
REPLAY_TORN_DOWN = "torn_down"
REPLAY_ABANDONED = "abandoned"


def _live_layout(layout: Dict[str, Tuple[int, int]]) -> Dict[str, Tuple[int, int]]:
    """A layout with empty server entries dropped.

    Placements may carry ``(0, 0)`` entries for servers a job vacated;
    the observed layout (from pods) never does, so convergence checks
    must compare the live parts only -- otherwise an all-but-empty
    target rescales the job on every single pass.
    """
    return {
        server: (nw, np_)
        for server, (nw, np_) in layout.items()
        if nw or np_
    }


@dataclass(frozen=True)
class JobTarget:
    """Desired deployment of one job for the coming interval."""

    job_id: str
    worker_demand: ResourceVector
    ps_demand: ResourceVector
    #: server -> (num workers, num ps); totals define the task counts.
    layout: Dict[str, Tuple[int, int]]

    @property
    def workers(self) -> int:
        return sum(nw for nw, _ in self.layout.values())

    @property
    def ps(self) -> int:
        return sum(np_ for _, np_ in self.layout.values())


@dataclass(frozen=True)
class JobIntent:
    """One write-ahead intent record: where a job's rescale cycle stands.

    An empty ``layout`` intends the job *gone* (pause/finish teardown);
    anything else intends exactly those pods. Replay is idempotent: the
    record carries everything needed to finish the cycle without the
    scheduler that wrote it.
    """

    job_id: str
    phase: str
    layout: Dict[str, Tuple[int, int]]
    worker_demand: ResourceVector
    ps_demand: ResourceVector

    def with_phase(self, phase: str) -> "JobIntent":
        return replace(self, phase=phase)

    def as_target(self) -> Optional[JobTarget]:
        """The intended deployment, or ``None`` when the intent is teardown."""
        if not self.layout:
            return None
        return JobTarget(
            job_id=self.job_id,
            worker_demand=self.worker_demand,
            ps_demand=self.ps_demand,
            layout=dict(self.layout),
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "job_id": self.job_id,
                "phase": self.phase,
                "layout": {
                    server: [nw, np_]
                    for server, (nw, np_) in sorted(self.layout.items())
                },
                "worker_demand": dict(self.worker_demand.items()),
                "ps_demand": dict(self.ps_demand.items()),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, payload: str) -> "JobIntent":
        data = json.loads(payload)
        return cls(
            job_id=data["job_id"],
            phase=data["phase"],
            layout={
                server: (int(nw), int(np_))
                for server, (nw, np_) in data["layout"].items()
            },
            worker_demand=ResourceVector(data["worker_demand"]),
            ps_demand=ResourceVector(data["ps_demand"]),
        )

    @classmethod
    def for_target(cls, target: JobTarget, phase: str) -> "JobIntent":
        return cls(
            job_id=target.job_id,
            phase=phase,
            layout=dict(target.layout),
            worker_demand=target.worker_demand,
            ps_demand=target.ps_demand,
        )

    @classmethod
    def for_teardown(cls, job_id: str, phase: str) -> "JobIntent":
        return cls(
            job_id=job_id,
            phase=phase,
            layout={},
            worker_demand=ResourceVector(),
            ps_demand=ResourceVector(),
        )


@dataclass
class ReconcileReport:
    """What one reconciliation pass did."""

    pods_created: int = 0
    pods_deleted: int = 0
    checkpoints_saved: int = 0
    checkpoints_restored: int = 0
    jobs_scaled: Tuple[str, ...] = ()
    #: Progress checkpoints refreshed without a rescale (fault tolerance:
    #: a crashed scheduler recovers at most one interval of progress, §5.5).
    progress_updates: int = 0
    #: Jobs whose rescale failed mid-flight and were restored to their
    #: previous pods (graceful degradation; see :meth:`JobController.reconcile`).
    jobs_rolled_back: Tuple[str, ...] = ()
    #: Jobs whose checkpoint/teardown step (or progress checkpoint) hit a KV
    #: failure and whose cycle was skipped this pass (retried next pass).
    jobs_failed: Tuple[str, ...] = ()


class JobController:
    """Reconciles scheduling decisions into pod operations.

    *crash_points* is an optional
    :class:`~repro.faults.CrashPointInjector`: chaos tests use it to kill
    the controller at named points inside :meth:`reconcile` and assert the
    store-driven recovery converges.
    """

    def __init__(
        self,
        api: APIServer,
        crash_points: Optional[CrashPointInjector] = None,
        spans: Optional[SpanTracer] = None,
    ):
        self.api = api
        self.crash_points = crash_points
        #: Causal span tracer; the owning control loop shares its own so
        #: per-job checkpoint/teardown/launch spans nest under "reconcile".
        #: Spans close in ``finally``, so a crash-point firing mid-cycle
        #: still emits every open span before the exception escapes.
        self.spans = spans if spans is not None else NULL_SPAN_TRACER

    def _crash(self, point: str, job_id: str) -> None:
        if self.crash_points:
            self.crash_points.fire(point, job_id)

    # -- checkpoints --------------------------------------------------------------
    def save_checkpoint(
        self, job_id: str, steps_done: float, force: bool = False
    ) -> bool:
        """Persist the job's training state (stand-in for the HDFS write).

        Checkpoints only move forward: a save with fewer ``steps_done``
        than the stored checkpoint is dropped (returns ``False``), so a
        reconcile pass that lacks a progress reading cannot clobber a
        newer checkpoint with ``0.0``. ``force=True`` is the explicit
        reset escape hatch.
        """
        if not force:
            existing = self.load_checkpoint(job_id)
            if existing is not None and steps_done < existing:
                return False
        self.api.store.put(
            CHECKPOINT_PREFIX + job_id,
            json.dumps({"job_id": job_id, "steps_done": steps_done}),
        )
        return True

    def load_checkpoint(self, job_id: str) -> Optional[float]:
        payload = self.api.store.get(CHECKPOINT_PREFIX + job_id)
        if payload is None:
            return None
        return float(json.loads(payload)["steps_done"])

    def delete_checkpoint(self, job_id: str) -> bool:
        return self.api.store.delete(CHECKPOINT_PREFIX + job_id)

    # -- durable managed-job set --------------------------------------------------
    def adopt_job(self, job_id: str) -> None:
        """Durably record that this control plane owns *job_id*."""
        key = MANAGED_PREFIX + job_id
        if key not in self.api.store:
            self.api.store.put(key, "1")

    def release_job(self, job_id: str) -> None:
        """Drop *job_id* from the durable managed set."""
        self.api.store.delete(MANAGED_PREFIX + job_id)

    def managed_jobs(self) -> Set[str]:
        """The managed-job set as persisted in the store."""
        prefix_len = len(MANAGED_PREFIX)
        return {
            key[prefix_len:]
            for key in self.api.store.list_prefix(MANAGED_PREFIX)
        }

    # -- intent log ---------------------------------------------------------------
    def _put_intent(self, intent: JobIntent) -> None:
        self.api.store.put(INTENT_PREFIX + intent.job_id, intent.to_json())

    def load_intent(self, job_id: str) -> Optional[JobIntent]:
        payload = self.api.store.get(INTENT_PREFIX + job_id)
        if payload is None:
            return None
        return JobIntent.from_json(payload)

    def list_intents(self) -> Dict[str, JobIntent]:
        """Every persisted intent record, keyed by job id."""
        prefix_len = len(INTENT_PREFIX)
        return {
            key[prefix_len:]: JobIntent.from_json(payload)
            for key, payload in self.api.store.list_prefix(INTENT_PREFIX).items()
        }

    def clear_intent(self, job_id: str) -> bool:
        return self.api.store.delete(INTENT_PREFIX + job_id)

    def _seal_intent(self, intent: JobIntent) -> None:
        """Best-effort intent bookkeeping on an already-failing path.

        Used inside ``except KVStoreError`` branches: the update makes the
        stored intent *more* accurate, but the stale record is already
        safe to replay, so a second store failure must not mask the first.
        """
        try:
            self._put_intent(intent)
        except KVStoreError:
            pass

    # -- reconciliation ---------------------------------------------------------
    @staticmethod
    def _layout_of(pods: List[PodSpec]) -> Dict[str, Tuple[int, int]]:
        layout: Dict[str, List[int]] = {}
        for pod in pods:
            if pod.node is None:
                continue
            counts = layout.setdefault(pod.node, [0, 0])
            counts[0 if pod.role == "worker" else 1] += 1
        return {node: (c[0], c[1]) for node, c in layout.items()}

    def _delete_pods(self, pods: List[PodSpec]) -> int:
        deleted = 0
        for pod in pods:
            if self.api.delete_pod(pod.name):
                deleted += 1
        return deleted

    def _teardown_job(self, job_id: str) -> int:
        """Delete every pod the store holds for *job_id* right now."""
        return self._delete_pods(self.api.list_pods(job_id=job_id))

    def _launch_job(self, target: JobTarget) -> int:
        created = 0
        worker_idx = ps_idx = 0
        for server, (n_workers, n_ps) in target.layout.items():
            for _ in range(n_workers):
                name = pod_name(target.job_id, "worker", worker_idx)
                self.api.create_pod(
                    PodSpec(
                        name=name,
                        job_id=target.job_id,
                        role="worker",
                        index=worker_idx,
                        demand=target.worker_demand,
                    )
                )
                self.api.bind_pod(name, server)
                worker_idx += 1
                created += 1
                if created == 1:
                    self._crash(CRASH_MID_LAUNCH, target.job_id)
            for _ in range(n_ps):
                name = pod_name(target.job_id, "ps", ps_idx)
                self.api.create_pod(
                    PodSpec(
                        name=name,
                        job_id=target.job_id,
                        role="ps",
                        index=ps_idx,
                        demand=target.ps_demand,
                    )
                )
                self.api.bind_pod(name, server)
                ps_idx += 1
                created += 1
                if created == 1:
                    self._crash(CRASH_MID_LAUNCH, target.job_id)
        return created

    def _rollback_job(
        self, job_id: str, previous_pods: List[PodSpec]
    ) -> bool:
        """Undo a failed mid-flight rescale: restore the previous pods.

        Tears down whatever the partial launch created -- read fresh, since
        those pods postdate the pass's pod snapshot -- then re-creates and
        re-binds the pods the job ran with before (their restart counters
        bumped -- the containers really did restart). Returns ``False`` when
        even the restore fails; the job is then left fully torn down, which
        is safe: its checkpoint was saved before the teardown, so a later
        reconcile relaunches it from there.
        """
        self._teardown_job(job_id)
        try:
            for pod in previous_pods:
                self.api.create_pod(
                    PodSpec(
                        name=pod.name,
                        job_id=pod.job_id,
                        role=pod.role,
                        index=pod.index,
                        demand=pod.demand,
                        restarts=pod.restarts + 1,
                    )
                )
                self.api.bind_pod(pod.name, pod.node)
        except KVStoreError:
            self._teardown_job(job_id)
            return False
        return True

    def reconcile(
        self,
        targets: List[JobTarget],
        job_progress: Optional[Dict[str, float]] = None,
        scope: Optional[set] = None,
    ) -> ReconcileReport:
        """Drive the cluster to the desired state.

        Jobs whose layout is unchanged are left untouched; changed jobs go
        through the §5.4 checkpoint/teardown/relaunch/restore cycle; jobs
        absent from *targets* (paused or finished) are checkpointed and torn
        down. Every cycle is write-ahead logged under ``/intents/<job>`` so
        a controller that dies mid-cycle can be replayed from the store
        (:meth:`replay_intents`).

        A relaunch that fails mid-flight (a pod that no longer fits, an
        unknown node) never leaves a job half-torn-down: the job is rolled
        back to the pods it ran with before and recorded in
        ``report.jobs_rolled_back``. A KV failure during the checkpoint or
        teardown step skips that job's cycle (``report.jobs_failed``; the
        next pass retries). Either way the pass goes on with the other
        jobs: no :class:`KVStoreError` escapes. A fenced write
        (:class:`~repro.common.errors.StaleLeaderError`) and an injected
        controller crash (:class:`~repro.common.errors.ControllerCrashed`)
        are not KV failures and still propagate.

        ``scope`` limits which jobs this controller is allowed to tear
        down: pods of jobs outside the scope (other tenants' workloads, §7
        "Various workloads") are never touched. ``None`` means the
        controller owns every pod.
        """
        job_progress = job_progress or {}
        report = ReconcileReport()
        scaled: List[str] = []
        rolled_back: List[str] = []
        failed: List[str] = []
        desired = {t.job_id: t for t in targets}
        # One read of the pod table drives the whole pass. A job's pods
        # change only inside that job's own cycle below, so its slice of
        # the snapshot stays exact until the cycle touches it; a rollback
        # re-reads (the partial launch made pods the snapshot lacks).
        pods_by_job: Dict[str, List[PodSpec]] = {}
        for pod in self.api.list_pods():
            pods_by_job.setdefault(pod.job_id, []).append(pod)
        existing_jobs = set(pods_by_job)
        if scope is not None:
            existing_jobs &= set(scope) | set(desired)

        # Tear down jobs that should no longer run.
        for job_id in sorted(existing_jobs - set(desired)):
            try:
                with self.spans.span("checkpoint", job_id=job_id):
                    if self.save_checkpoint(
                        job_id, job_progress.get(job_id, 0.0)
                    ):
                        report.checkpoints_saved += 1
                    self._put_intent(
                        JobIntent.for_teardown(job_id, INTENT_CHECKPOINTED)
                    )
                    self._crash(CRASH_AFTER_CHECKPOINT, job_id)
                with self.spans.span("teardown", job_id=job_id):
                    report.pods_deleted += self._delete_pods(pods_by_job[job_id])
                    self._crash(CRASH_AFTER_TEARDOWN, job_id)
                self.clear_intent(job_id)
                self.release_job(job_id)
            except KVStoreError:
                failed.append(job_id)

        for job_id, target in desired.items():
            pods = pods_by_job.get(job_id, [])
            if self._layout_of(pods) == _live_layout(target.layout):
                # Unchanged: keep running (no scaling cost), but refresh the
                # progress checkpoint so a scheduler crash loses at most one
                # interval of training (§5.5).
                if job_id in job_progress:
                    try:
                        if self.save_checkpoint(job_id, job_progress[job_id]):
                            report.progress_updates += 1
                    except KVStoreError:
                        failed.append(job_id)
                continue
            previous_pods = [p for p in pods if p.bound]
            if job_id in existing_jobs:
                try:
                    with self.spans.span("checkpoint", job_id=job_id):
                        if self.save_checkpoint(
                            job_id, job_progress.get(job_id, 0.0)
                        ):
                            report.checkpoints_saved += 1
                        self._put_intent(
                            JobIntent.for_target(target, INTENT_CHECKPOINTED)
                        )
                        self._crash(CRASH_AFTER_CHECKPOINT, job_id)
                    with self.spans.span("teardown", job_id=job_id):
                        report.pods_deleted += self._delete_pods(pods)
                        self._put_intent(
                            JobIntent.for_target(target, INTENT_TORN_DOWN)
                        )
                        self._crash(CRASH_AFTER_TEARDOWN, job_id)
                except KVStoreError:
                    failed.append(job_id)
                    continue
            try:
                restored = self.load_checkpoint(job_id) is not None
                with self.spans.span("launch", job_id=job_id):
                    self._put_intent(
                        JobIntent.for_target(target, INTENT_LAUNCHING)
                    )
                    created = self._launch_job(target)
                    self._crash(CRASH_AFTER_LAUNCH, job_id)
                    self._put_intent(JobIntent.for_target(target, INTENT_DONE))
            except KVStoreError:
                if self._rollback_job(job_id, previous_pods):
                    # Rescale abandoned; the job runs its previous pods, so
                    # there is nothing left for a recovery to replay.
                    try:
                        self.clear_intent(job_id)
                    except KVStoreError:
                        pass
                else:
                    # Fully torn down: leave a torn_down intent so a
                    # crashed-then-recovered controller relaunches it.
                    self._seal_intent(
                        JobIntent.for_target(target, INTENT_TORN_DOWN)
                    )
                rolled_back.append(job_id)
                continue
            if restored:
                report.checkpoints_restored += 1
            report.pods_created += created
            scaled.append(job_id)

        report.jobs_scaled = tuple(scaled)
        report.jobs_rolled_back = tuple(rolled_back)
        report.jobs_failed = tuple(failed)
        return report

    # -- crash recovery -----------------------------------------------------------
    def replay_intents(self) -> List[Tuple[str, str, str]]:
        """Finish (or abandon) every cycle a dead controller left in flight.

        Returns ``(job_id, phase_found, outcome)`` triples, sorted by job:

        * ``completed`` -- the intended pods now run (relaunched, or found
          already complete when the crash hit after the launch finished);
        * ``torn_down`` -- a teardown intent was completed; the job is gone
          (its checkpoint remains);
        * ``abandoned`` -- the relaunch failed (e.g. the target node died
          with the controller); the job is left down with its checkpoint
          intact for the next scheduling pass to replace.

        Sealed (``done``) intents are garbage-collected silently. The
        replay is idempotent: running it twice leaves the same state.
        """
        outcomes: List[Tuple[str, str, str]] = []
        for job_id, intent in sorted(self.list_intents().items()):
            if intent.phase == INTENT_DONE:
                continue
            target = intent.as_target()
            if target is None:
                # A pause/finish teardown died mid-flight: finish it.
                self._teardown_job(job_id)
                self.clear_intent(job_id)
                self.release_job(job_id)
                outcomes.append((job_id, intent.phase, REPLAY_TORN_DOWN))
                continue
            current = self._layout_of(self.api.list_pods(job_id=job_id))
            if current == _live_layout(intent.layout):
                # Crashed after the launch completed; just seal the cycle.
                self._put_intent(intent.with_phase(INTENT_DONE))
                outcomes.append((job_id, intent.phase, REPLAY_COMPLETED))
                continue
            self._teardown_job(job_id)
            try:
                self._put_intent(intent.with_phase(INTENT_LAUNCHING))
                self._launch_job(target)
                self._put_intent(intent.with_phase(INTENT_DONE))
                outcomes.append((job_id, intent.phase, REPLAY_COMPLETED))
            except KVStoreError:
                self._teardown_job(job_id)
                try:
                    self.clear_intent(job_id)
                except KVStoreError:
                    pass
                outcomes.append((job_id, intent.phase, REPLAY_ABANDONED))
        return outcomes
