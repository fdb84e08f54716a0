"""Control-plane drills: kill the controller, recover, audit what is left.

Both drills drive one small job fleet (:class:`DrillFleet`) through the
real ControlLoop/APIServer/KVStore stack and end with the same leak audit
(:meth:`DrillFleet.leaks`): pods, unfinished intents and node leases still
held after teardown. The clock is the step index.

* **Crash drill** (:func:`run_crash_drill`, ``repro drill``): the
  controller dies once at a reconcile crash point and a fresh one
  recovers from the store alone in the *same* step, with no election; a
  node may go silent after step 0. After the steps it checks the §5.5
  invariants (no orphaned pods, node capacity equal to the bound pods,
  the dead node cordoned, progress loss within one interval), then
  drains, recovering again if the crash point fires there.
* **Failover drill** (:func:`run_failover_drill`, ``repro failover``): a
  leader runs while a hot standby ticks ``standby_tick``; the leader is
  killed and the standby must take over -- deposing the stale reign,
  replaying intents, driving the jobs -- without dual leadership, leaked
  state or unfenced stale writes. Kill modes (``crash_point``): ``None``
  (silent death; the standby wins once the election lease lapses),
  ``mid_step_deposed`` (the lease is severed after the decision, so the
  reconcile writes bounce off the fence), ``before_campaign`` /
  ``after_elected`` (the *successor* dies there and a replacement
  finishes), or a reconcile crash point (a torn intent to replay). It
  measures **takeover latency**: from the dead reign's lease expiry to the
  successor's first completed post-recovery schedule.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Union

from repro.cluster import cpu_mem
from repro.common.errors import (
    ConfigurationError,
    ControllerCrashed,
    SimulationError,
    StaleLeaderError,
)
from repro.deploy.loop import ControlLoop
from repro.faults.crashpoints import (
    CRASH_MID_STEP_DEPOSED,
    CRASH_POINTS,
    RECONCILE_CRASH_POINTS,
    ControllerCrash,
    CrashPointInjector,
)
from repro.k8s.api import APIServer
from repro.k8s.controller import INTENT_DONE, JobController
from repro.k8s.election import EPOCH_KEY, LeaderElection
from repro.k8s.kvstore import KVStore
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import EVENT_JOB_ARRIVED, EVENT_RUN_COMPLETED, RecordingTracer, Tracer
from repro.schedulers import JobView, make_scheduler
from repro.soak.checker import CheckerConfig, InvariantChecker
from repro.workloads import MODEL_ZOO, StepTimeModel, make_job

#: Training progress every job makes per drill step (one interval).
STEPS_PER_INTERVAL = 250.0


def _validate(config, crash_points, **minimums: int) -> None:
    for name, low in minimums.items():
        if getattr(config, name) < low:
            raise ConfigurationError(f"{name} must be >= {low}, got {getattr(config, name)}")
    if config.crash_point is not None and config.crash_point not in crash_points:
        raise ConfigurationError(
            f"crash_point must be one of {crash_points}, got {config.crash_point!r}"
        )


@dataclass(frozen=True)
class CrashDrillConfig:
    """One crash drill, fully deterministic given these fields."""

    seed: int = 0
    jobs: int = 3
    servers: int = 4
    steps: int = 6
    #: Index of the node whose heartbeats stop after step 0 (out of range:
    #: none does).
    expire_node: int = -1
    #: Node health lease TTL in steps; ``<= 0`` disables node leases.
    lease_ttl: float = 2.0
    policy: str = "optimus"
    #: The reconcile crash point the controller dies at, once.
    crash_point: Optional[str] = None

    def __post_init__(self):
        _validate(self, RECONCILE_CRASH_POINTS, jobs=1, servers=1, steps=0)


@dataclass(frozen=True)
class FailoverConfig:
    """One failover drill, fully deterministic given these fields."""

    seed: int = 0
    jobs: int = 3
    servers: int = 4
    #: Steps each reign leads before its scripted kill.
    steps_before: int = 3
    #: Steps the final leader runs after the last takeover.
    steps_after: int = 4
    #: Election lease TTL, in step units.
    lease_ttl: float = 2.0
    #: Node health lease TTL (kubelets heartbeat every step regardless).
    node_lease_ttl: float = 6.0
    policy: str = "optimus"
    #: How the leader dies; see the module docstring. ``None`` = silent.
    crash_point: Optional[str] = None
    #: How many leader kills (waves) the drill performs.
    kills: int = 1

    def __post_init__(self):
        _validate(self, CRASH_POINTS, jobs=1, servers=1, steps_before=0, steps_after=0, kills=1)


DrillConfig = Union[CrashDrillConfig, FailoverConfig]

#: A scenario ``drill`` block's ``kind`` and the config it builds.
DRILL_KINDS = {"crash": CrashDrillConfig, "failover": FailoverConfig}


def drill_config(spec: Mapping, seed: int, policy: str) -> DrillConfig:
    """Validate a scenario ``drill`` block and build its config.

    ``kind`` (default ``"crash"``) picks the config, and every other key
    must be one of its fields; ``seed`` and ``policy`` default to the
    scenario's. An unknown kind or key, a key of the other kind, or an
    out-of-range value raises :class:`ConfigurationError`.
    """
    values = dict(spec)
    kind = values.pop("kind", "crash")
    if kind not in DRILL_KINDS:
        raise ConfigurationError(
            f"drill 'kind' must be one of {tuple(DRILL_KINDS)}, got {kind!r}"
        )
    fields = {name: dataclasses.fields(cls) for name, cls in DRILL_KINDS.items()}
    defaults = {f.name: f.default for f in fields[kind]}
    unknown = sorted(set(values) - set(defaults))
    if unknown:
        owner = [other for other in fields if unknown[0] in {f.name for f in fields[other]}]
        raise ConfigurationError(
            f"{kind} drill: unknown key {unknown[0]!r}"
            + (f" (a {owner[0]} drill key)" if owner else "")
            + f"; known: {', '.join(['kind', *defaults])}"
        )
    values = {"seed": seed, "policy": policy, **values}
    try:
        # Coerce to each field's type, so JSON's 2 and 2.0 build one config.
        return DRILL_KINDS[kind](**{
            key: value if defaults[key] is None else type(defaults[key])(value)
            for key, value in values.items()
        })
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{kind} drill: {exc}") from None


class DrillFleet:
    """The drill's jobs and nodes, registered through a kubelet-side *api*.

    Jobs ``<prefix>-<i>`` run synchronous Table-1 models
    (``models[(i + seed) % n]``) and are announced with ``job_arrived`` so
    the stream checker holds them to the no-lost-jobs invariant. Nodes are
    ``cpu_mem(16, 64)`` with a health lease of *node_lease_ttl* steps
    (``None``: no lease).
    """

    def __init__(
        self, api: APIServer, config: DrillConfig, prefix: str, node_lease_ttl, tracer: Tracer
    ):
        self.api = api
        self.node_names = [f"n{i}" for i in range(config.servers)]
        for name in self.node_names:
            api.register_node(name, cpu_mem(16, 64), lease_ttl=node_lease_ttl, now=0.0)
        models = sorted(MODEL_ZOO)
        self.specs = [
            make_job(
                models[(i + config.seed) % len(models)], mode="sync", job_id=f"{prefix}-{i}"
            )
            for i in range(config.jobs)
        ]
        self.job_ids = [spec.job_id for spec in self.specs]
        self._truths = {s.job_id: StepTimeModel(s.profile, "sync") for s in self.specs}
        self.progress = {job_id: 0.0 for job_id in self.job_ids}
        for spec in self.specs:
            tracer.emit(
                EVENT_JOB_ARRIVED,
                0.0,
                job_id=spec.job_id,
                model=spec.model_name,
                mode=spec.mode,
                arrival_time=0.0,
            )

    def step(self, loop: ControlLoop, without: Optional[str] = None) -> None:
        """One scheduling interval of *loop* over the fleet, minus *without*."""
        views = [
            JobView(
                spec=spec,
                remaining_steps=max(50_000.0 - self.progress[spec.job_id], 1_000.0),
                speed=lambda p, w, t=self._truths[spec.job_id]: t.speed(p, w),
                observation_count=100,
            )
            for spec in self.specs
            if spec.job_id != without
        ]
        loop.step(views, progress=dict(self.progress))

    def advance(self) -> None:
        """Every job trains one more interval."""
        for job_id in self.progress:
            self.progress[job_id] += STEPS_PER_INTERVAL

    def resume(self, recovered: Mapping[str, float]) -> None:
        """Merge the checkpointed progress a recovery reported."""
        for job_id, saved in recovered.items():
            self.progress[job_id] = max(self.progress.get(job_id, 0.0), saved)

    def heartbeat(
        self, now: float, ping: Callable[[str, float], object], silent: Optional[str] = None
    ) -> None:
        """Ping every uncordoned node but *silent* through *ping*."""
        for name in self.node_names:
            if name != silent and not self.api.node(name).cordoned:
                ping(name, now)

    def leaks(self, controller: JobController) -> Dict[str, List[str]]:
        """Remove the nodes; report the pods, intents and node leases left."""
        leaked_pods = sorted(p.name for p in self.api.list_pods())
        leaked_intents = sorted(
            job_id
            for job_id, intent in controller.list_intents().items()
            if intent.phase != INTENT_DONE
        )
        leaked_leases = []
        for name in self.node_names:
            lease_id = self.api.node(name).lease_id
            self.api.remove_node(name)
            if lease_id is not None and self.api.store.has_lease(lease_id):
                leaked_leases.append(f"{name}:{lease_id}")
        return {
            "leaked_pods": leaked_pods,
            "leaked_leases": sorted(leaked_leases),
            "leaked_intents": leaked_intents,
        }


def _controller(api: APIServer, config: DrillConfig, tracer, metrics, **options) -> ControlLoop:
    """A controller incarnation running the drill's policy on *api*."""
    scheduler = make_scheduler(config.policy)
    return ControlLoop(api, scheduler, tracer=tracer, metrics=metrics, **options)


@dataclass
class DrillOutcome:
    """What every drill hands to the caller's accounting."""

    config: DrillConfig
    jobs: List[str]
    leaked_pods: List[str]
    leaked_leases: List[str]
    leaked_intents: List[str]

    def leaks(self) -> Dict[str, List[str]]:
        """The leak fields of a ``run_completed`` accounting event."""
        return {
            "leaked_pods": self.leaked_pods,
            "leaked_leases": self.leaked_leases,
            "leaked_intents": self.leaked_intents,
        }


@dataclass
class CrashDrillOutcome(DrillOutcome):
    """Everything one crash drill produced.

    All but the leaks are read at the end of the steps, before the drain.
    """

    #: Every injected controller crash's message, in firing order.
    crashes: List[str] = field(default_factory=list)
    #: §5.5 invariant violations.
    failures: List[str] = field(default_factory=list)
    #: Per-job checkpointed progress (``None``: no checkpoint yet).
    checkpoints: Dict[str, Optional[float]] = field(default_factory=dict)
    #: Labelled counts, in display order.
    summary: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_crash_drill(
    config: CrashDrillConfig, tracer: Optional[Tracer] = None, prefix: str = "job"
) -> CrashDrillOutcome:
    """Execute one crash drill end to end (see the module docstring).

    A soak passes its shared *tracer* and merges the returned jobs and
    leaks into its own accounting. *prefix* names the jobs.
    """
    tracer = tracer if tracer is not None else RecordingTracer()
    metrics = MetricsRegistry()
    api = APIServer()
    ttl = config.lease_ttl if config.lease_ttl > 0 else None
    fleet = DrillFleet(api, config, prefix, ttl, tracer)
    injector = None
    if config.crash_point:
        injector = CrashPointInjector([ControllerCrash(config.crash_point)])
    loop = _controller(api, config, tracer, metrics, crash_points=injector)
    dead_node = (
        fleet.node_names[config.expire_node] if 0 <= config.expire_node < config.servers else None
    )
    crashes: List[str] = []
    at_crash: Dict[str, float] = {}

    def recover(dead: ControlLoop, exc: ControllerCrashed) -> ControlLoop:
        # The restarted controller rebuilds everything from the store alone.
        crashes.append(str(exc))
        at_crash.update(fleet.progress)
        successor = _controller(api, config, tracer, metrics, start_step=dead.step_index)
        fleet.resume(successor.recover())
        return successor

    for _ in range(config.steps):
        now = float(loop.step_index)
        if ttl is not None:
            # The "dead" kubelet goes silent after step 0.
            fleet.heartbeat(now, loop.heartbeat, silent=dead_node if now >= 1 else None)
        try:
            fleet.step(loop)
        except ControllerCrashed as exc:
            loop = recover(loop, exc)
            fleet.step(loop)
        fleet.advance()

    failures = []
    pods = api.list_pods()
    orphans = [p.name for p in pods if p.job_id not in fleet.job_ids]
    if orphans:
        failures.append(f"orphaned pods: {orphans}")
    for node in api.list_nodes():
        bound = sum((p.demand for p in pods if p.node == node.name), start=cpu_mem(0, 0))
        if dict(node.allocated.items()) != dict(bound.items()):
            failures.append(f"node {node.name}: allocated {node.allocated} != bound {bound}")
    if dead_node is not None and ttl is not None:
        if not api.node(dead_node).cordoned:
            failures.append(f"dead node {dead_node} was never cordoned")
        on_dead = [p.name for p in pods if p.node == dead_node]
        if on_dead:
            failures.append(f"pods still on dead node: {on_dead}")
    checkpoints = {job_id: loop.controller.load_checkpoint(job_id) for job_id in fleet.job_ids}
    for job_id, progress in at_crash.items():
        saved = checkpoints[job_id]
        if saved is not None and progress - saved > STEPS_PER_INTERVAL:
            failures.append(f"{job_id}: lost {progress - saved:.0f} steps (> 1 interval)")
    counters = metrics.snapshot()["counters"]
    summary = {
        "steps run": config.steps,
        "controller crashes injected": len(crashes),
        "recoveries": len(crashes),
        "intents replayed": int(counters.get("loop.intents_replayed", 0)),
        "nodes cordoned": int(counters.get("loop.nodes_cordoned", 0)),
        "lease renewals": int(counters.get("lease.renewals", 0)),
        "pods running": len(pods),
        "invariants": "FAIL" if failures else "ok",
    }

    # Shutdown: the crash point may fire on the first real teardown, which
    # can be the drain itself -- recover and finish it, the §5.5 contract.
    try:
        loop.drain(progress=dict(fleet.progress))
    except ControllerCrashed as exc:
        loop = recover(loop, exc)
        loop.drain(progress=dict(fleet.progress))
    return CrashDrillOutcome(
        config,
        list(fleet.job_ids),
        crashes=crashes,
        failures=failures,
        checkpoints=checkpoints,
        summary=summary,
        **fleet.leaks(loop.controller),
    )


@dataclass
class FailoverOutcome(DrillOutcome):
    """Everything one failover drill produced."""

    #: Per-takeover ``first schedule - lease expiry``, in step units.
    takeover_latencies: List[float] = field(default_factory=list)
    #: Stale writes rejected by the fence across every deposed loop.
    fenced_writes: int = 0
    #: The highest fencing epoch minted (== number of reigns).
    final_epoch: int = 0
    events: List[Dict] = field(default_factory=list)
    checker: Optional[InvariantChecker] = None
    report: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return self.checker is None or self.checker.ok


def run_failover_drill(
    config: FailoverConfig,
    tracer: Optional[Tracer] = None,
    trace_out: Optional[str] = None,
) -> FailoverOutcome:
    """Execute one failover drill end to end.

    Standalone (*tracer* unset), the drill records its own trace (written
    to *trace_out* if given), emits the terminal ``run_completed``
    accounting event and audits the stream with an
    :class:`InvariantChecker` whose ``failover_bound`` is 2x the lease TTL
    (the acceptance bound on takeover latency). A soak passes its shared
    *tracer* instead and merges the returned jobs and leaks into its own
    accounting.
    """
    own_tracer = tracer is None
    if own_tracer:
        tracer = RecordingTracer()
    metrics = MetricsRegistry()
    store = KVStore()
    # Kubelets are not the controller: node registration and heartbeats go
    # through an unfenced API server and keep flowing during failovers.
    kubelet_api = APIServer(store)
    fleet = DrillFleet(kubelet_api, config, "ha", config.node_lease_ttl, tracer)
    loops: List[ControlLoop] = []

    def controller(start_step: int) -> ControlLoop:
        election = LeaderElection(
            store, f"ctrl-{len(loops)}", ttl=config.lease_ttl, tracer=tracer, metrics=metrics
        )
        loop = _controller(
            APIServer(store), config, tracer, metrics, start_step=start_step, election=election
        )
        loops.append(loop)
        return loop

    def standby_tick() -> Optional[Dict[str, float]]:
        # The kubelets ping first; then the standby polls for a vacant seat.
        fleet.heartbeat(now, kubelet_api.heartbeat_node)
        return standby.standby_tick(now)

    now = 0.0
    active = controller(start_step=0)
    if active.standby_tick(now) is None:
        raise SimulationError("the bootstrap election must win a vacant seat")
    standby = controller(start_step=0)
    takeover_latencies: List[float] = []

    for wave in range(config.kills):
        # -- the reign: leader drives, standby idles ------------------------------
        for _ in range(config.steps_before):
            if standby_tick() is not None:
                raise SimulationError("standby won against a live leader")
            fleet.step(active)
            fleet.advance()
            now += 1.0
        # -- the kill -------------------------------------------------------------
        point = config.crash_point
        if point == CRASH_MID_STEP_DEPOSED:
            # Deposed mid-step: the lease is severed at t=now, so the
            # vacancy opens immediately and the reconcile writes are
            # fenced. The zombie then tries to drain -- fenced again.
            active.crash_points = CrashPointInjector([ControllerCrash(point)])
            standby_tick()
            with suppress(StaleLeaderError):
                fleet.step(active)
                raise SimulationError("a severed leader's step must be fenced")
            with suppress(StaleLeaderError):
                active.drain(progress=dict(fleet.progress))  # the post-mortem write must bounce
            lease_expiry = now
            now += 1.0
        elif point in RECONCILE_CRASH_POINTS:
            # Died mid-write with a torn intent; the lease was renewed at
            # step entry, so it lives another full TTL past the crash.
            # Reconcile crash points only fire on an actual rescale, so the
            # drill forces one: drop a victim job from the views (its
            # teardown fires the checkpoint/teardown points) and, if the
            # scripted point is a launch one, re-add it next step (the
            # relaunch fires it).
            active.controller.crash_points = CrashPointInjector(
                [ControllerCrash(point)]
            )
            victim = fleet.job_ids[wave % len(fleet.job_ids)]
            crashed = False
            for attempt in range(4):
                standby_tick()
                try:
                    fleet.step(active, without=victim if attempt % 2 == 0 else None)
                except ControllerCrashed:
                    crashed = True
                    break
                fleet.advance()
                now += 1.0
            if not crashed:
                raise SimulationError(f"crash point {point!r} never fired")
            lease_expiry = now + config.lease_ttl
            now += 1.0
        else:
            # Silent death (and the election crash points, which script
            # the *successor*): the leader just stops; its last renewal
            # was its final step at now - 1.
            if point is not None:
                standby.crash_points = CrashPointInjector(
                    [ControllerCrash(point)]
                )
            lease_expiry = (now - 1.0) + config.lease_ttl
        # -- the takeover ---------------------------------------------------------
        recovered: Optional[Dict[str, float]] = None
        guard = now + 4.0 * config.lease_ttl + 8.0
        while recovered is None:
            if now > guard:
                raise SimulationError(
                    f"no takeover within {guard} steps (wave {wave})"
                )
            try:
                recovered = standby_tick()
            except ControllerCrashed:
                # The successor died at its scripted election crash
                # point; a replacement candidate finishes the job. A
                # winner that died after_elected holds the seat until
                # its own (just-granted) lease lapses.
                if standby.role == "leader":
                    lease_expiry = now + config.lease_ttl
                standby = controller(start_step=int(now))
            if recovered is None:
                now += 1.0
        fleet.resume(recovered)
        active = standby
        # First post-recovery schedule: this step completing is the far
        # edge of the takeover-latency window.
        fleet.step(active)
        takeover_latencies.append(now - lease_expiry)
        fleet.advance()
        now += 1.0
        standby = controller(start_step=int(now))

    # -- steady state under the final leader, then shutdown ----------------------
    for _ in range(config.steps_after):
        standby_tick()
        fleet.step(active)
        fleet.advance()
        now += 1.0
    active.drain(progress=dict(fleet.progress))
    active.election.resign(now)

    # -- leak accounting (through the unfenced kubelet view) ----------------------
    leaks = fleet.leaks(active.controller)
    for loop in loops:
        election = loop.election
        if election._lease_id is not None and store.has_lease(election._lease_id):
            leaks["leaked_leases"].append(f"election:{election.candidate}")
    leaks["leaked_leases"].sort()
    # Every controller writes through its own fenced store.
    fenced_writes = sum(loop.api.store.fenced_writes for loop in loops)
    final_epoch = int(store.get(EPOCH_KEY) or 0)

    checker = None
    report = None
    if own_tracer:
        tracer.emit(EVENT_RUN_COMPLETED, now, finished=[], unfinished=fleet.job_ids, **leaks)
        if trace_out:
            with open(trace_out, "w", encoding="utf8") as stream:
                for event in tracer.events:
                    stream.write(json.dumps(event, separators=(",", ":")) + "\n")
        checker = InvariantChecker(
            CheckerConfig(
                require_accounting=True,
                strict_end=True,
                failover_bound=2.0 * config.lease_ttl,
            )
        )
        checker.observe_all(tracer.events)
        checker.finish()
        report = checker.report(
            extra={
                "drill": "failover",
                "seed": config.seed,
                "crash_point": config.crash_point,
                "kills": config.kills,
                "lease_ttl": config.lease_ttl,
                "takeover_latencies": takeover_latencies,
                "fenced_writes": fenced_writes,
                "final_epoch": final_epoch,
            }
        )

    return FailoverOutcome(
        config,
        list(fleet.job_ids),
        takeover_latencies=takeover_latencies,
        fenced_writes=fenced_writes,
        final_epoch=final_epoch,
        events=list(getattr(tracer, "events", [])),
        checker=checker,
        report=report,
        **leaks,
    )
