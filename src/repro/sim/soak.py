"""Long-horizon soak scenarios: workload mixes + chaos orchestration.

A *scenario* is a small JSON document describing everything a multi-day
chaos run needs: a workload mix built from pluggable arrival processes
(diurnal, bursty/spike, Poisson, uniform, Google-trace-like, or replayed
from a JSON/CSV trace file), the stochastic fault rates, scripted *fault
waves* (windows of elevated node-crash intensity, expanded into seeded
:class:`~repro.faults.plan.NodeCrash` entries), an estimator perturbation
(step / ramp / sine speed multiplier), and an optional control-plane
*drill* phase run after the simulation: :func:`repro.deploy.run_crash_drill`
or, with ``"kind": "failover"``, :func:`repro.deploy.run_failover_drill`.
The block's other keys are that drill config's fields; anything else is
rejected when the scenario is loaded (:func:`repro.deploy.drill.drill_config`).

:func:`run_soak` executes the scenario end to end against one shared
trace stream, closes the run with a terminal ``run_completed`` accounting
event (which jobs finished, which are legitimately unfinished, and any
pods/leases/intents still held after teardown), then audits the whole
stream with the :mod:`repro.soak` invariant checker and writes the
machine-readable violation report and the reproducibility manifest.

Scenario format (all sections optional except ``workload``)::

    {
      "name": "soak-48h", "seed": 0, "policy": "optimus",
      "servers": 13, "horizon": 172800,
      "interval": 600, "checkpoint_interval": 1800,
      "workload": [
        {"arrivals": "diurnal", "jobs": 36, "duration": 150000},
        {"arrivals": "bursty", "jobs": 8, "offset": 108000,
         "spike_times": [0.0], "background_fraction": 0.0}
      ],
      "faults": {"node_mtbf": 30000, "task_crash_rate": 0.002,
                 "checkpoint_loss_rate": 0.05},
      "fault_waves": [{"start": 43200, "end": 50400, "crashes": 3,
                       "downtime": 1800}],
      "plan": {"node_crashes": [{"time": 900, "server": "node-1",
                                 "duration": 900}]},
      "perturbation": {"kind": "step", "at": 86400, "factor": 0.75},
      "drill": {"crash_point": "after_teardown", "jobs": 3, "steps": 6},
      "checker": {"recovery_slack": 1800, "strict_end": true}
    }
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rand import RandomSource
from repro.deploy.drill import (
    FailoverConfig,
    drill_config,
    run_crash_drill,
    run_failover_drill,
)
from repro.faults.config import FaultConfig
from repro.faults.plan import CheckpointLoss, FaultPlan, NodeCrash, TaskCrash
from repro.obs.tracer import EVENT_RUN_COMPLETED, RecordingTracer
from repro.sim.engine import SimConfig, simulate
from repro.sim.manifest import manifest_path_for, run_manifest, write_manifest
from repro.sim.metrics import SimulationResult
from repro.soak.checker import CheckerConfig, InvariantChecker
from repro.workloads.arrivals import (
    bursty_arrivals,
    diurnal_arrivals,
    google_trace_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.workloads.job import JobSpec

#: Named arrival processes a workload group may use; ``trace`` and ``csv``
#: replay a file (``path``) instead of generating.
ARRIVAL_KINDS = ("uniform", "poisson", "google", "diurnal", "bursty", "trace", "csv")

_GENERATORS: Dict[str, Callable[..., List[JobSpec]]] = {
    "uniform": uniform_arrivals,
    "poisson": poisson_arrivals,
    "google": google_trace_arrivals,
    "diurnal": diurnal_arrivals,
    "bursty": bursty_arrivals,
}

#: Group keys consumed by the scenario engine itself (everything else is
#: passed through to the arrival generator).
_GROUP_CONTROL_KEYS = ("arrivals", "jobs", "offset", "prefix", "seed", "path")

PERTURBATION_KINDS = ("step", "ramp", "sine")

#: The scripted faults a scenario's ``plan`` section may list (the ones
#: :func:`build_fault_plan` reads).
PLAN_KEYS = ("node_crashes", "task_crashes", "checkpoint_losses")


def _reject_unknown_keys(spec: Dict, known: List[str], where: str) -> None:
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ConfigurationError(
            f"{where} has unknown key(s): {', '.join(unknown)} "
            f"(known: {', '.join(known)})"
        )


def _number(spec: Dict, key: str, where: str, default=None, minimum=None):
    value = spec.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"{where}: {key!r} must be a number, got {value!r}"
        )
    if minimum is not None and value < minimum:
        raise ConfigurationError(
            f"{where}: {key!r} must be >= {minimum}, got {value}"
        )
    return float(value)


@dataclass(frozen=True)
class ScenarioSpec:
    """A validated soak scenario (see the module docstring for the format)."""

    name: str = "soak"
    seed: int = 0
    policy: str = "optimus"
    servers: int = 13
    horizon: float = 86_400.0
    interval: float = 600.0
    checkpoint_interval: Optional[float] = None
    estimator: str = "online"
    workload: Tuple[Dict, ...] = ()
    faults: Dict = field(default_factory=dict)
    fault_waves: Tuple[Dict, ...] = ()
    plan: Dict = field(default_factory=dict)
    perturbation: Optional[Dict] = None
    drill: Optional[Dict] = None
    checker: Dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, spec: Dict) -> "ScenarioSpec":
        if not isinstance(spec, dict):
            raise ConfigurationError(
                f"scenario must be an object, got {type(spec).__name__}"
            )
        known = [f.name for f in dataclasses.fields(cls)]
        _reject_unknown_keys(spec, known, "scenario")
        workload = spec.get("workload")
        if not isinstance(workload, list) or not workload:
            raise ConfigurationError(
                "scenario needs a non-empty 'workload' list of arrival groups"
            )
        for i, group in enumerate(workload):
            if not isinstance(group, dict):
                raise ConfigurationError(
                    f"workload group {i} must be an object, "
                    f"got {type(group).__name__}"
                )
            kind = group.get("arrivals")
            if kind not in ARRIVAL_KINDS:
                raise ConfigurationError(
                    f"workload group {i}: 'arrivals' must be one of "
                    f"{ARRIVAL_KINDS}, got {kind!r}"
                )
            if kind in ("trace", "csv") and not group.get("path"):
                raise ConfigurationError(
                    f"workload group {i}: arrivals={kind!r} needs a 'path'"
                )
        perturbation = spec.get("perturbation")
        if perturbation is not None:
            if not isinstance(perturbation, dict):
                raise ConfigurationError("scenario 'perturbation' must be an object")
            if perturbation.get("kind") not in PERTURBATION_KINDS:
                raise ConfigurationError(
                    "perturbation 'kind' must be one of "
                    f"{PERTURBATION_KINDS}, got {perturbation.get('kind')!r}"
                )
        for section in ("faults", "plan", "checker"):
            if not isinstance(spec.get(section, {}), dict):
                raise ConfigurationError(f"scenario {section!r} must be an object")
        _reject_unknown_keys(
            spec.get("faults", {}),
            [f.name for f in dataclasses.fields(FaultConfig)],
            "scenario 'faults'",
        )
        _reject_unknown_keys(spec.get("plan", {}), list(PLAN_KEYS), "scenario 'plan'")
        _reject_unknown_keys(
            spec.get("checker", {}),
            [f.name for f in dataclasses.fields(CheckerConfig)],
            "scenario 'checker'",
        )
        waves = spec.get("fault_waves", [])
        if not isinstance(waves, list):
            raise ConfigurationError("scenario 'fault_waves' must be a list")
        drill = spec.get("drill")
        if drill is not None and not isinstance(drill, dict):
            raise ConfigurationError("scenario 'drill' must be an object")
        seed = spec.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigurationError(f"scenario 'seed' must be an integer, got {seed!r}")
        horizon = _number(spec, "horizon", "scenario", default=86_400.0, minimum=1.0)
        interval = _number(spec, "interval", "scenario", default=600.0, minimum=1.0)
        checkpoint = _number(spec, "checkpoint_interval", "scenario", minimum=1.0)
        servers = spec.get("servers", 13)
        if isinstance(servers, bool) or not isinstance(servers, int) or servers < 1:
            raise ConfigurationError(
                f"scenario 'servers' must be a positive integer, got {servers!r}"
            )
        if drill:
            drill_config(drill, seed, str(spec.get("policy", "optimus")))
        return cls(
            name=str(spec.get("name", "soak")),
            seed=seed,
            policy=str(spec.get("policy", "optimus")),
            servers=servers,
            horizon=horizon,
            interval=interval,
            checkpoint_interval=checkpoint,
            estimator=str(spec.get("estimator", "online")),
            workload=tuple(dict(g) for g in workload),
            faults=dict(spec.get("faults", {})),
            fault_waves=tuple(dict(w) for w in waves),
            plan=dict(spec.get("plan", {})),
            perturbation=dict(perturbation) if perturbation else None,
            drill=dict(drill) if drill else None,
            checker=dict(spec.get("checker", {})),
        )

    def to_dict(self) -> Dict:
        """The scenario as plain JSON (embedded in the run manifest)."""
        out = dataclasses.asdict(self)
        out["workload"] = [dict(g) for g in self.workload]
        out["fault_waves"] = [dict(w) for w in self.fault_waves]
        return out


def load_scenario(path: str) -> ScenarioSpec:
    """Read and validate a scenario spec file."""
    with open(path, encoding="utf8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"scenario file {path!r} is not valid JSON: {exc}"
            ) from None
    return ScenarioSpec.from_dict(payload)


# -- workload ---------------------------------------------------------------------
def build_workload(scenario: ScenarioSpec) -> List[JobSpec]:
    """Expand the scenario's workload groups into one merged job list.

    Each group's jobs are re-prefixed (``g<i>-``) so mixes never collide
    on job ids, and shifted by the group's ``offset`` seconds -- an
    arrival *spike* is simply a bursty group offset into the run.
    """
    merged: List[JobSpec] = []
    for i, group in enumerate(scenario.workload):
        kind = group["arrivals"]
        where = f"workload group {i}"
        offset = _number(group, "offset", where, default=0.0, minimum=0.0)
        prefix = str(group.get("prefix") or f"g{i}")
        if kind in ("trace", "csv"):
            if kind == "trace":
                from repro.workloads.trace import load_trace

                jobs = load_trace(group["path"])
            else:
                from repro.workloads.csvtrace import load_csv_trace

                jobs = load_csv_trace(group["path"])
        else:
            kwargs = {
                k: v for k, v in group.items() if k not in _GROUP_CONTROL_KEYS
            }
            if "jobs" in group:
                kwargs["num_jobs"] = group["jobs"]
            kwargs["seed"] = group.get("seed", scenario.seed + 7919 * (i + 1))
            try:
                jobs = _GENERATORS[kind](**kwargs)
            except TypeError as exc:
                raise ConfigurationError(f"{where}: {exc}") from None
        merged.extend(
            dataclasses.replace(
                job,
                job_id=f"{prefix}-{job.job_id}",
                arrival_time=job.arrival_time + offset,
            )
            for job in jobs
        )
    merged.sort(key=lambda j: (j.arrival_time, j.job_id))
    return merged


# -- chaos orchestration ----------------------------------------------------------
def build_fault_plan(scenario: ScenarioSpec) -> Optional[FaultPlan]:
    """Compose the scripted fault schedule: explicit plan + seeded waves.

    A *fault wave* is a window of elevated failure intensity: ``crashes``
    node crashes at seeded instants inside ``[start, end)``, each taking a
    distinct server down for ``downtime`` seconds (a number, or a
    ``[lo, hi]`` range sampled per crash).
    """
    plan = scenario.plan
    node_crashes = [
        NodeCrash(c["time"], c["server"], c["duration"])
        for c in plan.get("node_crashes", ())
    ]
    task_crashes = [
        TaskCrash(c["time"], c["job_id"]) for c in plan.get("task_crashes", ())
    ]
    checkpoint_losses = [
        CheckpointLoss(c["time"], c["job_id"])
        for c in plan.get("checkpoint_losses", ())
    ]

    names = [f"node-{i}" for i in range(scenario.servers)]
    for i, wave in enumerate(scenario.fault_waves):
        where = f"fault wave {i}"
        start = _number(wave, "start", where, default=0.0, minimum=0.0)
        end = _number(wave, "end", where, minimum=0.0)
        if end is None or end <= start:
            raise ConfigurationError(f"{where}: needs 'end' > 'start'")
        crashes = wave.get("crashes", 1)
        if isinstance(crashes, bool) or not isinstance(crashes, int) or crashes < 1:
            raise ConfigurationError(
                f"{where}: 'crashes' must be a positive integer, got {crashes!r}"
            )
        downtime = wave.get("downtime", 1800.0)
        rng = RandomSource(scenario.seed).child(f"fault-wave-{i}").rng
        # Distinct servers per wave: a wave models correlated rack-level
        # trouble, and the injector skips crashes on already-down nodes.
        count = min(crashes, len(names))
        if count < crashes:
            raise ConfigurationError(
                f"{where}: {crashes} crashes but only {len(names)} servers"
            )
        picks = rng.choice(len(names), size=count, replace=False)
        for server_idx in picks:
            at = float(rng.uniform(start, end))
            if isinstance(downtime, (list, tuple)):
                lo, hi = float(downtime[0]), float(downtime[1])
                down = float(rng.uniform(lo, hi)) if hi > lo else lo
            else:
                down = float(downtime)
            node_crashes.append(NodeCrash(at, names[int(server_idx)], down))

    if not (node_crashes or task_crashes or checkpoint_losses):
        return None
    return FaultPlan(
        node_crashes=tuple(node_crashes),
        task_crashes=tuple(task_crashes),
        checkpoint_losses=tuple(checkpoint_losses),
    )


def perturbation_from_spec(spec: Optional[Dict]) -> Optional[Callable[[float], float]]:
    """Build the ``t -> speed multiplier`` chaos knob from its spec."""
    if spec is None:
        return None
    kind = spec["kind"]
    if kind == "step":
        at = _number(spec, "at", "perturbation", default=0.0, minimum=0.0)
        factor = _number(spec, "factor", "perturbation", default=0.5, minimum=0.0)

        def step_perturbation(t: float) -> float:
            return factor if t >= at else 1.0

        return step_perturbation
    if kind == "ramp":
        start = _number(spec, "start", "perturbation", default=0.0, minimum=0.0)
        end = _number(spec, "end", "perturbation", minimum=0.0)
        factor = _number(spec, "factor", "perturbation", default=0.5, minimum=0.0)
        if end is None or end <= start:
            raise ConfigurationError("ramp perturbation needs 'end' > 'start'")

        def ramp_perturbation(t: float) -> float:
            if t <= start:
                return 1.0
            if t >= end:
                return factor
            return 1.0 + (factor - 1.0) * (t - start) / (end - start)

        return ramp_perturbation
    # sine
    period = _number(spec, "period", "perturbation", default=86_400.0, minimum=1.0)
    amplitude = _number(spec, "amplitude", "perturbation", default=0.2, minimum=0.0)
    if amplitude >= 1.0:
        raise ConfigurationError("sine perturbation 'amplitude' must be < 1")
    import math

    def sine_perturbation(t: float) -> float:
        return 1.0 + amplitude * math.sin(2.0 * math.pi * t / period)

    return sine_perturbation


def checker_config_from_spec(
    spec: Dict, interval: float = 600.0
) -> CheckerConfig:
    """The scenario's ``checker`` section as a :class:`CheckerConfig`.

    Soak runs default to ``require_accounting=True`` (the runner always
    emits the terminal accounting event) and a recovery slack of three
    intervals (recoveries land on interval boundaries).
    """
    defaults = CheckerConfig()
    return CheckerConfig(
        recovery_slack=spec.get("recovery_slack", max(3 * interval, defaults.recovery_slack)),
        rollback_bound=spec.get("rollback_bound"),
        stall_bound=spec.get("stall_bound"),
        require_accounting=spec.get("require_accounting", True),
        strict_end=spec.get("strict_end", True),
        failover_bound=spec.get("failover_bound"),
    )


# -- the runner -------------------------------------------------------------------
class _SoakTracer(RecordingTracer):
    """Records every event in memory and (optionally) streams it to JSONL.

    One tracer spans both phases (simulation + drill), so ``seq`` stays
    strictly monotonic across the whole stream -- the property the
    checker's ``seq-monotonic`` invariant rides on.
    """

    def __init__(self, path: Optional[str] = None):
        super().__init__()
        self._stream = open(path, "w", encoding="utf8") if path else None

    def _record(self, payload: Dict) -> None:
        super()._record(payload)
        if self._stream is not None:
            self._stream.write(json.dumps(payload, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._stream is not None:
            self._stream.flush()
            self._stream.close()
            self._stream = None


@dataclass
class SoakOutcome:
    """Everything one soak run produced."""

    scenario: ScenarioSpec
    result: SimulationResult
    events: List[Dict]
    checker: InvariantChecker
    report: Dict
    manifest: Dict
    trace_path: Optional[str] = None
    report_path: Optional[str] = None
    manifest_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.checker.ok

    @property
    def violations(self):
        return self.checker.violations


def run_soak(
    scenario: ScenarioSpec,
    trace_out: Optional[str] = None,
    report_out: Optional[str] = None,
    manifest_out: Optional[str] = None,
    checker_config: Optional[CheckerConfig] = None,
) -> SoakOutcome:
    """Execute a scenario end to end and audit its trace stream.

    Runs the simulation phase (workload mix + faults + waves +
    perturbation), then the optional drill phase, emits the terminal
    ``run_completed`` accounting event, checks every stream invariant and
    writes the violation report (``report_out``) and the reproducibility
    manifest (next to ``trace_out``, or ``manifest_out``).
    """
    from repro.cluster import Cluster, cpu_mem

    jobs = build_workload(scenario)
    fault_plan = build_fault_plan(scenario)
    config = SimConfig(
        seed=scenario.seed,
        interval=scenario.interval,
        max_time=scenario.horizon,
        estimator_mode=scenario.estimator,
        checkpoint_interval=scenario.checkpoint_interval,
        faults=FaultConfig(**scenario.faults) if scenario.faults else FaultConfig(),
        speed_perturbation=perturbation_from_spec(scenario.perturbation),
    )
    cluster = Cluster.homogeneous(scenario.servers, cpu_mem(16, 80))

    tracer = _SoakTracer(trace_out)
    try:
        result = simulate(
            cluster,
            scenario.policy,
            jobs,
            config,
            tracer=tracer,
            fault_plan=fault_plan,
        )

        finished = sorted(
            job_id for job_id, rec in result.jobs.items() if rec.finished
        )
        unfinished = sorted(
            job_id for job_id, rec in result.jobs.items() if not rec.finished
        )
        leaks = {"leaked_pods": [], "leaked_leases": [], "leaked_intents": []}
        if scenario.drill is not None:
            # The drill shares the tracer, so the checker audits its events
            # (elections included) in the one stream. Its jobs are drained
            # (torn down at checkpoint), not converged: legitimately
            # unfinished, but still on the no-lost-jobs hook.
            drill = drill_config(scenario.drill, scenario.seed, scenario.policy)
            if isinstance(drill, FailoverConfig):
                outcome = run_failover_drill(drill, tracer=tracer)
            else:
                outcome = run_crash_drill(drill, tracer=tracer, prefix="drill")
            unfinished.extend(outcome.jobs)
            leaks = outcome.leaks()
        tracer.emit(
            EVENT_RUN_COMPLETED,
            scenario.horizon,
            finished=finished,
            unfinished=sorted(unfinished),
            **leaks,
        )
    finally:
        tracer.close()

    events = tracer.events
    cfg = checker_config or checker_config_from_spec(
        scenario.checker, interval=scenario.interval
    )
    checker = InvariantChecker(cfg)
    checker.observe_all(events)
    checker.finish()

    manifest = run_manifest(
        config=config,
        policy=scenario.policy,
        jobs=jobs,
        fault_plan=fault_plan,
        scenario=scenario.to_dict(),
        extra={"trace": trace_out, "drill": scenario.drill is not None},
    )
    manifest_path = manifest_out or (
        manifest_path_for(trace_out) if trace_out else None
    )
    if manifest_path:
        write_manifest(manifest_path, manifest)

    summary = result.summary()
    report = checker.report(
        extra={
            "scenario": scenario.name,
            "seed": scenario.seed,
            "policy": scenario.policy,
            "sim": {
                "jobs": int(summary["jobs"]),
                "finished": int(summary["finished"]),
                "makespan": summary["makespan"],
                "average_jct": summary["average_jct"],
            },
        }
    )
    report_path = None
    if report_out:
        with open(report_out, "w", encoding="utf8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        report_path = report_out

    return SoakOutcome(
        scenario=scenario,
        result=result,
        events=events,
        checker=checker,
        report=report,
        manifest=manifest,
        trace_path=trace_out,
        report_path=report_path,
        manifest_path=manifest_path,
    )
