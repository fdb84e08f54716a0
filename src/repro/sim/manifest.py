"""Reproducibility manifests for simulation and soak runs.

A failed nightly soak is worthless unless it can be replayed exactly. The
manifest is a small JSON file written next to every ``--trace-out`` that
pins everything a replay needs: the seed, the policy, the
fault plan, a stable hash of the :class:`~repro.sim.engine.SimConfig`, the
workload size and the package version. ``repro soak`` additionally embeds
the scenario spec itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, Optional, Sequence

from repro.faults.plan import FaultPlan
from repro.sim.engine import SimConfig
from repro.workloads.job import JobSpec

MANIFEST_VERSION = 1


def manifest_path_for(trace_path: str) -> str:
    """The manifest file that belongs to *trace_path* (same directory)."""
    base, _ = os.path.splitext(trace_path)
    return base + ".manifest.json"


def _jsonable(value):
    """A JSON-safe, stable stand-in for one config field."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if callable(value):
        # Callables (background load, speed perturbation) cannot be
        # serialised; record *that* one was attached, stably.
        return f"<callable:{getattr(value, '__name__', 'lambda')}>"
    return repr(value)


def config_to_dict(config: SimConfig) -> Dict:
    """A stable JSON description of every :class:`SimConfig` knob."""
    return {
        f.name: _jsonable(getattr(config, f.name))
        for f in dataclasses.fields(config)
    }


def config_digest(config: SimConfig) -> str:
    """A short stable hash identifying a :class:`SimConfig` exactly."""
    payload = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf8")).hexdigest()[:16]


def fault_plan_to_dict(plan: Optional[FaultPlan]) -> Optional[Dict]:
    """Full, replayable JSON form of a scripted fault plan."""
    if plan is None or not plan:
        return None
    return {
        "node_crashes": [dataclasses.asdict(c) for c in plan.node_crashes],
        "task_crashes": [dataclasses.asdict(c) for c in plan.task_crashes],
        "checkpoint_losses": [
            dataclasses.asdict(c) for c in plan.checkpoint_losses
        ],
        "controller_crashes": [
            dataclasses.asdict(c) for c in plan.controller_crashes
        ],
    }


def run_manifest(
    *,
    config: Optional[SimConfig] = None,
    policy: str,
    engine: str = "simulator",
    seed: Optional[int] = None,
    jobs: Optional[Sequence[JobSpec]] = None,
    fault_plan: Optional[FaultPlan] = None,
    scenario: Optional[Dict] = None,
    extra: Optional[Dict] = None,
) -> Dict:
    """Everything needed to replay this run, as one JSON-ready dict.

    ``config`` may be omitted by runs that have no :class:`SimConfig`
    (the failover drill's control-plane loop); pass ``seed`` explicitly
    then, and the config hash/dump fields are null. ``engine`` tells
    simulator runs apart from control-loop drills (``"controlloop"``).
    """
    from repro import __version__

    manifest: Dict = {
        "manifest_version": MANIFEST_VERSION,
        "package_version": __version__,
        "seed": config.seed if config is not None else seed,
        "engine": engine,
        "policy": policy,
        "config_hash": config_digest(config) if config is not None else None,
        "config": config_to_dict(config) if config is not None else None,
        "fault_plan": fault_plan_to_dict(fault_plan),
    }
    if jobs is not None:
        manifest["workload"] = {
            "jobs": len(jobs),
            "first_arrival": min(j.arrival_time for j in jobs),
            "last_arrival": max(j.arrival_time for j in jobs),
        }
    if scenario is not None:
        manifest["scenario"] = scenario
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: str, manifest: Dict) -> str:
    """Write *manifest* to *path* (pretty-printed, stable key order)."""
    with open(path, "w", encoding="utf8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
