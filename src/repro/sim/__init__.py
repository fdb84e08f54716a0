"""Discrete-time cluster simulator and experiment harness (§6)."""

from repro.sim.background import (
    LoadProfile,
    constant_load,
    diurnal_load,
    step_load,
)
from repro.sim.arena import (
    ArenaReport,
    PolicyScore,
    format_arena,
    jain_index,
    run_arena,
    score_result,
)
from repro.sim.engine import (
    SimConfig,
    Simulation,
    simulate,
)
from repro.sim.manifest import (
    config_digest,
    manifest_path_for,
    run_manifest,
    write_manifest,
)
from repro.sim.soak import (
    ScenarioSpec,
    SoakOutcome,
    build_fault_plan,
    build_workload,
    load_scenario,
    perturbation_from_spec,
    run_soak,
)
from repro.sim.experiment import (
    SchedulerStats,
    compare_schedulers,
    format_comparison,
    normalized,
    run_repeats,
)
from repro.sim.metrics import (
    JobRecord,
    SimulationResult,
    TimeSlot,
    aggregate_results,
)
from repro.sim.runtime import RuntimeJob, ScalingCosts
from repro.sim.stragglers import (
    StragglerConfig,
    StragglerEpisode,
    StragglerInjector,
    degraded_speed,
    effective_interval_speed,
)

__all__ = [
    "ArenaReport",
    "PolicyScore",
    "format_arena",
    "jain_index",
    "run_arena",
    "score_result",
    "LoadProfile",
    "constant_load",
    "diurnal_load",
    "step_load",
    "SimConfig",
    "Simulation",
    "simulate",
    "SimulationResult",
    "JobRecord",
    "TimeSlot",
    "aggregate_results",
    "RuntimeJob",
    "ScalingCosts",
    "StragglerConfig",
    "StragglerEpisode",
    "StragglerInjector",
    "degraded_speed",
    "effective_interval_speed",
    "SchedulerStats",
    "run_repeats",
    "compare_schedulers",
    "config_digest",
    "manifest_path_for",
    "run_manifest",
    "write_manifest",
    "ScenarioSpec",
    "SoakOutcome",
    "build_fault_plan",
    "build_workload",
    "load_scenario",
    "perturbation_from_spec",
    "run_soak",
    "normalized",
    "format_comparison",
]
