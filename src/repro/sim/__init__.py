"""Discrete-time cluster simulator and experiment harness (§6)."""

from repro.common.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".arena": (
            "ArenaReport", "PolicyScore", "format_arena", "jain_index", "run_arena", "score_result",
        ),
        ".background": ("LoadProfile", "constant_load", "diurnal_load", "step_load"),
        ".engine": ("SimConfig", "Simulation", "simulate"),
        ".metrics": ("SimulationResult", "JobRecord", "TimeSlot", "aggregate_results"),
        ".runtime": ("RuntimeJob", "ScalingCosts"),
        ".stragglers": (
            "StragglerConfig", "StragglerEpisode", "StragglerInjector", "degraded_speed",
            "effective_interval_speed",
        ),
        ".experiment": (
            "SchedulerStats", "run_repeats", "compare_schedulers", "normalized",
            "format_comparison",
        ),
        ".manifest": ("config_digest", "manifest_path_for", "run_manifest", "write_manifest"),
        ".soak": (
            "ScenarioSpec", "SoakOutcome", "build_fault_plan", "build_workload", "load_scenario",
            "perturbation_from_spec", "run_soak",
        ),
    },
)
