"""Trace-stream invariant checking for long-horizon soak runs.

The scenario engine and chaos orchestrator live in :mod:`repro.sim.soak`;
this package audits what they (or any ``--trace-out`` run) emit: a
streaming checker over the JSONL event stream asserting no job is ever
lost, no pod/lease/intent leaks past teardown, failed nodes recover
within bounds, checkpoints never regress, and every span tree closes --
plus a self-test that seeds violations and proves they are detected.
"""

from repro.common.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".checker": (
            "REPORT_VERSION", "CheckerConfig", "InvariantChecker", "Violation", "check_events",
            "check_trace_file",
        ),
        ".selftest": ("SELFTEST_SCENARIO", "run_selftest"),
    },
)
