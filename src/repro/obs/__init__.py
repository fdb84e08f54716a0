"""Structured observability: tracing, spans, metrics, estimator telemetry.

The schedulers in this repository make one decision per scheduling
interval; understanding *why* a decision was made and *where* interval
time goes requires telemetry the paper's evaluation (and every perf PR
here) leans on. This package provides that substrate with zero external
dependencies:

* :mod:`repro.obs.tracer` -- typed JSONL event tracing
  (``job_arrived`` .. ``estimator_drift``); off by default via
  :data:`NULL_TRACER`.
* :mod:`repro.obs.spans` -- the one timing mechanism: each scheduling
  interval / control-loop step is a span tree (``interval`` -> ``fit`` /
  ``snapshot`` / ``schedule`` -> ``allocate`` / ``place`` / ``progress``
  -> ``rescale``) whose closed spans feed the ``phase.<name>``
  histograms (read back as the run's ``phase_timings``) and, when
  traced, ``span`` events on the same stream; off by default via
  :data:`NULL_SPAN_TRACER`.
* :mod:`repro.obs.estimators` -- predicted-vs-actual tracking for the §3
  online models: per-job and fleet MAPE, signed bias, and a windowed
  drift detector that flags stale estimators.
* :mod:`repro.obs.registry` -- counters, gauges and fixed-bucket
  histograms (with interpolated quantiles); off by default via
  :data:`NULL_REGISTRY`.
* :mod:`repro.obs.fold` -- one pass over a trace into per-job and
  per-run state (allocations, arrival/completion, estimator error as
  ``SignalStats``, control-plane and decision-ledger tallies); the trace
  readers below render from it.
* :mod:`repro.obs.export` -- Prometheus text exposition and the
  ``repro top`` cluster/job table.
* :mod:`repro.obs.summarize` -- turn a trace file into per-phase time
  breakdowns, span flame trees, estimator reports and per-job timelines.
* :mod:`repro.obs.ledger` -- the scheduler decision ledger: compact
  ``decision`` events (grants with marginal gain and runner-up gap,
  denial reasons, placement provenance) with a sampling/budget knob;
  off by default via :data:`NULL_LEDGER`.
* :mod:`repro.obs.explain` -- replay a ledger into per-job timelines
  (``repro explain``) and align two runs to find the first divergent
  decision per job (``repro trace diff``).
"""

from repro.common.exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".tracer": (
            "Tracer", "NullTracer", "RecordingTracer", "JsonlTracer", "NULL_TRACER", "read_trace",
            "read_trace_tolerant", "EVENT_TYPES", "EVENT_JOB_ARRIVED", "EVENT_ALLOCATION_DECIDED",
            "EVENT_PLACEMENT_DECIDED", "EVENT_JOB_RESCALED", "EVENT_STRAGGLER_DETECTED",
            "EVENT_JOB_COMPLETED", "EVENT_INTERVAL_TICK", "EVENT_NODE_FAILED",
            "EVENT_NODE_RECOVERED", "EVENT_TASK_CRASHED", "EVENT_JOB_RESTARTED", "EVENT_KV_RETRY",
            "EVENT_KV_RETRY_EXHAUSTED", "EVENT_RESCALE_ROLLED_BACK", "EVENT_CHECKPOINT_MISSING",
            "EVENT_NODE_CORDONED", "EVENT_NODE_LEASE_RENEWED", "EVENT_INTENT_REPLAYED",
            "EVENT_SPAN", "EVENT_ESTIMATOR_SAMPLE", "EVENT_ESTIMATOR_DRIFT",
            "EVENT_CHECKPOINT_RECORDED", "EVENT_LEADER_ELECTED", "EVENT_LEADER_DEPOSED",
            "EVENT_WRITE_FENCED", "EVENT_NODE_LEASE_REGRANT", "EVENT_DECISION",
        ),
        ".ledger": (
            "DecisionLedger", "NullDecisionLedger", "NULL_LEDGER", "LEDGER_MODES", "DENIAL_REASONS",
            "active_ledger", "install_ledger", "use_ledger",
        ),
        ".explain": (
            "describe_decision", "explain_job", "explain_trace", "trace_diff", "format_trace_diff",
        ),
        ".spans": (
            "Span", "SpanTracer", "NullSpanTracer", "NULL_SPAN_TRACER", "span_tracer_for",
            "phase_timings",
        ),
        ".estimators": (
            "EstimatorTelemetry", "NullEstimatorTelemetry", "NULL_ESTIMATOR_TELEMETRY",
            "estimator_telemetry_for", "SignalStats", "SIGNAL_SPEED", "SIGNAL_REMAINING", "SIGNALS",
        ),
        ".registry": (
            "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry", "NULL_REGISTRY",
            "DEFAULT_TIME_BUCKETS", "active_registry", "install_registry", "use_registry",
            "quantile_from_snapshot",
        ),
        ".fold": ("fold_trace", "TraceFold", "JobFold"),
        ".export": ("render_prometheus", "render_top", "EXPORT_QUANTILES"),
        ".summarize": (
            "phase_breakdown", "summarize_trace", "summarize_file", "span_tree", "span_flame",
            "render_span_flame",
        ),
    },
)
