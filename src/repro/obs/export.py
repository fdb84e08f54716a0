"""Metrics export surfaces: Prometheus text exposition and ``repro top``.

Two operator-facing views of the same registry snapshot:

* :func:`render_prometheus` turns a :class:`MetricsRegistry` (or its
  ``snapshot()`` dict, e.g. a ``--metrics-out`` JSON file) into the
  Prometheus text exposition format -- counters as ``*_total``, gauges
  verbatim, histograms with cumulative ``_bucket{le=...}`` lines plus
  ``_sum``/``_count``, and interpolated p50/p95/p99 estimates as a
  ``*_quantile{quantile=...}`` gauge family. The ``repro metrics-export``
  subcommand wraps it so any scrape-based stack can ingest a run.
* :func:`render_top` renders the cluster/job state
  :func:`~repro.obs.fold.fold_trace` folds from a JSONL trace
  (optionally joined with a metrics snapshot) as the
  ``repro top`` table: active jobs, allocations, estimator MAPE per job,
  drift flags -- the "what is my cluster doing and can I trust its
  predictions" screen.

Everything here is read-only over artifacts other layers already
produce; rendering never needs the live simulation.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.estimators import SIGNAL_REMAINING, SIGNAL_SPEED, SignalStats
from repro.obs.fold import fold_trace
from repro.obs.registry import MetricsRegistry, quantile_from_snapshot
from repro.obs.tracer import (
    EVENT_CHECKPOINT_RECORDED,
    EVENT_LEADER_DEPOSED,
    EVENT_LEADER_ELECTED,
    EVENT_NODE_LEASE_REGRANT,
    EVENT_WRITE_FENCED,
)
from repro.report import format_table

#: Quantiles surfaced for every histogram (label value, estimator input).
EXPORT_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("0.5", 0.5),
    ("0.95", 0.95),
    ("0.99", 0.99),
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, namespace: str) -> str:
    """``engine.jobs_admitted`` -> ``repro_engine_jobs_admitted``."""
    sanitized = _NAME_RE.sub("_", name)
    prefix = _NAME_RE.sub("_", namespace)
    full = f"{prefix}_{sanitized}" if prefix else sanitized
    if full and full[0].isdigit():
        full = f"_{full}"
    return full


def _format_value(value: float) -> str:
    """Deterministic Prometheus sample rendering (ints without ``.0``)."""
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(
    source: Union[MetricsRegistry, Dict], namespace: str = "repro"
) -> str:
    """Render a registry (or its snapshot dict) as Prometheus text format.

    The output ends with a trailing newline, as the exposition format
    requires. Metric families are emitted in sorted registry-name order,
    so identical inputs produce byte-identical output (golden-testable).
    """
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    lines: List[str] = []

    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _metric_name(name, namespace) + "_total"
        lines.append(f"# HELP {metric} repro counter {name}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")

    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = _metric_name(name, namespace)
        lines.append(f"# HELP {metric} repro gauge {name}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")

    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        metric = _metric_name(name, namespace)
        lines.append(f"# HELP {metric} repro histogram {name}")
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bucket in hist.get("buckets", []):
            cumulative += bucket["count"]
            edge = bucket["le"]
            le = "+Inf" if edge == "inf" else _format_value(float(edge))
            lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{metric}_sum {_format_value(hist.get('sum', 0.0))}")
        lines.append(f"{metric}_count {hist.get('count', 0)}")
        quantile_metric = f"{metric}_quantile"
        lines.append(
            f"# HELP {quantile_metric} interpolated quantiles of {name}"
        )
        lines.append(f"# TYPE {quantile_metric} gauge")
        for label, q in EXPORT_QUANTILES:
            estimate = quantile_from_snapshot(hist, q)
            lines.append(
                f'{quantile_metric}{{quantile="{label}"}} '
                f"{_format_value(estimate)}"
            )

    return "\n".join(lines) + "\n"


# -- the ``repro top`` table ----------------------------------------------------


#: How ``repro top`` names each :data:`~repro.obs.fold.CONTROL_PLANE_EVENTS` tally.
_CONTROL_LABELS = {
    EVENT_LEADER_ELECTED: "elections",
    EVENT_LEADER_DEPOSED: "depositions",
    EVENT_WRITE_FENCED: "fenced_writes",
    EVENT_NODE_LEASE_REGRANT: "lease_regrants",
    EVENT_CHECKPOINT_RECORDED: "checkpoints",
}


def _percent(stats: SignalStats, empty: str, unit: str = "") -> str:
    """MAPE as a percentage, or *empty* when the signal has no samples."""
    return f"{100 * stats.mape:.1f}{unit}" if stats.count else empty


def render_top(
    events: Sequence[Dict],
    metrics_snapshot: Optional[Dict] = None,
    max_jobs: Optional[int] = None,
) -> str:
    """The ``repro top`` screen: cluster header plus the per-job table."""
    fold = fold_trace(events)
    jobs = fold.jobs
    tick = fold.last_tick

    lines: List[str] = []
    lines.append(
        f"cluster: {fold.ticks} interval(s), last t={fold.last_time:.0f}, "
        f"jobs {len(jobs)} "
        f"(running {sum(1 for j in jobs.values() if j.state == 'running')}, "
        f"done {sum(1 for j in jobs.values() if j.state == 'done')})"
    )
    if tick:
        lines.append(
            f"last interval: running={tick.get('running_jobs', '?')} "
            f"active={tick.get('active_jobs', '?')} "
            f"pending={tick.get('pending_jobs', tick.get('paused_jobs', '?'))}"
        )
    speed, remaining = fold.fleet[SIGNAL_SPEED], fold.fleet[SIGNAL_REMAINING]
    if speed.count or remaining.count:
        lines.append(
            f"estimators: speed MAPE {_percent(speed, 'n/a', '%')}, loss-curve "
            f"MAPE {_percent(remaining, 'n/a', '%')}, drift events {len(fold.drift)}"
        )
    control = fold.control
    if any(control.values()):
        lines.append(
            "control plane: "
            + ", ".join(
                f"{_CONTROL_LABELS[kind]}={count}"
                for kind, count in control.items()
                if count
            )
        )
    decisions = {
        "grants": sum(fold.grants.values()),
        "denials": sum(fold.denials.values()),
        "placements": sum(fold.placements.values()),
        "shrinks": fold.shrinks,
    }
    if any(decisions.values()):
        lines.append(
            "decision ledger: "
            + ", ".join(
                f"{name}={count}"
                for name, count in decisions.items()
                if count
            )
        )
    if metrics_snapshot:
        counters = metrics_snapshot.get("counters", {})
        gauges = metrics_snapshot.get("gauges", {})
        lines.append(
            "metrics: intervals="
            f"{int(counters.get('engine.intervals', counters.get('loop.steps', 0)))}"
            f" rescales={int(counters.get('engine.rescales', 0))}"
            f" restarts={int(counters.get('faults.job_restarts', 0))}"
            f" active_jobs={gauges.get('engine.active_jobs', 0):.0f}"
        )

    rows = []
    ordered = sorted(
        jobs.values(), key=lambda j: (j.state == "done", j.job_id)
    )
    if max_jobs is not None:
        ordered = ordered[:max_jobs]
    for entry in ordered:
        rows.append(
            [
                entry.job_id,
                entry.model,
                entry.state,
                entry.workers,
                entry.ps,
                entry.servers,
                _percent(entry.estimators[SIGNAL_SPEED], "-"),
                _percent(entry.estimators[SIGNAL_REMAINING], "-"),
                ",".join(sorted(entry.drift_signals)) or "-",
                entry.restarts,
            ]
        )
    lines.append("")
    lines.append(
        format_table(
            [
                "job", "model", "state", "w", "ps", "srv",
                "speedMAPE%", "lossMAPE%", "drift", "restarts",
            ],
            rows,
        )
    )
    return "\n".join(lines)
