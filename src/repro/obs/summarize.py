"""Turn a JSONL trace into a human-readable report.

Several views are produced from the same event stream:

* **Event inventory** -- how many events of each type, with anything this
  build does not recognise collected into an ``unknown`` bucket (traces
  from newer builds still summarise instead of crashing).
* **Span tree** -- ``span`` events carry ``span_id``/``parent_id``, so
  :func:`span_tree` reconstructs each interval's causal tree. Two views
  read that one tree:

  * **Per-phase time breakdown** (:func:`phase_breakdown`) -- where does
    a scheduling interval's wall-clock time go (snapshot, fit, allocate,
    place, reconcile, progress)? Summed per interval root and reported
    with p50/p95/p99 over the per-interval samples, not just the mean.
  * **Span flame tree** (:func:`span_flame`) -- identical paths
    (``interval > schedule > allocate``) aggregated across the whole
    trace.
* **Estimator report** -- per-job and fleet speed / loss-curve MAPE and
  bias from ``estimator_sample`` events, plus drift events.
* **Decision ledger summary** -- grant / denial / placement-provenance
  tallies from ``decision`` events (the per-job replay lives in
  ``repro explain``).
* **Control-plane summary** -- leader elections, depositions, fenced
  writes, node-lease re-grants and checkpoints from the HA events.
* **Per-job decision timeline** -- every ``job_*`` / ``*_decided`` event
  for each job in order.

The last four views render from one :func:`~repro.obs.fold.fold_trace`
pass, the same fold ``repro top`` and ``repro explain`` read.

File reads are *tolerant*: corrupt or truncated JSONL lines are skipped
and counted, never fatal -- a trace cut short by a crash is precisely the
one an operator needs to read.

Usage::

    python -m repro.obs.summarize trace.jsonl
    optimus-repro trace trace.jsonl

or programmatically through :func:`summarize_trace`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.obs.explain import describe_outcome
from repro.obs.fold import fold_trace
from repro.obs.tracer import (
    EVENT_ALLOCATION_DECIDED,
    EVENT_CHECKPOINT_RECORDED,
    EVENT_DECISION,
    EVENT_ESTIMATOR_DRIFT,
    EVENT_ESTIMATOR_SAMPLE,
    EVENT_LEADER_DEPOSED,
    EVENT_LEADER_ELECTED,
    EVENT_NODE_LEASE_REGRANT,
    EVENT_PLACEMENT_DECIDED,
    EVENT_SPAN,
    EVENT_STRAGGLER_DETECTED,
    EVENT_WRITE_FENCED,
    read_trace,
    read_trace_tolerant,
)
from repro.report import format_table


def _percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an unsorted sample (q in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


# -- span tree: phase breakdown and flame ------------------------------------------


def span_tree(events: Sequence[Dict]) -> List[Dict]:
    """Reconstruct the causal span forest from ``span`` events.

    Returns the root spans (``parent_id`` is null), each a dict with a
    ``children`` list, in emission order. Because spans are emitted on
    close (children before parents), the whole stream is buffered first;
    a span whose parent never closed (the trace was cut mid-interval) is
    promoted to a root rather than dropped.
    """
    nodes: Dict[int, Dict] = {}
    order: List[int] = []
    for event in events:
        if event.get("event") != EVENT_SPAN:
            continue
        node = dict(event)
        node["children"] = []
        nodes[node["span_id"]] = node
        order.append(node["span_id"])
    roots: List[Dict] = []
    for span_id in order:
        node = nodes[span_id]
        parent = node.get("parent_id")
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)
    return roots


def _sum_by_name(node: Dict, acc: Dict[str, float]) -> None:
    """Add every descendant's duration of *node* into *acc*, keyed by name."""
    for child in node["children"]:
        name = child["name"]
        acc[name] = acc.get(name, 0.0) + float(child.get("duration", 0.0))
        _sum_by_name(child, acc)


def phase_breakdown(events: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """Per-phase statistics over the interval roots of the span tree.

    Each root span (an engine ``interval``, a control-loop ``step``)
    yields one sample per span name beneath it: the summed duration of
    its descendants of that name; the root is not a phase of itself.
    Spans :func:`span_tree` promoted to roots because their parent never
    closed (a trace cut mid-interval) are skipped: that interval never
    finished. Returns ``{phase: {count, total, mean, share, p50, p95,
    p99}}`` where ``share`` is the phase's fraction of all profiled time
    across the trace and the percentiles are over per-interval samples
    (seconds).
    """
    samples: Dict[str, List[float]] = {}
    for root in span_tree(events):
        if root.get("parent_id") is not None:
            continue
        per_root: Dict[str, float] = {}
        _sum_by_name(root, per_root)
        for phase, seconds in per_root.items():
            samples.setdefault(phase, []).append(seconds)
    grand_total = sum(sum(values) for values in samples.values())
    breakdown: Dict[str, Dict[str, float]] = {}
    for phase, values in sorted(samples.items()):
        total = sum(values)
        breakdown[phase] = {
            "count": float(len(values)),
            "total": total,
            "mean": total / len(values),
            "share": total / grand_total if grand_total > 0 else 0.0,
            "p50": _percentile(values, 0.50),
            "p95": _percentile(values, 0.95),
            "p99": _percentile(values, 0.99),
        }
    return breakdown


def _walk_paths(
    node: Dict, prefix: str, acc: Dict[str, List[float]]
) -> None:
    path = f"{prefix} > {node['name']}" if prefix else node["name"]
    acc.setdefault(path, []).append(float(node.get("duration", 0.0)))
    for child in node["children"]:
        _walk_paths(child, path, acc)


def span_flame(events: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """Aggregate span durations by tree path across the whole trace.

    ``{"interval > schedule > allocate": {count, total, mean, p95}}`` --
    the flame-graph view, merged over every interval.
    """
    acc: Dict[str, List[float]] = {}
    for root in span_tree(events):
        _walk_paths(root, "", acc)
    return {
        path: {
            "count": float(len(values)),
            "total": sum(values),
            "mean": sum(values) / len(values),
            "p95": _percentile(values, 0.95),
        }
        for path, values in acc.items()
    }


def render_span_flame(events: Sequence[Dict]) -> List[str]:
    """Indented flame-tree lines, deepest paths nested under their parents."""
    flame = span_flame(events)
    lines = []
    # Sorting by path segments lists every subtree right below its parent.
    for path in sorted(flame, key=lambda p: p.split(" > ")):
        stats = flame[path]
        depth = path.count(" > ")
        name = path.rsplit(" > ", 1)[-1]
        lines.append(
            f"{'  ' * depth}{name:<12} x{int(stats['count']):<5} "
            f"total {stats['total'] * 1e3:8.1f} ms   "
            f"mean {stats['mean'] * 1e3:7.2f} ms   "
            f"p95 {stats['p95'] * 1e3:7.2f} ms"
        )
    return lines


#: Per-job events the timeline leaves out: they carry ``job_id`` but belong
#: to the flame-tree / estimator / ledger views, and at many per interval
#: they would drown the timeline (``repro explain`` replays the ledger).
_OFF_TIMELINE = (EVENT_SPAN, EVENT_ESTIMATOR_SAMPLE, EVENT_DECISION)

#: How the report names each :data:`~repro.obs.fold.CONTROL_PLANE_EVENTS` tally.
_CONTROL_LABELS = {
    EVENT_LEADER_ELECTED: "leader_elections",
    EVENT_LEADER_DEPOSED: "leader_depositions",
    EVENT_WRITE_FENCED: "writes_fenced",
    EVENT_NODE_LEASE_REGRANT: "lease_regrants",
    EVENT_CHECKPOINT_RECORDED: "checkpoints_recorded",
}


def _describe(event: Dict) -> str:
    kind = event["event"]
    if kind == EVENT_ALLOCATION_DECIDED:
        return f"allocated w={event.get('workers')} ps={event.get('ps')}"
    if kind == EVENT_PLACEMENT_DECIDED:
        return f"placed on {event.get('servers')} server(s)"
    if kind == EVENT_STRAGGLER_DETECTED:
        return f"straggler episode(s): {event.get('episodes')}"
    if kind == EVENT_ESTIMATOR_DRIFT:
        return (
            f"estimator drift ({event.get('signal', '?')}): window MAPE "
            f"{100 * event.get('window_mape', 0.0):.0f}%"
        )
    if kind == EVENT_CHECKPOINT_RECORDED:
        return f"checkpoint recorded at {event.get('steps', 0):.0f} steps"
    if kind == EVENT_LEADER_ELECTED:
        return (
            f"leader elected: {event.get('leader', '?')} "
            f"(epoch {event.get('epoch', '?')})"
        )
    if kind == EVENT_LEADER_DEPOSED:
        return (
            f"leader deposed: {event.get('leader', '?')} "
            f"(epoch {event.get('epoch', '?')}, {event.get('reason', '?')})"
        )
    if kind == EVENT_WRITE_FENCED:
        return (
            f"write fenced: {event.get('op', '?')} {event.get('key', '?')} "
            f"by stale {event.get('leader', '?')} "
            f"(epoch {event.get('epoch', '?')})"
        )
    if kind == EVENT_NODE_LEASE_REGRANT:
        return f"node lease re-granted: {event.get('server', '?')}"
    return describe_outcome(event)


def summarize_trace(
    events: Sequence[Dict],
    max_events_per_job: Optional[int] = 8,
    skipped_lines: int = 0,
) -> str:
    """Render the full report: inventory, phases, spans, estimators, jobs."""
    sections: List[str] = []

    sections.append(f"trace summary: {len(events)} events")
    if skipped_lines:
        sections.append(
            f"warning: skipped {skipped_lines} corrupt/truncated line(s)"
        )
    fold = fold_trace(events)
    if fold.known or fold.unknown:
        inventory = ", ".join(
            f"{kind}={count}" for kind, count in sorted(fold.known.items())
        )
        sections.append(f"event types: {inventory}")
        if fold.unknown:
            unknown_text = ", ".join(
                f"{kind}={count}" for kind, count in sorted(fold.unknown.items())
            )
            sections.append(f"unknown event types: {unknown_text}")

    breakdown = phase_breakdown(events)
    if breakdown:
        rows = [
            [
                phase,
                int(stats["count"]),
                stats["total"],
                stats["mean"] * 1e3,
                stats["p50"] * 1e3,
                stats["p95"] * 1e3,
                stats["p99"] * 1e3,
                100.0 * stats["share"],
            ]
            for phase, stats in sorted(
                breakdown.items(), key=lambda kv: -kv[1]["total"]
            )
        ]
        sections.append("")
        sections.append("per-phase time breakdown:")
        sections.append(
            format_table(
                [
                    "phase", "intervals", "total (s)", "mean (ms)",
                    "p50 (ms)", "p95 (ms)", "p99 (ms)", "share (%)",
                ],
                rows,
            )
        )

    flame_lines = render_span_flame(events)
    if flame_lines:
        sections.append("")
        sections.append("span flame tree (aggregated across intervals):")
        sections.extend(flame_lines)

    rows = [
        [name, signal, stats.count, 100.0 * stats.mape, 100.0 * stats.bias]
        for name, signals in [("fleet", fold.fleet)]
        + [(job_id, job.estimators) for job_id, job in sorted(fold.jobs.items())]
        for signal, stats in sorted(signals.items())
        if stats.count
    ]
    if rows:
        sections.append("")
        sections.append("estimator quality (from estimator_sample events):")
        sections.append(
            format_table(
                ["job", "signal", "samples", "MAPE (%)", "bias (%)"], rows
            )
        )
        if fold.drift:
            sections.append(
                f"drift events: {len(fold.drift)} "
                + ", ".join(
                    f"{d.get('job_id', '?')}/{d.get('signal', '?')}"
                    f"@t={d.get('time', 0):.0f}"
                    for d in fold.drift
                )
            )

    if fold.grants or fold.denials or fold.placements or fold.shrinks:
        sections.append("")
        sections.append("decision ledger:")
        if fold.grants:
            grants_text = ", ".join(
                f"{task}={count}" for task, count in sorted(fold.grants.items())
            )
            total = sum(fold.grants.values())
            sections.append(f"  grants: {total} ({grants_text})")
        if fold.sampled_grants:
            sections.append(
                f"  sampled grants: {fold.sampled_grants} "
                "(ledger ran in sampled mode; dropped grants are "
                "counters-only)"
            )
        if fold.denials:
            denials_text = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(fold.denials.items())
            )
            sections.append(f"  denials: {denials_text}")
        if fold.placements:
            placements_text = ", ".join(
                f"{prov}={count}"
                for prov, count in sorted(fold.placements.items())
            )
            sections.append(f"  placements: {placements_text}")
        if fold.shrinks:
            sections.append(f"  shrinks: {fold.shrinks}")
        sections.append(
            "  (replay one job with: repro explain TRACE --job JOB)"
        )

    control = fold.control
    if any(control.values()):
        sections.append("")
        sections.append("control plane (HA):")
        sections.append(
            "  "
            + ", ".join(
                f"{_CONTROL_LABELS[kind]}={count}"
                for kind, count in control.items()
                if count
            )
        )

    timelines = {
        job_id: [e for e in job.events if e["event"] not in _OFF_TIMELINE]
        for job_id, job in sorted(fold.jobs.items())
    }
    timelines = {job_id: shown for job_id, shown in timelines.items() if shown}
    if timelines:
        sections.append("")
        sections.append("per-job decision timelines:")
        for job_id, job_events in timelines.items():
            sections.append(f"\n{job_id} ({len(job_events)} events):")
            lines = [f"  t={e['time']:>10.0f}  {_describe(e)}" for e in job_events]
            if max_events_per_job is not None and len(lines) > max_events_per_job:
                head = max_events_per_job // 2
                tail = max_events_per_job - head
                omitted = len(lines) - head - tail
                lines = lines[:head] + [f"  ... {omitted} more ..."] + lines[-tail:]
            sections.extend(lines)
    return "\n".join(sections)


def summarize_file(path: str, max_events_per_job: Optional[int] = 8) -> str:
    """Read a JSONL trace file (tolerantly) and render its report."""
    events, skipped = read_trace_tolerant(path)
    return summarize_trace(
        events, max_events_per_job, skipped_lines=skipped
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.summarize",
        description="Summarise a JSONL trace produced by --trace-out.",
    )
    parser.add_argument("trace", help="path to the .jsonl trace file")
    parser.add_argument(
        "--max-events-per-job",
        type=int,
        default=8,
        help="truncate each job's timeline to this many events (0 = no limit)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on corrupt lines instead of skipping them",
    )
    args = parser.parse_args(argv)
    limit = args.max_events_per_job if args.max_events_per_job > 0 else None
    if args.strict:
        print(summarize_trace(read_trace(args.trace), max_events_per_job=limit))
    else:
        print(summarize_file(args.trace, max_events_per_job=limit))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
