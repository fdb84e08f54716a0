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
  bias recomputed from ``estimator_sample`` events, plus drift events.
* **Decision ledger summary** -- grant / denial / placement-provenance
  tallies from ``decision`` events (the per-job replay lives in
  ``repro explain``).
* **Control-plane summary** -- leader elections, depositions, fenced
  writes, node-lease re-grants and checkpoints from the HA events.
* **Per-job decision timeline** -- every ``job_*`` / ``*_decided`` event
  for each job in order.

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
from collections import Counter as TallyCounter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.explain import describe_decision
from repro.obs.tracer import (
    EVENT_ALLOCATION_DECIDED,
    EVENT_CHECKPOINT_RECORDED,
    EVENT_DECISION,
    EVENT_ESTIMATOR_DRIFT,
    EVENT_ESTIMATOR_SAMPLE,
    EVENT_JOB_ARRIVED,
    EVENT_JOB_COMPLETED,
    EVENT_JOB_RESCALED,
    EVENT_LEADER_DEPOSED,
    EVENT_LEADER_ELECTED,
    EVENT_NODE_LEASE_REGRANT,
    EVENT_PLACEMENT_DECIDED,
    EVENT_SPAN,
    EVENT_STRAGGLER_DETECTED,
    EVENT_TYPES,
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


def event_type_counts(
    events: Sequence[Dict],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Tally events by type: ``(known, unknown)`` dicts.

    Event types this build does not declare in ``EVENT_TYPES`` (a trace
    written by a newer build, or hand-edited) land in the second dict
    rather than being dropped or crashing the report.
    """
    known: TallyCounter = TallyCounter()
    unknown: TallyCounter = TallyCounter()
    for event in events:
        kind = event.get("event")
        if kind in EVENT_TYPES:
            known[kind] += 1
        else:
            unknown[str(kind)] += 1
    return dict(known), dict(unknown)


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


# -- estimator quality ----------------------------------------------------------


def estimator_report(events: Sequence[Dict]) -> Dict:
    """Recompute estimator quality from ``estimator_sample`` events alone.

    Returns ``{"fleet": {signal: {count, mape, bias}}, "jobs": {job_id:
    {signal: {...}}}, "drift": [drift events]}`` -- the same numbers the
    live :class:`~repro.obs.estimators.EstimatorTelemetry` maintains, so
    a trace file is sufficient to audit prediction quality offline.
    """
    per_job: Dict[str, Dict[str, List[float]]] = {}
    fleet: Dict[str, List[float]] = {}
    drift: List[Dict] = []
    for event in events:
        kind = event.get("event")
        if kind == EVENT_ESTIMATOR_SAMPLE:
            signal = event.get("signal", "?")
            error = float(event.get("error", 0.0))
            fleet.setdefault(signal, []).append(error)
            per_job.setdefault(event.get("job_id", "?"), {}).setdefault(
                signal, []
            ).append(error)
        elif kind == EVENT_ESTIMATOR_DRIFT:
            drift.append(event)

    def stats(errors: List[float]) -> Dict[str, float]:
        return {
            "count": float(len(errors)),
            "mape": sum(abs(e) for e in errors) / len(errors),
            "bias": sum(errors) / len(errors),
        }

    return {
        "fleet": {signal: stats(errs) for signal, errs in sorted(fleet.items())},
        "jobs": {
            job_id: {signal: stats(errs) for signal, errs in sorted(signals.items())}
            for job_id, signals in sorted(per_job.items())
        },
        "drift": drift,
    }


def decision_summary(events: Sequence[Dict]) -> Dict[str, Dict[str, int]]:
    """Tally ``decision`` ledger events by kind.

    Returns ``{"grants": {task: n}, "denials": {reason: n}, "placements":
    {provenance: n}, "shrinks": {"shrink": n}, "sampled": {"sampled": n}}``
    with empty inner dicts when the trace carries no ledger. Unknown
    decision kinds are ignored (forward compatibility with newer builds).
    """
    grants: TallyCounter = TallyCounter()
    denials: TallyCounter = TallyCounter()
    placements: TallyCounter = TallyCounter()
    shrinks = 0
    sampled = 0
    for event in events:
        if event.get("event") != EVENT_DECISION:
            continue
        kind = event.get("kind")
        if kind == "grant":
            grants[str(event.get("task", "?"))] += 1
            if event.get("sampled"):
                sampled += 1
        elif kind == "deny":
            denials[str(event.get("reason", "?"))] += 1
        elif kind == "placement":
            placements[str(event.get("provenance", "?"))] += 1
        elif kind == "shrink":
            shrinks += 1
    return {
        "grants": dict(grants),
        "denials": dict(denials),
        "placements": dict(placements),
        "shrinks": {"shrink": shrinks} if shrinks else {},
        "sampled": {"sampled": sampled} if sampled else {},
    }


def control_plane_summary(events: Sequence[Dict]) -> Dict[str, int]:
    """Tally HA control-plane events: elections, fencing, lease re-grants."""
    tally = {
        "leader_elections": 0,
        "leader_depositions": 0,
        "writes_fenced": 0,
        "lease_regrants": 0,
        "checkpoints_recorded": 0,
    }
    for event in events:
        kind = event.get("event")
        if kind == EVENT_LEADER_ELECTED:
            tally["leader_elections"] += 1
        elif kind == EVENT_LEADER_DEPOSED:
            tally["leader_depositions"] += 1
        elif kind == EVENT_WRITE_FENCED:
            tally["writes_fenced"] += 1
        elif kind == EVENT_NODE_LEASE_REGRANT:
            tally["lease_regrants"] += 1
        elif kind == EVENT_CHECKPOINT_RECORDED:
            tally["checkpoints_recorded"] += 1
    return tally


def job_timelines(events: Sequence[Dict]) -> Dict[str, List[Dict]]:
    """Group per-job events (anything carrying ``job_id``) by job, in order.

    ``span``, ``estimator_sample`` and ``decision`` events are excluded:
    they carry ``job_id`` but belong to the flame-tree / estimator /
    ledger views, and at many per interval they would drown the decision
    timeline (``repro explain`` renders the ledger per job instead).
    """
    timelines: Dict[str, List[Dict]] = {}
    for event in events:
        if event.get("event") in (
            EVENT_SPAN,
            EVENT_ESTIMATOR_SAMPLE,
            EVENT_DECISION,
        ):
            continue
        job_id = event.get("job_id")
        if job_id is not None:
            timelines.setdefault(job_id, []).append(event)
    return timelines


def _describe(event: Dict) -> str:
    kind = event["event"]
    if kind == EVENT_JOB_ARRIVED:
        return f"arrived ({event.get('model', '?')}, {event.get('mode', '?')})"
    if kind == EVENT_ALLOCATION_DECIDED:
        return f"allocated w={event.get('workers')} ps={event.get('ps')}"
    if kind == EVENT_PLACEMENT_DECIDED:
        return f"placed on {event.get('servers')} server(s)"
    if kind == EVENT_JOB_RESCALED:
        old = event.get("old", ["?", "?"])
        new = event.get("new", ["?", "?"])
        return (
            f"rescaled ({old[0]}, {old[1]}) -> ({new[0]}, {new[1]}), "
            f"overhead {event.get('overhead', 0):.0f}s"
        )
    if kind == EVENT_STRAGGLER_DETECTED:
        return f"straggler episode(s): {event.get('episodes')}"
    if kind == EVENT_JOB_COMPLETED:
        return f"completed after {event.get('steps', 0):.0f} steps"
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
    if kind == EVENT_DECISION:
        return describe_decision(event)
    return kind


def decision_timeline(events: Sequence[Dict], job_id: str) -> List[str]:
    """Human-readable one-liners for one job's lifecycle."""
    lines = []
    for event in job_timelines(events).get(job_id, []):
        lines.append(f"t={event['time']:>10.0f}  {_describe(event)}")
    return lines


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
    known, unknown = event_type_counts(events)
    if known or unknown:
        inventory = ", ".join(
            f"{kind}={count}" for kind, count in sorted(known.items())
        )
        sections.append(f"event types: {inventory}")
        if unknown:
            unknown_text = ", ".join(
                f"{kind}={count}" for kind, count in sorted(unknown.items())
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

    est = estimator_report(events)
    if est["fleet"]:
        sections.append("")
        sections.append("estimator quality (from estimator_sample events):")
        rows = [
            [
                job_id,
                signal,
                int(stats["count"]),
                100.0 * stats["mape"],
                100.0 * stats["bias"],
            ]
            for job_id, signals in [("fleet", est["fleet"])]
            + list(est["jobs"].items())
            for signal, stats in signals.items()
        ]
        sections.append(
            format_table(
                ["job", "signal", "samples", "MAPE (%)", "bias (%)"], rows
            )
        )
        if est["drift"]:
            sections.append(
                f"drift events: {len(est['drift'])} "
                + ", ".join(
                    f"{d.get('job_id', '?')}/{d.get('signal', '?')}"
                    f"@t={d.get('time', 0):.0f}"
                    for d in est["drift"]
                )
            )

    decisions = decision_summary(events)
    if any(decisions.values()):
        sections.append("")
        sections.append("decision ledger:")
        if decisions["grants"]:
            grants_text = ", ".join(
                f"{task}={count}"
                for task, count in sorted(decisions["grants"].items())
            )
            total = sum(decisions["grants"].values())
            sections.append(f"  grants: {total} ({grants_text})")
        if decisions["sampled"]:
            sections.append(
                f"  sampled grants: {decisions['sampled']['sampled']} "
                "(ledger ran in sampled mode; dropped grants are "
                "counters-only)"
            )
        if decisions["denials"]:
            denials_text = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(decisions["denials"].items())
            )
            sections.append(f"  denials: {denials_text}")
        if decisions["placements"]:
            placements_text = ", ".join(
                f"{prov}={count}"
                for prov, count in sorted(decisions["placements"].items())
            )
            sections.append(f"  placements: {placements_text}")
        if decisions["shrinks"]:
            sections.append(f"  shrinks: {decisions['shrinks']['shrink']}")
        sections.append(
            "  (replay one job with: repro explain TRACE --job JOB)"
        )

    control = control_plane_summary(events)
    if any(control.values()):
        sections.append("")
        sections.append("control plane (HA):")
        sections.append(
            "  "
            + ", ".join(
                f"{name}={count}" for name, count in control.items() if count
            )
        )

    timelines = job_timelines(events)
    if timelines:
        sections.append("")
        sections.append("per-job decision timelines:")
        for job_id in sorted(timelines):
            job_events = timelines[job_id]
            sections.append(f"\n{job_id} ({len(job_events)} events):")
            shown = job_events
            if max_events_per_job is not None and len(shown) > max_events_per_job:
                head = max_events_per_job // 2
                tail = max_events_per_job - head
                omitted = len(shown) - head - tail
                shown = (
                    shown[:head]
                    + [{"time": float("nan"), "event": f"... {omitted} more ..."}]
                    + shown[-tail:]
                )
            for event in shown:
                if event["event"].startswith("..."):
                    sections.append(f"  {event['event']}")
                else:
                    sections.append(f"  t={event['time']:>10.0f}  {_describe(event)}")
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
