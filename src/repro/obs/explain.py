"""Replay the decision ledger: per-job explanations and cross-run diffs.

Two consumers of the ``decision`` events the :mod:`repro.obs.ledger`
writes (plus the outcome events that were already on the stream):

* :func:`explain_job` -- "why did job J end up with 3 workers?": replays
  one job's grants, denials, placements, shrinks and rescales into a
  human-readable timeline with reasons and runner-up gaps. This is the
  ``repro explain`` subcommand.
* :func:`trace_diff` -- "why is OASiS 12% worse on seed 42?": aligns two
  runs of the same workload (different policy/seed/engine), finds the
  *first divergent decision* per job and attributes each job's JCT delta
  to it. This is ``repro trace diff A B`` and the arena's
  divergence-attribution report.

Both work on any trace: full-fidelity ledgers give decision-level
alignment; traces without ``decision`` events (sampled or off) fall back
to the coarser ``allocation_decided`` outcomes, so the tools degrade
rather than fail. Both read each job's events, arrival and completion
from one :func:`~repro.obs.fold.fold_trace` pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.fold import JobFold, fold_trace
from repro.obs.tracer import (
    EVENT_ALLOCATION_DECIDED,
    EVENT_DECISION,
    EVENT_JOB_ARRIVED,
    EVENT_JOB_COMPLETED,
    EVENT_JOB_RESCALED,
)

#: Events :func:`explain_job` replays.
_REPLAYED_EVENTS = (
    EVENT_DECISION,
    EVENT_JOB_ARRIVED,
    EVENT_ALLOCATION_DECIDED,
    EVENT_JOB_RESCALED,
    EVENT_JOB_COMPLETED,
)


def _fmt_gain(value) -> str:
    try:
        return f"{float(value):.4g}"
    except (TypeError, ValueError):
        return "?"


def describe_decision(event: Dict) -> str:
    """One human-readable line for a ``decision`` event (any ``kind``)."""
    kind = event.get("kind")
    if kind == "grant":
        task = event.get("task", "?")
        after = f"({event.get('workers', '?')}w, {event.get('ps', '?')}ps)"
        if task == "bundle":
            head = f"granted {event.get('workers', '?')}-bundle -> {after}"
            gain = f"surplus {_fmt_gain(event.get('gain'))}"
        else:
            head = f"granted +1 {task} -> {after}"
            gain = f"gain {_fmt_gain(event.get('gain'))}"
        parts = [head, gain]
        if event.get("index") is not None:
            parts.append(f"grant #{event['index']}")
        runner = event.get("runner_up")
        gap = event.get("runner_up_gap")
        if runner is not None:
            parts.append(f"runner-up {runner} (gap {_fmt_gain(gap)})")
        elif gap is not None:
            parts.append(f"edge over 2nd-best bundle {_fmt_gain(gap)}")
        if event.get("sampled"):
            parts.append("sampled")
        return ", ".join(parts)
    if kind == "deny":
        reason = event.get("reason", "?")
        details = []
        if event.get("stage"):
            details.append(f"stage={event['stage']}")
        if event.get("workers") is not None:
            details.append(f"at ({event['workers']}w, {event.get('ps', '?')}ps)")
        if event.get("gain") is not None:
            details.append(f"gain {_fmt_gain(event['gain'])}")
        if event.get("shared_shape"):
            details.append("shape already proven hopeless")
        if event.get("error"):
            details.append(f"error: {event['error']}")
        suffix = f" ({', '.join(details)})" if details else ""
        return f"denied: {reason}{suffix}"
    if kind == "placement":
        provenance = event.get("provenance", "?")
        servers = event.get("servers", "?")
        spill = ", cross-server spill" if event.get("spill") else ""
        verb = "cache replay" if provenance == "cache" else "fresh placement"
        return f"{verb} on {servers} server(s){spill}"
    if kind == "shrink":
        req = event.get("requested", ["?", "?"])
        got = event.get("granted", ["?", "?"])
        return (
            f"shrunk to fit fragmentation: ({req[0]}w, {req[1]}ps) -> "
            f"({got[0]}w, {got[1]}ps)"
        )
    return f"decision ({kind})"


def describe_outcome(event: Dict) -> str:
    """The ``job_arrived`` / ``job_rescaled`` / ``job_completed`` line.

    ``repro trace`` and ``repro explain`` print these three alike; any
    other event renders as its type.
    """
    kind = event.get("event")
    if kind == EVENT_JOB_ARRIVED:
        return f"arrived ({event.get('model', '?')}, {event.get('mode', '?')})"
    if kind == EVENT_JOB_RESCALED:
        old = event.get("old", ["?", "?"])
        new = event.get("new", ["?", "?"])
        return (
            f"rescaled ({old[0]}, {old[1]}) -> ({new[0]}, {new[1]}), "
            f"overhead {event.get('overhead', 0):.0f}s"
        )
    if kind == EVENT_JOB_COMPLETED:
        return f"completed after {event.get('steps', 0):.0f} steps"
    return str(kind)


def _describe(event: Dict) -> str:
    """One line for any of :data:`_REPLAYED_EVENTS`."""
    kind = event.get("event")
    if kind == EVENT_DECISION:
        return describe_decision(event)
    if kind == EVENT_ALLOCATION_DECIDED:
        return (
            f"interval allocation: w={event.get('workers')} "
            f"ps={event.get('ps')}"
        )
    return describe_outcome(event)


def _replayed(job: Optional[JobFold]) -> List[Dict]:
    """The job's :data:`_REPLAYED_EVENTS`, in stream order."""
    if job is None:
        return []
    return [e for e in job.events if e.get("event") in _REPLAYED_EVENTS]


def explain_job(
    events: Sequence[Dict], job_id: str, at: Optional[float] = None
) -> List[str]:
    """One job's decision timeline as human-readable lines.

    ``at`` truncates the replay to events at or before that simulation
    time ("what did the scheduler know at T?"). Returns an empty list
    when the trace never mentions the job.
    """
    lines: List[str] = []
    final: Optional[Tuple] = None
    saw_decisions = False
    for event in _replayed(fold_trace(events).jobs.get(job_id)):
        time = event.get("time")
        if at is not None and isinstance(time, (int, float)) and time > at:
            continue
        try:
            stamp = f"t={float(time):>10.0f}"
        except (TypeError, ValueError):
            stamp = "t=         ?"
        lines.append(f"{stamp}  {_describe(event)}")
        kind = event.get("event")
        if kind == EVENT_DECISION:
            saw_decisions = True
        elif kind == EVENT_ALLOCATION_DECIDED:
            final = (event.get("workers"), event.get("ps"))
    if lines:
        header = f"{job_id}: {len(lines)} decision/outcome events"
        if at is not None:
            header += f" (up to t={at:.0f})"
        if final is not None:
            header += f"; last interval allocation w={final[0]} ps={final[1]}"
        if not saw_decisions:
            lines.append(
                "note: no decision-ledger events in this trace (ledger off "
                "or sampled out); showing outcome events only"
            )
        lines.insert(0, header)
    return lines


def explain_trace(
    events: Sequence[Dict], job_id: str, at: Optional[float] = None
) -> str:
    """:func:`explain_job` joined into one printable block.

    A job the trace never mentions gets the list of jobs it does; a job
    whose first event comes after ``at`` gets that event's time.
    """
    lines = explain_job(events, job_id, at=at)
    if lines:
        return "\n".join(lines)
    fold = fold_trace(events)
    replayed = _replayed(fold.jobs.get(job_id))
    if replayed:
        return (
            f"no events for job {job_id!r} at or before t={at:.0f}; "
            f"its first event is at t={float(replayed[0]['time']):.0f}"
        )
    known = sorted(fold.jobs)
    preview = ", ".join(known[:8]) + (" ..." if len(known) > 8 else "")
    return f"no events for job {job_id!r}; jobs in trace: {preview or '(none)'}"


# -- cross-run diff --------------------------------------------------------------


def _decision_key(event: Dict) -> Optional[Tuple]:
    """A structural fingerprint of one decision, comparable across runs.

    Floats (gains, surpluses) are excluded: two runs that made the *same*
    move for slightly different scores have not diverged in any way that
    affects the outcome.
    """
    kind = event.get("event")
    if kind == EVENT_DECISION:
        sub = event.get("kind")
        if sub == "grant":
            return (
                "grant",
                event.get("task"),
                event.get("workers"),
                event.get("ps"),
            )
        if sub == "deny":
            return ("deny", event.get("reason"))
        if sub == "placement":
            return (
                "placement",
                event.get("provenance"),
                event.get("servers"),
            )
        if sub == "shrink":
            return (
                "shrink",
                tuple(event.get("requested") or ()),
                tuple(event.get("granted") or ()),
            )
        return ("decision", sub)
    if kind == EVENT_ALLOCATION_DECIDED:
        return ("alloc", event.get("workers"), event.get("ps"))
    return None


def _sequence(job: Optional[JobFold]) -> List[Tuple[float, Tuple, Dict]]:
    """``(time, key, event)`` per decision of one job, in stream order."""
    sequence = []
    for event in job.events if job is not None else ():
        key = _decision_key(event)
        if key is not None:
            try:
                time = float(event.get("time", 0.0))
            except (TypeError, ValueError):
                time = 0.0
            sequence.append((time, key, event))
    return sequence


def _side(sequence: List[Tuple], index: int) -> Tuple[Optional[float], Optional[str]]:
    """``(time, text)`` of one run's decision *index*; ``None``s once it ran out."""
    if index >= len(sequence):
        return None, None
    time, _, event = sequence[index]
    return time, _describe(event)


def _divergence(a: List[Tuple], b: List[Tuple]) -> Optional[Dict]:
    """Where two decision sequences first disagree, or ``None`` if they never do."""
    for index in range(max(len(a), len(b))):
        if index < len(a) and index < len(b) and a[index][1] == b[index][1]:
            continue
        time_a, text_a = _side(a, index)
        time_b, text_b = _side(b, index)
        return {"index": index, "time_a": time_a, "time_b": time_b, "a": text_a, "b": text_b}
    return None


def _jct(job: Optional[JobFold]) -> Optional[float]:
    if job is None or job.arrival is None or job.completion is None:
        return None
    return job.completion - job.arrival


def trace_diff(
    events_a: Sequence[Dict],
    events_b: Sequence[Dict],
    label_a: str = "A",
    label_b: str = "B",
) -> Dict:
    """Align two runs of the same workload; find per-job divergence points.

    For every job appearing in either trace, walks its decision sequences
    in lockstep and records the first index where they disagree (or where
    one run simply has more decisions). Each divergent job also carries
    its JCT in both runs and the delta, so policy gaps can be attributed:
    "job-7 lost 1800 s, and its first divergence was run B denying it
    capacity at t=600".

    Returns a plain dict (JSON-friendly)::

        {"label_a": ..., "label_b": ...,
         "jobs": {job_id: {"divergence": {...} | None,
                           "jct_a": ..., "jct_b": ..., "jct_delta": ...}},
         "divergent_jobs": int, "compared_jobs": int,
         "total_jct_delta": float}
    """
    fold_a = fold_trace(events_a).jobs
    fold_b = fold_trace(events_b).jobs
    jobs: Dict[str, Dict] = {}
    divergent = 0
    total_delta = 0.0
    for job_id in sorted(set(fold_a) | set(fold_b)):
        divergence = _divergence(
            _sequence(fold_a.get(job_id)), _sequence(fold_b.get(job_id))
        )
        jct_a, jct_b = _jct(fold_a.get(job_id)), _jct(fold_b.get(job_id))
        jct_delta = None
        if jct_a is not None and jct_b is not None:
            jct_delta = jct_b - jct_a
            total_delta += jct_delta
        if divergence is not None:
            divergent += 1
        jobs[job_id] = {
            "divergence": divergence,
            "jct_a": jct_a,
            "jct_b": jct_b,
            "jct_delta": jct_delta,
        }
    return {
        "label_a": label_a,
        "label_b": label_b,
        "jobs": jobs,
        "compared_jobs": len(jobs),
        "divergent_jobs": divergent,
        "total_jct_delta": round(total_delta, 2),
    }


def format_trace_diff(diff: Dict, max_jobs: Optional[int] = None) -> str:
    """Render a :func:`trace_diff` result as a printable report.

    Jobs are ordered by absolute JCT delta (largest damage first), jobs
    with no divergence and no delta are summarised in one line.
    """
    label_a = diff.get("label_a", "A")
    label_b = diff.get("label_b", "B")
    lines = [
        f"trace diff: {label_a} vs {label_b} -- "
        f"{diff.get('divergent_jobs', 0)}/{diff.get('compared_jobs', 0)} "
        f"job(s) diverged, total JCT delta "
        f"{diff.get('total_jct_delta', 0.0):+.0f} s ({label_b} - {label_a})"
    ]
    jobs = diff.get("jobs", {})

    def damage(item) -> float:
        delta = item[1].get("jct_delta")
        return abs(delta) if delta is not None else 0.0

    interesting = [
        (job_id, info)
        for job_id, info in sorted(jobs.items(), key=damage, reverse=True)
        if info.get("divergence") is not None or info.get("jct_delta")
    ]
    identical = len(jobs) - len(interesting)
    shown = interesting if max_jobs is None else interesting[:max_jobs]
    for job_id, info in shown:
        delta = info.get("jct_delta")
        if delta is not None:
            lines.append(f"\n{job_id}: JCT delta {delta:+.0f} s")
        else:
            jct_a, jct_b = info.get("jct_a"), info.get("jct_b")
            status = (
                f"finished only in {label_a}"
                if jct_a is not None and jct_b is None
                else f"finished only in {label_b}"
                if jct_b is not None and jct_a is None
                else "unfinished in both"
            )
            lines.append(f"\n{job_id}: {status}")
        div = info.get("divergence")
        if div is None:
            lines.append("  decisions identical in both runs")
            continue
        lines.append(f"  first divergence at decision #{div['index']}:")
        time_a = div.get("time_a")
        time_b = div.get("time_b")
        a_text = div.get("a") or "(no further decisions)"
        b_text = div.get("b") or "(no further decisions)"
        a_stamp = f"t={time_a:.0f}" if time_a is not None else "t=-"
        b_stamp = f"t={time_b:.0f}" if time_b is not None else "t=-"
        lines.append(f"    {label_a} {a_stamp}: {a_text}")
        lines.append(f"    {label_b} {b_stamp}: {b_text}")
    if len(interesting) > len(shown):
        lines.append(f"\n... {len(interesting) - len(shown)} more divergent job(s)")
    if identical:
        lines.append(
            f"\n{identical} job(s) made identical decisions with equal outcomes"
        )
    return "\n".join(lines)
