"""The scheduler arena: head-to-head policy runs on one seeded trace.

Every scheduler :func:`repro.schedulers.make_scheduler` builds consumes the
same observation surface and emits the same action surface, so any set of
them can be raced on an identical workload: same job specs, same cluster
shape, same seed. :func:`run_arena` does exactly that and produces an
:class:`ArenaReport` with the headline metrics per policy -- JCT
statistics over finished jobs, effective makespan, Jain's fairness index
over the JCT distribution, and utilisation -- plus every metric
normalised to a baseline policy (the first one, by default), which is how
the paper's Fig.-11 style comparisons read.

The report serialises to strict JSON (:meth:`ArenaReport.to_dict`) and to a
flat gate dictionary (:meth:`ArenaReport.gate_dict`) consumed by
``benchmarks/check_regression.py``, which is what CI's arena lane diffs
against the committed baseline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.common.errors import SimulationError
from repro.sim.engine import SimConfig, simulate
from repro.sim.metrics import SimulationResult
from repro.workloads.job import JobSpec


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``, in (0, 1].

    1.0 means perfectly equal values; ``1/n`` means one value dominates.
    Non-finite entries are ignored; an empty input scores 0.0.
    """
    vals = [v for v in values if math.isfinite(v) and v >= 0.0]
    if not vals:
        return 0.0
    squares = sum(v * v for v in vals)
    if squares <= 0.0:
        return 1.0  # all-zero: degenerate but perfectly equal
    total = sum(vals)
    return (total * total) / (len(vals) * squares)


@dataclass(frozen=True)
class PolicyScore:
    """One policy's headline metrics from its arena run."""

    policy: str
    finished: int
    jobs: int
    #: Mean / p95 JCT over *finished* jobs (seconds); 0.0 if none finished.
    average_jct: float
    jct_p95: float
    #: First arrival to last *finished* completion (seconds); unlike
    #: ``SimulationResult.makespan`` this stays finite when some jobs never
    #: finish, so reports remain strict JSON.
    effective_makespan: float
    #: Jain's index over the finished jobs' JCTs.
    jain_fairness: float
    worker_utilization: float
    ps_utilization: float
    scheduling_intervals: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "policy": self.policy,
            "finished": self.finished,
            "jobs": self.jobs,
            "average_jct_s": self.average_jct,
            "jct_p95_s": self.jct_p95,
            "effective_makespan_s": self.effective_makespan,
            "jain_fairness": self.jain_fairness,
            "worker_utilization": self.worker_utilization,
            "ps_utilization": self.ps_utilization,
            "scheduling_intervals": self.scheduling_intervals,
        }


def score_result(policy: str, result: SimulationResult) -> PolicyScore:
    """Condense one run into the arena's headline metrics."""
    finished = result.finished_jobs
    jcts = [j.jct for j in finished]
    if finished:
        avg = sum(jcts) / len(jcts)
        p95 = result.jct_percentile(95)
        first = min(j.arrival_time for j in result.jobs.values())
        last = max(j.completion_time for j in finished)
        span = max(last - first, 0.0)
    else:
        avg = p95 = span = 0.0
    return PolicyScore(
        policy=policy,
        finished=len(finished),
        jobs=len(result.jobs),
        average_jct=avg,
        jct_p95=p95,
        effective_makespan=span,
        jain_fairness=jain_index(jcts),
        worker_utilization=result.mean_worker_utilization(),
        ps_utilization=result.mean_ps_utilization(),
        scheduling_intervals=len(result.timeline),
    )


@dataclass(frozen=True)
class ArenaReport:
    """The head-to-head outcome: one :class:`PolicyScore` per policy."""

    scores: Sequence[PolicyScore]
    baseline: str
    seed: int
    servers: int
    jobs: int
    #: Per-policy divergence attribution vs the baseline (see
    #: :func:`repro.obs.explain.trace_diff`): populated when the arena ran
    #: with ``trace_prefix`` so every policy's decision ledger exists.
    divergence: Optional[Dict[str, Dict]] = None

    def score(self, policy: str) -> PolicyScore:
        for entry in self.scores:
            if entry.policy == policy:
                return entry
        raise SimulationError(
            f"no arena score for {policy!r}; ran: "
            f"{', '.join(s.policy for s in self.scores)}"
        )

    def relative(self, policy: str) -> Dict[str, float]:
        """JCT / makespan of *policy* normalised to the baseline policy.

        Ratios fall back to 1.0 when the baseline metric is zero (nothing
        finished), keeping the report strict-JSON and the gate well-defined.
        """
        base = self.score(self.baseline)
        entry = self.score(policy)

        def ratio(value: float, reference: float) -> float:
            if reference <= 0.0:
                return 1.0
            return value / reference

        return {
            "jct_ratio": ratio(entry.average_jct, base.average_jct),
            "makespan_ratio": ratio(
                entry.effective_makespan, base.effective_makespan
            ),
        }

    def to_dict(self) -> Dict:
        """The full report as a strict-JSON-serialisable dictionary."""
        payload = {
            "baseline": self.baseline,
            "seed": self.seed,
            "servers": self.servers,
            "jobs": self.jobs,
            "policies": [
                {**entry.as_dict(), **self.relative(entry.policy)}
                for entry in self.scores
            ],
        }
        if self.divergence is not None:
            payload["divergence"] = self.divergence
        return payload

    def gate_dict(self) -> Dict[str, float]:
        """Flat numeric metrics for ``benchmarks/check_regression.py``.

        Key suffixes follow the gate's conventions: un-suffixed keys and
        ``*_s`` durations are lower-is-better, ``*_fairness`` /
        ``*_utilization`` / ``*_finished`` invert.
        """
        gate: Dict[str, float] = {}
        for entry in self.scores:
            rel = self.relative(entry.policy)
            name = entry.policy.replace("+", "_")
            gate[f"{name}_avg_jct_s"] = entry.average_jct
            gate[f"{name}_jct_ratio"] = rel["jct_ratio"]
            gate[f"{name}_makespan_ratio"] = rel["makespan_ratio"]
            gate[f"{name}_jain_fairness"] = entry.jain_fairness
            gate[f"{name}_worker_utilization"] = entry.worker_utilization
            gate[f"{name}_jobs_finished"] = float(entry.finished)
        return gate


def _trace_path(prefix: str, policy: str) -> str:
    """Where one policy's arena trace lands (hybrid '+' sanitised)."""
    return f"{prefix}.{policy.replace('+', '_')}.jsonl"


def run_arena(
    policies: Sequence[str],
    cluster_factory: Callable[[], Cluster],
    jobs: Sequence[JobSpec],
    config: Optional[SimConfig] = None,
    baseline: Optional[str] = None,
    trace_prefix: Optional[str] = None,
) -> ArenaReport:
    """Race the named policies head-to-head on one seeded trace.

    Every policy gets a fresh cluster from *cluster_factory* and the same
    job specs under the same :class:`SimConfig` seed, so metric differences
    are attributable to the policy alone. Policy names are resolved by
    :func:`~repro.schedulers.make_scheduler` (presets and ``"alloc+place"``
    hybrids); unknown names raise
    :class:`~repro.common.errors.SchedulingError` before any simulation
    runs.

    ``trace_prefix`` turns on divergence attribution: each policy's run is
    traced (decision ledger included) to ``<prefix>.<policy>.jsonl`` with a
    manifest next to it, and the report's ``divergence`` maps every
    non-baseline policy to its :func:`repro.obs.explain.trace_diff` against
    the baseline -- the first decision where each job's fate forked, tied
    to its JCT delta.
    """
    if not policies:
        raise SimulationError("need at least one policy to race")
    if len(set(policies)) != len(policies):
        raise SimulationError("duplicate policy names in arena")
    from repro.schedulers import make_scheduler

    config = config or SimConfig()
    baseline = baseline if baseline is not None else policies[0]
    if baseline not in policies:
        raise SimulationError(
            f"baseline {baseline!r} is not among the raced policies"
        )
    # Resolve every name up front: a typo in policy 4 should not cost the
    # wall-clock of policies 1-3.
    schedulers = {name: make_scheduler(name) for name in policies}
    traces: Dict[str, List[Dict]] = {}
    scores: List[PolicyScore] = []
    for name in policies:
        tracer = None
        if trace_prefix is not None:
            from repro.obs.tracer import RecordingTracer

            tracer = RecordingTracer()
        result = simulate(
            cluster_factory(), schedulers[name], list(jobs), config, tracer=tracer
        )
        scores.append(score_result(name, result))
        if tracer is not None:
            traces[name] = tracer.events
            from repro.sim.manifest import (
                manifest_path_for,
                run_manifest,
                write_manifest,
            )

            path = _trace_path(trace_prefix, name)
            with open(path, "w", encoding="utf8") as handle:
                for event in tracer.events:
                    handle.write(
                        json.dumps(event, separators=(",", ":")) + "\n"
                    )
            write_manifest(
                manifest_path_for(path),
                run_manifest(
                    config=config,
                    policy=name,
                    jobs=jobs,
                    extra={"arena_baseline": baseline},
                ),
            )
    divergence: Optional[Dict[str, Dict]] = None
    if traces and baseline in traces and len(traces) > 1:
        from repro.obs.explain import trace_diff

        divergence = {
            name: trace_diff(
                traces[baseline], traces[name], label_a=baseline, label_b=name
            )
            for name in policies
            if name != baseline and name in traces
        }
    return ArenaReport(
        scores=tuple(scores),
        baseline=baseline,
        seed=config.seed,
        servers=len(list(cluster_factory().server_names)),
        jobs=len(jobs),
        divergence=divergence,
    )


def format_arena(report: ArenaReport) -> str:
    """A printable head-to-head table (JCTs in hours, ratios vs baseline)."""
    lines = [
        f"arena: seed={report.seed} "
        f"servers={report.servers} jobs={report.jobs} "
        f"baseline={report.baseline}",
        f"{'policy':14s} {'done':>5s} {'JCT (h)':>9s} {'p95 (h)':>9s} "
        f"{'mkspan (h)':>11s} {'jct x':>7s} {'mk x':>6s} "
        f"{'fair':>6s} {'util':>6s}",
    ]
    for entry in report.scores:
        rel = report.relative(entry.policy)
        lines.append(
            f"{entry.policy:14s} {entry.finished:3d}/{entry.jobs:<2d}"
            f"{entry.average_jct / 3600:9.2f} {entry.jct_p95 / 3600:9.2f} "
            f"{entry.effective_makespan / 3600:11.2f} "
            f"{rel['jct_ratio']:7.2f} {rel['makespan_ratio']:6.2f} "
            f"{entry.jain_fairness:6.3f} {entry.worker_utilization:6.3f}"
        )
    if report.divergence:
        lines.append("")
        lines.append(
            f"divergence vs {report.baseline} (first forked decision per job):"
        )
        for policy, diff in report.divergence.items():
            lines.append(
                f"  {policy}: {diff.get('divergent_jobs', 0)}"
                f"/{diff.get('compared_jobs', 0)} job(s) diverged, "
                f"total JCT delta {diff.get('total_jct_delta', 0.0):+.0f} s"
            )
            # The single most damaged job, with both sides of its fork.
            jobs = diff.get("jobs", {})
            worst = max(
                (
                    (job_id, info)
                    for job_id, info in jobs.items()
                    if info.get("jct_delta") and info.get("divergence")
                ),
                key=lambda kv: abs(kv[1]["jct_delta"]),
                default=None,
            )
            if worst is not None:
                job_id, info = worst
                div = info["divergence"]
                lines.append(
                    f"    worst hit {job_id} ({info['jct_delta']:+.0f} s) "
                    f"forked at decision #{div['index']}:"
                )
                lines.append(f"      {report.baseline}: {div.get('a') or '-'}")
                lines.append(f"      {policy}: {div.get('b') or '-'}")
    return "\n".join(lines)
