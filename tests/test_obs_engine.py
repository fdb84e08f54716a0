"""End-to-end observability: a traced 2-job simulation run.

Asserts the event stream a small oracle-mode run produces: the expected
event sequence per job, the per-interval ticks and the span roots their
phase timings are rebuilt from, the metrics counters, and that attaching
the sinks does not perturb the simulation itself.
"""

import pytest

from repro.cluster import Cluster, cpu_mem
from repro.deploy import ControlLoop
from repro.k8s import APIServer
from repro.obs import (
    EVENT_ALLOCATION_DECIDED,
    EVENT_INTERVAL_TICK,
    EVENT_JOB_ARRIVED,
    EVENT_JOB_COMPLETED,
    EVENT_JOB_RESCALED,
    EVENT_PLACEMENT_DECIDED,
    EVENT_SPAN,
    MetricsRegistry,
    RecordingTracer,
)
from repro.obs.summarize import phase_breakdown
from repro.schedulers import JobView, make_scheduler
from repro.sim import SimConfig, simulate
from repro.workloads import make_job, uniform_arrivals


def run_traced(seed=3, num_jobs=2, **cfg):
    tracer = RecordingTracer()
    metrics = MetricsRegistry()
    jobs = uniform_arrivals(
        num_jobs=num_jobs, window=900, seed=seed, models=["cnn-rand", "dssm"]
    )
    cluster = Cluster.homogeneous(4, cpu_mem(16, 64))
    config = SimConfig(seed=seed, estimator_mode="oracle", **cfg)
    result = simulate(
        cluster, make_scheduler("optimus"), jobs, config,
        tracer=tracer, metrics=metrics,
    )
    return result, tracer, metrics


@pytest.fixture(scope="module")
def traced():
    return run_traced()


def per_root_sums(events, root_name):
    """``{root time: {name: summed duration}}`` of the spans beneath each root.

    Rebuilt straight from the ``span`` events, without the summarizer:
    every span is charged to its root (the root itself excluded).
    """
    spans = [e for e in events if e["event"] == EVENT_SPAN]
    parent_of = {e["span_id"]: e["parent_id"] for e in spans}

    def root_of(span_id):
        while parent_of[span_id] is not None:
            span_id = parent_of[span_id]
        return span_id

    beneath = {}
    for event in spans:
        if event["parent_id"] is None:
            continue
        sums = beneath.setdefault(root_of(event["span_id"]), {})
        sums[event["name"]] = sums.get(event["name"], 0.0) + event["duration"]
    return {
        e["time"]: beneath.get(e["span_id"], {})
        for e in spans
        if e["parent_id"] is None and e["name"] == root_name
    }


def assert_breakdown_matches_spans(events, root_name):
    """Ticks carry no timings; the breakdown is the per-root span sums.

    Every ``interval_tick`` pairs with a root span at the same logical
    time, and :func:`phase_breakdown` totals (and sample counts) equal
    the per-root sums rebuilt from the span events.
    """
    roots = per_root_sums(events, root_name)
    ticks = [e for e in events if e["event"] == EVENT_INTERVAL_TICK]
    assert ticks
    for tick in ticks:
        assert "phases" not in tick
        assert tick["time"] in roots
    expected = {}
    for sums in roots.values():
        for name, seconds in sums.items():
            expected.setdefault(name, []).append(seconds)
    breakdown = phase_breakdown(events)
    assert set(breakdown) == set(expected)
    for name, samples in expected.items():
        assert breakdown[name]["count"] == len(samples)
        assert breakdown[name]["total"] == pytest.approx(sum(samples), abs=1e-9)


class TestTwoJobTrace:
    def test_every_job_arrives_then_completes(self, traced):
        result, tracer, _ = traced
        assert result.all_finished
        for job_id in result.jobs:
            events = [e["event"] for e in tracer.for_job(job_id)]
            assert events[0] == EVENT_JOB_ARRIVED
            assert events[-1] == EVENT_JOB_COMPLETED
            assert events.count(EVENT_JOB_ARRIVED) == 1
            assert events.count(EVENT_JOB_COMPLETED) == 1

    def test_allocation_precedes_placement_each_interval(self, traced):
        _, tracer, _ = traced
        allocations = tracer.of_type(EVENT_ALLOCATION_DECIDED)
        placements = tracer.of_type(EVENT_PLACEMENT_DECIDED)
        assert allocations and placements
        # For a given job at a given time, allocation_decided comes first.
        placed = {(e["time"], e["job_id"]): e["seq"] for e in placements}
        for event in allocations:
            key = (event["time"], event["job_id"])
            if key in placed:
                assert event["seq"] < placed[key]

    def test_allocation_events_carry_worker_ps_counts(self, traced):
        _, tracer, _ = traced
        for event in tracer.of_type(EVENT_ALLOCATION_DECIDED):
            assert event["workers"] >= 1
            assert event["ps"] >= 1
        for event in tracer.of_type(EVENT_PLACEMENT_DECIDED):
            assert event["servers"] >= 1
            assert isinstance(event["layout"], dict) and event["layout"]

    def test_rescale_events_match_job_records(self, traced):
        result, tracer, _ = traced
        for job_id, record in result.jobs.items():
            rescales = [
                e for e in tracer.for_job(job_id)
                if e["event"] == EVENT_JOB_RESCALED
            ]
            # num_scalings counts allocation changes *and* pause-resumes
            # (but not the first launch); the event fires only on changes.
            assert len(rescales) <= record.num_scalings
            for event in rescales:
                assert event["old"] != event["new"]
                assert event["overhead"] >= 0.0

    def test_interval_ticks_pair_with_span_roots(self, traced):
        _, tracer, _ = traced
        ticks = tracer.of_type(EVENT_INTERVAL_TICK)
        assert ticks
        for tick in ticks:
            assert tick["active_jobs"] >= 0
        busy = [t for t in ticks if t["running_jobs"] > 0]
        assert busy, "at least one interval should run jobs"
        roots = per_root_sums(tracer.events, "interval")
        for tick in busy:
            phases = roots[tick["time"]]
            assert {"fit", "snapshot", "schedule", "progress"} <= set(phases)
            assert all(v >= 0.0 for v in phases.values())
        assert_breakdown_matches_spans(tracer.events, "interval")

    def test_control_loop_steps_pair_with_span_roots(self):
        tracer = RecordingTracer()
        api = APIServer()
        for i in range(3):
            api.register_node(f"n{i}", cpu_mem(16, 64))
        loop = ControlLoop(api, make_scheduler("optimus"), tracer=tracer)
        spec = make_job("resnet-50", mode="sync", job_id="job-a")
        view = JobView(
            spec=spec,
            remaining_steps=10_000.0,
            speed=lambda p, w: float(w),
            observation_count=50,
        )
        loop.step([view], progress={"job-a": 0.0})
        loop.step([], progress={"job-a": 500.0})
        roots = per_root_sums(tracer.events, "step")
        assert {"sweep", "snapshot", "schedule", "allocate", "place", "reconcile"} <= set(
            roots[0.0]
        )
        assert "launch" in roots[0.0]
        assert "teardown" in roots[1.0]
        assert_breakdown_matches_spans(tracer.events, "step")

    def test_seq_strictly_increasing_and_time_monotone(self, traced):
        _, tracer, _ = traced
        seqs = [e["seq"] for e in tracer.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        times = [e["time"] for e in tracer.events]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_metrics_agree_with_trace(self, traced):
        result, tracer, metrics = traced
        snap = metrics.snapshot()
        counters = snap["counters"]
        assert counters["engine.jobs_admitted"] == len(result.jobs) == 2
        assert counters["engine.jobs_completed"] == 2
        assert counters["engine.intervals"] == len(
            tracer.of_type(EVENT_INTERVAL_TICK)
        )
        assert counters["allocation.rounds"] >= 1
        assert counters["placement.rounds"] >= 1
        # Phase histograms exist for the phases the engine timed.
        assert any(name.startswith("phase.") for name in snap["histograms"])

    def test_phase_timings_surface_in_result(self, traced):
        result, _, metrics = traced
        assert result.phase_timings
        for stats in result.phase_timings.values():
            assert stats["count"] >= 1
            assert stats["total"] >= 0.0
            assert stats["max"] <= stats["total"] + 1e-12
        # The run totals are the registry's phase histograms, read back.
        histograms = metrics.snapshot()["histograms"]
        assert list(result.phase_timings) == sorted(result.phase_timings)
        assert {f"phase.{name}" for name in result.phase_timings} == {
            name for name in histograms if name.startswith("phase.")
        }
        for name, stats in result.phase_timings.items():
            histogram = histograms[f"phase.{name}"]
            assert stats["count"] == histogram["count"]
            assert stats["total"] == histogram["sum"]
            assert stats["max"] == histogram["max"]


class TestObservabilityIsInert:
    def test_tracing_does_not_change_results(self):
        def once(**sinks):
            return simulate(
                Cluster.homogeneous(4, cpu_mem(16, 64)),
                make_scheduler("optimus"),
                uniform_arrivals(
                    num_jobs=2, window=900, seed=3, models=["cnn-rand", "dssm"]
                ),
                SimConfig(seed=3, estimator_mode="oracle"),
                **sinks,
            )

        plain = once()
        traced = once(tracer=RecordingTracer(), metrics=MetricsRegistry())
        assert plain.average_jct == traced.average_jct
        assert plain.makespan == traced.makespan
        assert plain.decision_digest == traced.decision_digest
        assert {j: r.completion_time for j, r in plain.jobs.items()} == {
            j: r.completion_time for j, r in traced.jobs.items()
        }
        assert plain.phase_timings is None
        assert traced.phase_timings

    def test_tracer_only_run_still_reports_phase_timings(self):
        from repro.obs import NULL_REGISTRY
        from repro.obs.registry import active_registry

        tracer = RecordingTracer()
        result = simulate(
            Cluster.homogeneous(4, cpu_mem(16, 64)),
            make_scheduler("optimus"),
            uniform_arrivals(
                num_jobs=2, window=900, seed=3, models=["cnn-rand", "dssm"]
            ),
            SimConfig(seed=3, estimator_mode="oracle"),
            tracer=tracer,
        )
        # The spans time into a run-private registry, not the active one.
        assert active_registry() is NULL_REGISTRY
        assert result.phase_timings
        assert {"interval", "fit", "allocate", "place"} <= set(result.phase_timings)
        assert result.phase_timings["interval"]["count"] == sum(
            1 for e in tracer.of_type(EVENT_SPAN) if e["parent_id"] is None
        )

    def test_default_run_emits_nothing(self):
        from repro.obs import NULL_REGISTRY
        from repro.obs.registry import active_registry

        jobs = uniform_arrivals(
            num_jobs=1, window=100, seed=1, models=["cnn-rand"]
        )
        result = simulate(
            Cluster.homogeneous(2, cpu_mem(16, 64)),
            make_scheduler("optimus"),
            jobs,
            SimConfig(seed=1, estimator_mode="oracle"),
        )
        assert result.phase_timings is None
        assert active_registry() is NULL_REGISTRY
