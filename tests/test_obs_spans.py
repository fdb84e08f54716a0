"""Tests for repro.obs.spans: causal span tracing and flame trees."""

import pytest

from repro.common.errors import ControllerCrashed
from repro.deploy import ControlLoop
from repro.faults import ControllerCrash, CrashPointInjector
from repro.faults.crashpoints import CRASH_AFTER_TEARDOWN
from repro.k8s import APIServer
from repro.obs import (
    EVENT_SPAN,
    NULL_REGISTRY,
    NULL_SPAN_TRACER,
    NULL_TRACER,
    MetricsRegistry,
    RecordingTracer,
    SpanTracer,
    phase_timings,
    span_tracer_for,
    span_tree,
)
from repro.obs.registry import active_registry
from repro.obs.summarize import phase_breakdown, render_span_flame, span_flame
from repro.cluster import Cluster, cpu_mem
from repro.schedulers import JobView, make_scheduler
from repro.sim import SimConfig, simulate
from repro.workloads import make_job, uniform_arrivals


def span_events(tracer):
    return [e for e in tracer.events if e["event"] == EVENT_SPAN]


class TestSpanTracer:
    def test_nesting_assigns_parent_ids(self):
        tracer = RecordingTracer()
        spans = SpanTracer(tracer)
        spans.set_time(600.0)
        with spans.span("outer"):
            with spans.span("inner", detail=1):
                pass
            with spans.span("sibling"):
                pass
        events = span_events(tracer)
        # Children close (and emit) before their parent.
        assert [e["name"] for e in events] == ["inner", "sibling", "outer"]
        outer = events[2]
        assert outer["parent_id"] is None
        assert all(e["parent_id"] == outer["span_id"] for e in events[:2])
        assert events[0]["detail"] == 1
        assert all(e["time"] == 600.0 for e in events)
        assert all(e["duration"] >= 0.0 for e in events)

    def test_span_ids_unique_and_monotonic(self):
        spans = SpanTracer(RecordingTracer())
        ids = []
        for _ in range(5):
            with spans.span("s") as span:
                ids.append(span.span_id)
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_exception_still_closes_span(self):
        tracer = RecordingTracer()
        spans = SpanTracer(tracer)
        with pytest.raises(ValueError):
            with spans.span("outer"):
                with spans.span("doomed"):
                    raise ValueError("boom")
        events = span_events(tracer)
        assert [e["name"] for e in events] == ["doomed", "outer"]
        assert spans.current is None  # the stack did not corrupt

    def test_null_span_tracer_is_free_and_falsy(self):
        assert not NULL_SPAN_TRACER
        with NULL_SPAN_TRACER.span("anything", attr=1):
            pass
        assert span_tracer_for(None) is NULL_SPAN_TRACER
        assert span_tracer_for(NULL_TRACER) is NULL_SPAN_TRACER
        assert span_tracer_for(NULL_TRACER, NULL_REGISTRY) is NULL_SPAN_TRACER

    def test_live_tracer_gets_live_spans(self):
        tracer = RecordingTracer()
        spans = span_tracer_for(tracer)
        assert spans
        assert isinstance(spans, SpanTracer)

    def test_metrics_alone_get_live_spans_without_events(self):
        registry = MetricsRegistry()
        spans = span_tracer_for(None, registry)
        assert spans and spans is not NULL_SPAN_TRACER
        assert spans.metrics is registry
        with spans.span("interval"):
            with spans.span("fit"):
                pass
        assert registry.histogram("phase.fit").count == 1
        assert set(phase_timings(registry)) == {"interval", "fit"}

    def test_tracer_alone_times_into_a_private_registry(self):
        spans = span_tracer_for(RecordingTracer())
        assert isinstance(spans.metrics, MetricsRegistry)
        assert spans.metrics is not active_registry()
        with spans.span("interval"):
            pass
        assert spans.metrics.histogram("phase.interval").count == 1


class TestPhaseTimings:
    def test_breakdown_sums_each_root(self):
        tracer = RecordingTracer()
        spans = SpanTracer(tracer, MetricsRegistry())
        with spans.span("interval"):
            with spans.span("fit"):
                pass
            with spans.span("schedule"):
                with spans.span("allocate"):
                    pass
        with spans.span("interval"):
            with spans.span("fit"):
                pass
        # Every descendant counts once per root; the root is not a phase
        # of itself.
        breakdown = phase_breakdown(tracer.events)
        assert set(breakdown) == {"fit", "schedule", "allocate"}
        assert breakdown["fit"]["count"] == 2
        assert breakdown["schedule"]["count"] == 1
        assert breakdown["schedule"]["total"] >= breakdown["allocate"]["total"]

    def test_breakdown_skips_cut_short_interval(self):
        tracer = RecordingTracer()
        spans = SpanTracer(tracer)
        with spans.span("interval"):
            with spans.span("fit"):
                pass
        with spans.span("interval"):
            with spans.span("fit"):
                pass
            with spans.span("schedule"):
                pass
        # Cut the trace before the second root closed: its children are
        # orphans, promoted to roots by span_tree but no interval sample.
        cut = tracer.events[:-1]
        assert [r["name"] for r in span_tree(cut)] == ["interval", "fit", "schedule"]
        breakdown = phase_breakdown(cut)
        assert set(breakdown) == {"fit"}
        assert breakdown["fit"]["count"] == 1

    def test_phase_timings_accumulate_across_roots(self):
        registry = MetricsRegistry()
        spans = SpanTracer(NULL_TRACER, registry)
        for _ in range(3):
            with spans.span("interval"):
                with spans.span("fit"):
                    pass
        registry.histogram("engine.other").observe(1.0)
        summary = phase_timings(registry)
        assert list(summary) == ["fit", "interval"]
        assert summary["fit"]["count"] == 3
        assert summary["interval"]["count"] == 3
        assert summary["fit"]["total"] >= 0.0
        assert summary["fit"]["max"] <= summary["fit"]["total"] + 1e-12
        assert summary["fit"]["mean"] == pytest.approx(summary["fit"]["total"] / 3)

    def test_spans_feed_registry_histograms(self):
        registry = MetricsRegistry()
        spans = SpanTracer(RecordingTracer(), registry)
        with spans.span("step"):
            with spans.span("place"):
                pass
        assert registry.histogram("phase.place").count == 1
        assert registry.histogram("phase.step").count == 1

    def test_null_tracer_times_nothing(self):
        assert not NULL_SPAN_TRACER
        with NULL_SPAN_TRACER.span("interval"):
            with NULL_SPAN_TRACER.span("fit"):
                pass
        assert NULL_SPAN_TRACER.metrics is NULL_REGISTRY
        assert phase_timings(NULL_SPAN_TRACER.metrics) == {}


class TestSpanTreeReconstruction:
    def test_tree_rebuilt_from_events(self):
        tracer = RecordingTracer()
        spans = SpanTracer(tracer)
        with spans.span("interval"):
            with spans.span("fit"):
                pass
            with spans.span("progress"):
                with spans.span("rescale"):
                    pass
        roots = span_tree(tracer.events)
        assert len(roots) == 1
        root = roots[0]
        assert root["name"] == "interval"
        assert [c["name"] for c in root["children"]] == ["fit", "progress"]
        assert root["children"][1]["children"][0]["name"] == "rescale"

    def test_flame_lines_nest_under_parents(self):
        tracer = RecordingTracer()
        spans = SpanTracer(tracer)
        with spans.span("interval"):
            with spans.span("progress"):
                with spans.span("rescale"):
                    pass
            with spans.span("schedule"):
                with spans.span("allocate"):
                    pass
            with spans.span("snapshot"):
                pass
        names = [line.split()[0] for line in render_span_flame(tracer.events)]
        assert names == [
            "interval", "progress", "rescale", "schedule", "allocate", "snapshot"
        ]

    def test_orphan_spans_promoted_to_roots(self):
        tracer = RecordingTracer()
        spans = SpanTracer(tracer)
        with spans.span("outer"):
            with spans.span("inner"):
                pass
        # Simulate a trace cut before "outer" closed.
        cut = [e for e in tracer.events if e["name"] != "outer"]
        roots = span_tree(cut)
        assert [r["name"] for r in roots] == ["inner"]


class TestEngineSpans:
    def run_traced(self, **cfg_kwargs):
        tracer = RecordingTracer()
        simulate(
            Cluster.homogeneous(6, cpu_mem(16, 64)),
            make_scheduler("optimus"),
            uniform_arrivals(num_jobs=4, window=1200, seed=1),
            SimConfig(seed=3, estimator_mode="oracle", **cfg_kwargs),
            tracer=tracer,
        )
        return tracer

    def test_engine_emits_phase_chain(self):
        tracer = self.run_traced()
        names = {e["name"] for e in span_events(tracer)}
        assert {"interval", "fit", "allocate", "place", "progress"} <= names
        roots = span_tree(tracer.events)
        assert roots and all(r["name"] == "interval" for r in roots)
        for root in roots:
            child_names = [c["name"] for c in root["children"]]
            assert child_names == ["fit", "snapshot", "schedule", "progress"]
        # allocate/place nest under interval > schedule, as in the loop.
        scheduled = 0
        for root in roots:
            schedule = root["children"][2]
            grandchildren = [c["name"] for c in schedule["children"]]
            if grandchildren:
                assert grandchildren == ["allocate", "place"]
                scheduled += 1
        assert scheduled

    def test_parent_child_integrity_whole_run(self):
        tracer = self.run_traced()
        events = span_events(tracer)
        ids = {e["span_id"] for e in events}
        assert len(ids) == len(events)  # no id reuse
        for event in events:
            assert event["parent_id"] is None or event["parent_id"] in ids

    def test_flame_paths_aggregate(self):
        tracer = self.run_traced()
        flame = span_flame(tracer.events)
        assert "interval" in flame
        assert "interval > fit" in flame
        assert flame["interval"]["count"] == flame["interval > fit"]["count"]

    def test_untraced_run_emits_no_spans(self):
        result = simulate(
            Cluster.homogeneous(6, cpu_mem(16, 64)),
            make_scheduler("optimus"),
            uniform_arrivals(num_jobs=4, window=1200, seed=1),
            SimConfig(seed=3, estimator_mode="oracle"),
        )
        assert result.all_finished

    def test_metrics_only_run_times_every_phase(self):
        # Metrics on, tracer off: the mode the smoke and scalability
        # benches read phase.allocate / phase.place p95 from.
        registry = MetricsRegistry()
        result = simulate(
            Cluster.homogeneous(6, cpu_mem(16, 64)),
            make_scheduler("optimus"),
            uniform_arrivals(num_jobs=4, window=1200, seed=1),
            SimConfig(seed=3, estimator_mode="oracle"),
            metrics=registry,
        )
        for phase in ("fit", "allocate", "place"):
            assert registry.histogram(f"phase.{phase}").count >= 1
        assert result.phase_timings
        assert {"interval", "fit", "allocate", "place"} <= set(result.phase_timings)
        assert result.phase_timings["allocate"]["count"] == (
            registry.histogram("phase.allocate").count
        )


def _loop_views(progress):
    spec = make_job("resnet-50", mode="sync", job_id="job-a")
    return [
        JobView(
            spec=spec,
            remaining_steps=max(10_000.0 - progress.get("job-a", 0.0), 100.0),
            speed=lambda p, w: float(w),
            observation_count=50,
        )
    ]


class TestDeployLoopSpans:
    def make_api(self, nodes=3):
        api = APIServer()
        for i in range(nodes):
            api.register_node(f"n{i}", cpu_mem(16, 64))
        return api

    def test_step_emits_root_and_phase_spans(self):
        tracer = RecordingTracer()
        loop = ControlLoop(self.make_api(), make_scheduler("optimus"), tracer=tracer)
        loop.step(_loop_views({}), progress={"job-a": 0.0})
        events = span_events(tracer)
        names = [e["name"] for e in events]
        assert "step" in names
        for phase in ("sweep", "snapshot", "schedule", "reconcile"):
            assert phase in names
        roots = span_tree(tracer.events)
        assert [r["name"] for r in roots] == ["step"]
        # The first step launches job-a: per-job controller spans nest
        # under reconcile.
        reconcile = next(
            c for c in roots[0]["children"] if c["name"] == "reconcile"
        )
        assert "launch" in [c["name"] for c in reconcile["children"]]

    def test_crash_point_mid_reconcile_closes_open_spans(self):
        tracer = RecordingTracer()
        injector = CrashPointInjector([ControllerCrash(CRASH_AFTER_TEARDOWN)])
        loop = ControlLoop(
            self.make_api(),
            make_scheduler("optimus"),
            tracer=tracer,
            crash_points=injector,
        )
        loop.step(_loop_views({}), progress={"job-a": 0.0})
        before = len(span_events(tracer))
        # Dropping the job from the views forces a teardown of the
        # now-absent job, whose crash point fires mid-reconcile.
        with pytest.raises(ControllerCrashed):
            loop.step([], progress={"job-a": 1000.0})
        events = span_events(tracer)
        assert len(events) > before
        # Every span opened before the crash was closed and emitted --
        # including the reconcile/step ancestors of the crashing teardown.
        last_step_spans = [e["name"] for e in events]
        assert "teardown" in last_step_spans or "checkpoint" in last_step_spans
        assert last_step_spans.count("step") >= 2
        # The tracer's stack fully unwound: a new loop can span again.
        assert loop.spans.current is None
