"""Tests for repro.obs.summarize and the trace fold it renders from."""

import json

from repro.obs import (
    EVENT_ALLOCATION_DECIDED,
    EVENT_INTERVAL_TICK,
    EVENT_JOB_ARRIVED,
    EVENT_JOB_COMPLETED,
    EVENT_SPAN,
    JsonlTracer,
    RecordingTracer,
    read_trace_tolerant,
)
from repro.obs.fold import fold_trace
from repro.obs.summarize import (
    phase_breakdown,
    summarize_file,
    summarize_trace,
)


def emit_interval(tracer, now, first_id, phases):
    """One interval root span at *now* with one child span per phase."""
    for offset, (name, seconds) in enumerate(phases.items(), start=1):
        tracer.emit(
            EVENT_SPAN, now, span_id=first_id + offset, parent_id=first_id,
            name=name, duration=seconds,
        )
    tracer.emit(
        EVENT_SPAN, now, span_id=first_id, parent_id=None,
        name="interval", duration=sum(phases.values()),
    )


def small_trace():
    tracer = RecordingTracer()
    tracer.emit(EVENT_JOB_ARRIVED, 0.0, job_id="j1", model="vgg-16", mode="sync")
    tracer.emit(EVENT_ALLOCATION_DECIDED, 0.0, job_id="j1", workers=2, ps=1)
    emit_interval(tracer, 0.0, 1, {"fit": 0.2, "schedule": 0.6})
    tracer.emit(
        EVENT_INTERVAL_TICK, 0.0, running_jobs=1, active_jobs=1, pending_jobs=0
    )
    tracer.emit(EVENT_JOB_COMPLETED, 600.0, job_id="j1", steps=50.0)
    emit_interval(tracer, 600.0, 4, {"fit": 0.2, "schedule": 0.2})
    tracer.emit(
        EVENT_INTERVAL_TICK, 600.0, running_jobs=0, active_jobs=0, pending_jobs=0
    )
    return tracer.events


class TestPhaseBreakdown:
    def test_aggregates_ticks(self):
        # One sample per interval root: the ticks themselves carry no timings.
        breakdown = phase_breakdown(small_trace())
        assert breakdown["fit"]["count"] == 2
        assert breakdown["fit"]["total"] == 0.4
        assert breakdown["schedule"]["total"] == 0.8
        shares = sum(stats["share"] for stats in breakdown.values())
        assert abs(shares - 1.0) < 1e-9

    def test_percentiles_over_interval_samples(self):
        breakdown = phase_breakdown(small_trace())
        # schedule samples are [0.6, 0.2]: p50 interpolates the midpoint.
        assert abs(breakdown["schedule"]["p50"] - 0.4) < 1e-9
        assert breakdown["schedule"]["p99"] <= 0.6
        assert breakdown["fit"]["p50"] == breakdown["fit"]["p95"] == 0.2

    def test_empty_trace(self):
        assert phase_breakdown([]) == {}


class TestTolerantReads:
    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = {"seq": 0, "time": 0.0, "event": "job_arrived", "job_id": "j1"}
        path.write_text(
            json.dumps(good)
            + "\n{not json at all\n"
            + '"a bare string"\n'
            + json.dumps({**good, "seq": 1})[: -10]  # truncated tail
            + "\n"
        )
        events, skipped = read_trace_tolerant(str(path))
        assert len(events) == 1
        assert skipped == 3

    def test_summarize_file_reports_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = {"seq": 0, "time": 0.0, "event": "job_arrived", "job_id": "j1"}
        path.write_text(json.dumps(good) + "\ngarbage\n")
        text = summarize_file(str(path))
        assert "skipped 1" in text
        assert "j1" in text


class TestEventInventory:
    def test_unknown_events_bucketed(self):
        events = small_trace() + [
            {"seq": 99, "time": 0.0, "event": "from_the_future", "x": 1},
            {"seq": 100, "time": 0.0, "event": "from_the_future"},
        ]
        fold = fold_trace(events)
        assert fold.known["job_arrived"] == 1
        assert fold.unknown == {"from_the_future": 2}
        text = summarize_trace(events)
        assert "unknown event types: from_the_future=2" in text

    def test_no_unknown_section_when_clean(self):
        text = summarize_trace(small_trace())
        assert "unknown event types" not in text


class TestTimelines:
    def test_groups_events_by_job(self):
        jobs = fold_trace(small_trace()).jobs
        assert list(jobs) == ["j1"]
        assert [e["event"] for e in jobs["j1"].events] == [
            "job_arrived",
            "allocation_decided",
            "job_completed",
        ]
        assert (jobs["j1"].arrival, jobs["j1"].completion) == (0.0, 600.0)

    def test_summary_renders_each_jobs_timeline(self):
        text = summarize_trace(small_trace())
        timeline = text.split("j1 (3 events):\n", 1)[1].splitlines()
        assert len(timeline) == 3
        assert "arrived (vgg-16, sync)" in timeline[0]


class TestSummarize:
    def test_report_mentions_phases_and_jobs(self):
        text = summarize_trace(small_trace())
        assert "per-phase time breakdown:" in text
        assert "fit" in text
        assert "schedule" in text
        assert "j1" in text

    def test_long_timelines_truncate(self):
        tracer = RecordingTracer()
        tracer.emit(EVENT_JOB_ARRIVED, 0.0, job_id="busy", model="m", mode="sync")
        for i in range(30):
            tracer.emit(
                EVENT_ALLOCATION_DECIDED, i * 600.0, job_id="busy",
                workers=1 + i % 3, ps=1,
            )
        text = summarize_trace(tracer.events, max_events_per_job=6)
        assert "more" in text

    def test_summarize_file_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlTracer(path) as tracer:
            for event in small_trace():
                fields = {
                    k: v for k, v in event.items()
                    if k not in ("seq", "time", "event")
                }
                tracer.emit(event["event"], event["time"], **fields)
        text = summarize_file(path)
        assert "j1" in text
